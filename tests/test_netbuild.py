import pytest
from hypothesis import given
from hypothesis import strategies as st

from storynets import netbuild
from storynets.errors import ParseIntegrityError
from storynets.netbuild import (
    BUILDER_TAGS,
    LexicalNetwork,
    RelationFile,
    add_semantic_edges,
    annotate_valence,
    build_all_variants,
    build_cooccurrence,
    build_dependency_network,
    make_network,
)

from conftest import make_sentence, make_token
from oracles import edge_hash, parse_graphml

CHILD_PLAY = make_sentence(["child", "play", "football", "game"])


class TestCooccurrence:
    def test_ws3_reference_edges(self):
        net = build_cooccurrence([CHILD_PLAY], 3, keep_pronouns=False)
        assert net.edges == frozenset(
            {
                ("child", "play"),
                ("child", "football"),
                ("football", "play"),
                ("game", "play"),
                ("football", "game"),
            }
        )

    def test_ws2_chain(self):
        net = build_cooccurrence([CHILD_PLAY], 2, keep_pronouns=False)
        assert net.edges == frozenset(
            {("child", "play"), ("football", "play"), ("football", "game")}
        )

    def test_ws4_complete_graph(self):
        net = build_cooccurrence([CHILD_PLAY], 4, keep_pronouns=False)
        assert net.n_edges == 6 and net.n_nodes == 4

    def test_window_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_cooccurrence([CHILD_PLAY], 1, keep_pronouns=False)

    def test_single_token_sentence_yields_isolated_node(self):
        net = build_cooccurrence([make_sentence(["lonely"])], 2, False)
        assert net.nodes == frozenset({"lonely"}) and net.n_edges == 0

    def test_repeated_lemma_never_self_loops(self):
        net = build_cooccurrence([make_sentence(["echo", "echo", "echo"])], 3, False)
        assert net.n_edges == 0 and net.nodes == frozenset({"echo"})

    def test_stop_words_filtered_at_build_time(self):
        sent = (
            make_token("the", 0, stop=True),
            make_token("i", 1, stop=True, pron=True),
            make_token("cat", 2),
        )
        plain = build_cooccurrence([sent], 2, keep_pronouns=False)
        with_p = build_cooccurrence([sent], 2, keep_pronouns=True)
        assert plain.nodes == frozenset({"cat"})
        assert with_p.edges == frozenset({("cat", "i")})

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=8),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=2, max_value=4),
    )
    def test_window_monotonicity(self, sentences, ws):
        sents = [make_sentence(s, i) for i, s in enumerate(sentences)]
        smaller = build_cooccurrence(sents, ws, False)
        larger = build_cooccurrence(sents, ws + 1, False)
        assert smaller.edges <= larger.edges
        assert smaller.nodes == larger.nodes

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["i", "you", "cat", "dog", "sun", "moon"]),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_pronoun_mode_node_subset(self, sentences):
        pronouns = {"i", "you"}
        sents = [
            tuple(
                make_token(l, i, si, stop=l in pronouns, pron=l in pronouns)
                for i, l in enumerate(s)
            )
            for si, s in enumerate(sentences)
        ]
        plain = build_cooccurrence(sents, 3, keep_pronouns=False)
        with_p = build_cooccurrence(sents, 3, keep_pronouns=True)
        assert plain.nodes <= with_p.nodes


def chain_sentence(lemmas, upos="NOUN"):
    """Each token's head is the next one; the last token is the root."""
    n = len(lemmas)
    return tuple(
        make_token(l, i, upos=upos, head=(i + 1 if i + 1 < n else None))
        for i, l in enumerate(lemmas)
    )


class TestDependencyNetwork:
    def test_three_word_sentence_fully_linked(self):
        sent = (
            make_token("lucy", 0, upos="PROPN", head=1),
            make_token("love", 1, upos="VERB", head=None),
            make_token("hiking", 2, upos="NOUN", head=1),
        )
        net = build_dependency_network([sent])
        assert net.edges == frozenset(
            {("love", "lucy"), ("hiking", "lucy"), ("hiking", "love")}
        )

    def test_long_range_link_despite_intervening_tokens(self):
        # "Lucy, despite her immense fear of heights, loves hiking"
        sent = (
            make_token("lucy", 0, upos="PROPN", head=9),
            make_token(",", 1, upos="PUNCT", head=5, surface=","),
            make_token("despite", 2, upos="ADP", head=5, stop=True),
            make_token("she", 3, upos="PRON", head=5, stop=True, pron=True, surface="her"),
            make_token("immense", 4, upos="ADJ", head=5),
            make_token("fear", 5, upos="NOUN", head=9),
            make_token("of", 6, upos="ADP", head=7, stop=True),
            make_token("heights", 7, upos="NOUN", head=5),
            make_token(",", 8, upos="PUNCT", head=5, surface=","),
            make_token("love", 9, upos="VERB", head=None, surface="loves"),
            make_token("hiking", 10, upos="NOUN", head=9),
        )
        net = build_dependency_network([sent], radius=3)
        assert ("love", "lucy") in net.edges  # tree distance 1, surface distance 9
        assert ("hiking", "lucy") in net.edges
        # the same pair is out of reach for any co-occurrence window <= 4
        coocc = build_cooccurrence([sent], 4, keep_pronouns=False)
        assert ("love", "lucy") not in coocc.edges

    def test_chain_radius_boundary(self):
        sent = chain_sentence(["a", "b", "c", "d", "e"])
        net = build_dependency_network([sent], radius=3)
        assert ("a", "d") in net.edges  # distance 3
        assert ("a", "e") not in net.edges  # distance 4

    def test_stop_words_are_path_steps_but_not_nodes(self):
        sent = (
            make_token("cat", 0, upos="NOUN", head=None),
            make_token("of", 1, upos="ADP", head=0, stop=True),
            make_token("war", 2, upos="NOUN", head=1),
        )
        net_r3 = build_dependency_network([sent], radius=3)
        assert net_r3.nodes == frozenset({"cat", "war"})
        assert net_r3.edges == frozenset({("cat", "war")})  # distance 2 via "of"
        net_r1 = build_dependency_network([sent], radius=1)
        assert net_r1.n_edges == 0

    def test_pronouns_always_retained(self):
        sent = (
            make_token("i", 0, upos="PRON", head=1, stop=True, pron=True),
            make_token("run", 1, upos="VERB", head=None),
        )
        net = build_dependency_network([sent])
        assert net.edges == frozenset({("i", "run")})

    def test_cyclic_heads_rejected(self):
        sent = (
            make_token("a", 0, upos="NOUN", head=1),
            make_token("b", 1, upos="NOUN", head=0),
        )
        with pytest.raises(ParseIntegrityError):
            build_dependency_network([sent])

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_dependency_network([], radius=0)

    def test_merging_is_order_invariant(self, demo_story):
        forward = build_dependency_network(demo_story.sentences)
        backward = build_dependency_network(tuple(reversed(demo_story.sentences)))
        assert forward.nodes == backward.nodes
        assert forward.edges == backward.edges

    @given(st.data())
    def test_radius_monotonicity(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        lemmas = [f"w{i}" for i in range(n)]
        heads = [data.draw(st.integers(min_value=0, max_value=i - 1)) if i else None
                 for i in range(n)]
        sent = tuple(
            make_token(l, i, upos="NOUN", head=heads[i]) for i, l in enumerate(lemmas)
        )
        radius = data.draw(st.integers(min_value=1, max_value=4))
        smaller = build_dependency_network([sent], radius=radius)
        larger = build_dependency_network([sent], radius=radius + 1)
        assert smaller.edges <= larger.edges


class TestValence:
    def test_lexicon_positive_unnegated(self, demo_lexicon):
        net = make_network({"happy"}, [])
        out = annotate_valence(net, demo_lexicon, [("happy", False)])
        assert out.node_valence("happy") == "positive"

    def test_negated_negative_flips_to_positive(self, demo_lexicon):
        net = make_network({"angry"}, [])
        out = annotate_valence(net, demo_lexicon, [("angry", True)])
        assert out.node_valence("angry") == "positive"

    def test_absent_from_lexicon_is_neutral(self, demo_lexicon):
        net = make_network({"table"}, [])
        out = annotate_valence(net, demo_lexicon, [("table", False)])
        assert out.node_valence("table") == "neutral"

    def test_majority_and_tie(self, demo_lexicon):
        net = make_network({"happy"}, [])
        majority = annotate_valence(
            net, demo_lexicon, [("happy", False), ("happy", False), ("happy", True)]
        )
        assert majority.node_valence("happy") == "positive"
        tie = annotate_valence(net, demo_lexicon, [("happy", False), ("happy", True)])
        assert tie.node_valence("happy") == "neutral"

    def test_node_missing_from_stream_uses_lexicon(self, demo_lexicon):
        net = make_network({"grim"}, [])
        out = annotate_valence(net, demo_lexicon, [])
        assert out.node_valence("grim") == "negative"


class TestSemanticEdges:
    def test_edge_added_when_both_nodes_present(self):
        net = make_network({"dog", "canine"}, [])
        out = add_semantic_edges(net, RelationFile((("dog", "canine", "synonym"),)))
        assert out.edges == frozenset({("canine", "dog")})

    def test_absent_lemma_is_a_noop(self):
        net = make_network({"dog"}, [])
        out = add_semantic_edges(net, RelationFile((("dog", "wolf", "hypernym"),)))
        assert out.edges == net.edges and out.nodes == net.nodes

    def test_duplicate_of_existing_edge_keeps_count(self):
        net = make_network({"dog", "canine"}, [("dog", "canine")])
        out = add_semantic_edges(net, RelationFile((("canine", "dog", "synonym"),)))
        assert out.n_edges == 1

    def test_relation_kind_validated(self):
        with pytest.raises(ValueError):
            RelationFile((("a", "b", "antonym"),))


class TestBuildAllVariants:
    def test_seven_variants_with_expected_tags(self, demo_story):
        nets = build_all_variants(demo_story)
        assert set(nets) == set(BUILDER_TAGS)
        for tag, net in nets.items():
            assert net.builder_tag == tag

    def test_pronoun_connector_only_in_pronoun_variants(self, demo_story):
        nets = build_all_variants(demo_story)
        for ws in (2, 3, 4):
            assert "i" in nets[f"coocc_p_WS{ws}"].nodes
            assert "i" not in nets[f"coocc_WS{ws}"].nodes

    def test_empty_story_gives_seven_empty_networks(self):
        from storynets.textpipe import Story

        story = Story("empty", ("a", "b", "c"), "", (), {"r": 3})
        nets = build_all_variants(story)
        assert all(net.n_nodes == 0 and net.n_edges == 0 for net in nets.values())

    def test_two_word_sentence_linked_everywhere(self):
        from storynets.textpipe import Story

        sent = (
            make_token("child", 0, upos="NOUN", head=1),
            make_token("play", 1, upos="VERB", head=None),
        )
        story = Story("tiny", ("a", "b", "c"), "child play", (sent,), {"r": 3})
        nets = build_all_variants(story)
        for net in nets.values():
            assert ("child", "play") in net.edges

    def test_determinism_via_edge_hash(self, demo_story):
        first = build_all_variants(demo_story)
        second = build_all_variants(demo_story)
        for tag in BUILDER_TAGS:
            assert edge_hash(first[tag]) == edge_hash(second[tag])

    def test_tfmn_valence_annotated_when_lexicon_given(self, demo_story, demo_lexicon):
        nets = build_all_variants(demo_story, lexicon=demo_lexicon)
        tfmn = nets["TFMN"]
        assert tfmn.node_valence("gloom") == "negative"
        assert set(tfmn.valence) == tfmn.nodes


class TestNetworkInvariants:
    def test_no_self_loops_allowed(self):
        with pytest.raises(ValueError):
            LexicalNetwork(frozenset({"a"}), frozenset({("a", "a")}))

    def test_edge_endpoints_must_be_nodes(self):
        with pytest.raises(ValueError):
            LexicalNetwork(frozenset({"a"}), frozenset({("a", "b")}))

    def test_exports_roundtrip(self, demo_story, demo_lexicon):
        net = build_all_variants(demo_story, lexicon=demo_lexicon)["TFMN"]
        lines = list(netbuild.edge_rows(net))
        assert lines[0] == ("source", "target")
        assert lines[1:] == sorted(lines[1:])
        parsed = parse_graphml(netbuild.graphml(net))
        assert parsed.nodes == net.nodes
        assert parsed.edges == net.edges
        assert all(parsed.node_valence(n) == net.node_valence(n) for n in net.nodes)


class TestGraphIndex:
    def test_sorted_csr_degrees_and_component_order(self):
        # components {b, c} and {d, e} tie on size, so the one holding "b" comes
        # first after the three-node component; "a" is isolated
        net = make_network(
            "abcdefgh", [("h", "f"), ("f", "g"), ("c", "b"), ("e", "d"), ("g", "h")]
        )
        index = net.index
        assert index.nodes == tuple("abcdefgh")
        assert index.position == {node: i for i, node in enumerate("abcdefgh")}
        rows = [[index.nodes[j] for j in index.indices[index.indptr[i]:index.indptr[i + 1]]]
                for i in range(8)]
        assert rows == [[], ["c"], ["b"], ["e"], ["d"], ["g", "h"], ["f", "h"], ["f", "g"]]
        assert index.degree.tolist() == [0, 1, 1, 1, 1, 2, 2, 2]
        assert index.component.tolist() == [3, 1, 1, 2, 2, 0, 0, 0]
        assert index.n_components == 4
        assert index.lcc_path_lengths == (6, 1)
        assert net.index is index

    def test_empty_network(self):
        index = make_network(set(), []).index
        assert index.nodes == () and index.n_components == 0
        assert index.lcc_path_lengths == (0, 0)
