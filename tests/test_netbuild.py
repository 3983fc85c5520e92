import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storynets import netbuild
from storynets.errors import InputFormatError
from storynets.netbuild import (
    BUILDER_TAGS,
    GraphBatch,
    LexicalNetwork,
    RelationFile,
    add_semantic_edges,
    annotate_valence,
    build_all_variants,
    build_cooccurrence,
    build_dependency_network,
    label_components,
)

from conftest import make_sentence, make_token
from oracles import component_labels_reference, edge_hash, parse_graphml

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
        net = LexicalNetwork({"happy"}, [])
        out = annotate_valence(net, demo_lexicon, [("happy", False)])
        assert out.node_valence("happy") == "positive"

    def test_negated_negative_flips_to_positive(self, demo_lexicon):
        net = LexicalNetwork({"angry"}, [])
        out = annotate_valence(net, demo_lexicon, [("angry", True)])
        assert out.node_valence("angry") == "positive"

    def test_absent_from_lexicon_is_neutral(self, demo_lexicon):
        net = LexicalNetwork({"table"}, [])
        out = annotate_valence(net, demo_lexicon, [("table", False)])
        assert out.node_valence("table") == "neutral"

    def test_majority_and_tie(self, demo_lexicon):
        net = LexicalNetwork({"happy"}, [])
        majority = annotate_valence(
            net, demo_lexicon, [("happy", False), ("happy", False), ("happy", True)]
        )
        assert majority.node_valence("happy") == "positive"
        tie = annotate_valence(net, demo_lexicon, [("happy", False), ("happy", True)])
        assert tie.node_valence("happy") == "neutral"

    def test_node_missing_from_stream_uses_lexicon(self, demo_lexicon):
        net = LexicalNetwork({"grim"}, [])
        out = annotate_valence(net, demo_lexicon, [])
        assert out.node_valence("grim") == "negative"


class TestSemanticEdges:
    def test_edge_added_when_both_nodes_present(self):
        net = LexicalNetwork({"dog", "canine"}, [])
        out = add_semantic_edges(net, RelationFile((("dog", "canine", "synonym"),)))
        assert out.edges == frozenset({("canine", "dog")})

    def test_absent_lemma_is_a_noop(self):
        net = LexicalNetwork({"dog"}, [])
        out = add_semantic_edges(net, RelationFile((("dog", "wolf", "hypernym"),)))
        assert out.edges == net.edges and out.nodes == net.nodes

    def test_duplicate_of_existing_edge_keeps_count(self):
        net = LexicalNetwork({"dog", "canine"}, [("dog", "canine")])
        out = add_semantic_edges(net, RelationFile((("canine", "dog", "synonym"),)))
        assert out.n_edges == 1

    def test_relation_kind_validated(self):
        with pytest.raises(ValueError):
            RelationFile((("a", "b", "antonym"),))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("dog\twolf", "expected 3 tab-separated columns, got 2"),
            ("dog\twolf\tantonym", "unknown relation kind 'antonym'"),
            ("Dog\tdog\tsynonym", "self-pair 'dog'"),
        ],
        ids=["cell-count", "kind", "self-pair"],
    )
    def test_relation_file_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "relations.tsv"
        path.write_text(f"Dog\tCanine\tSynonym\n{row}\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}: line 2: {message}"):
            netbuild.load_relations(path)
        path.write_text("Dog\tCanine\tSynonym\n", encoding="utf-8")
        assert netbuild.load_relations(path).triples == (("dog", "canine", "synonym"),)


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

    def test_reversed_and_repeated_pairs_are_one_sorted_edge(self):
        pairs = [("b", "a"), ("a", "b"), ["b", "a"], ("c", "b")]
        net = LexicalNetwork(["b", "a", "c", "a"], pairs)
        assert net.nodes == frozenset("abc")
        assert net.edges == frozenset({("a", "b"), ("b", "c")})
        assert net.n_edges == 2
        assert net.index.degree.tolist() == [1, 2, 1]

    def test_bad_valence_rejected(self):
        with pytest.raises(ValueError, match="bad valence"):
            LexicalNetwork({"a"}, [], valence={"a": "happy"})

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
        net = LexicalNetwork(
            "abcdefgh", [("h", "f"), ("f", "g"), ("c", "b"), ("e", "d"), ("g", "h")]
        )
        index = net.index
        assert index.nodes == tuple("abcdefgh")
        assert index.position == {node: i for i, node in enumerate("abcdefgh")}
        rows = [[index.nodes[j] for j in index.indices[index.rows == i]] for i in range(8)]
        assert rows == [[], ["c"], ["b"], ["e"], ["d"], ["g", "h"], ["f", "h"], ["f", "g"]]
        assert index.degree.tolist() == [0, 1, 1, 1, 1, 2, 2, 2]
        assert index.component.tolist() == [3, 1, 1, 2, 2, 0, 0, 0]
        assert index.n_components == 4
        assert index.lcc_path_lengths == (6, 1)
        assert net.index is index

    def test_empty_network(self):
        index = LexicalNetwork(set(), []).index
        assert index.nodes == () and index.n_components == 0
        assert index.lcc_path_lengths == (0, 0)


@st.composite
def small_graphs(draw):
    """A network of up to 12 nodes with any edge set, isolates included."""
    labels = [f"v{i:02d}" for i in range(draw(st.integers(0, 12)))]
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=24)) if pairs else []
    return LexicalNetwork(labels, edges)


class TestGraphBatch:
    def test_blocks_are_offset_copies_of_each_index(self):
        nets = [
            LexicalNetwork("abc", [("a", "b"), ("b", "c")]),
            LexicalNetwork(set(), []),
            LexicalNetwork("xyz", [("x", "z")]),
        ]
        batch = GraphBatch.of([net.index for net in nets])
        assert batch.starts.tolist() == [0, 3, 3]
        assert batch.sizes.tolist() == [3, 0, 3]
        assert batch.block.tolist() == [0, 0, 0, 2, 2, 2]
        assert batch.degree.tolist() == [1, 2, 1, 1, 0, 1]
        pairs = list(zip(batch.rows.tolist(), batch.indices.tolist()))
        assert pairs == [(0, 1), (1, 0), (1, 2), (2, 1), (3, 5), (5, 3)]
        assert batch.neighbour_sum(np.arange(6.0)).tolist() == [1.0, 2.0, 1.0, 5.0, 0.0, 3.0]

    def test_induced_keeps_whole_components_and_drops_empty_blocks(self):
        nets = [LexicalNetwork("abcd", [("a", "b"), ("c", "d")]), LexicalNetwork("xy", [])]
        batch = GraphBatch.of([net.index for net in nets])
        sub = batch.induced(np.array([False, False, True, True, False, False]))
        assert (sub.starts.tolist(), sub.sizes.tolist()) == ([0], [2])
        assert list(zip(sub.rows.tolist(), sub.indices.tolist())) == [(0, 1), (1, 0)]
        assert sub.degree.tolist() == [1, 1]

    def test_empty_batch(self):
        batch = GraphBatch.of([])
        assert batch.n_nodes == 0 and batch.component_labels().size == 0

    @given(st.lists(small_graphs(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_batched_labels_match_each_network_alone(self, nets):
        batch = GraphBatch.of([net.index for net in nets])
        labels = batch.component_labels()
        for net, start, size in zip(nets, batch.starts, batch.sizes):
            got = labels[start : start + size].tolist()
            assert got == component_labels_reference(net)
            assert got == LexicalNetwork(net.nodes, net.edges).index.component.tolist()

    def test_label_components_fills_every_index_once(self):
        nets = [LexicalNetwork("abcd", [("c", "d")]), LexicalNetwork("xy", [("x", "y")])]
        first = nets[0].index.component
        label_components([net.index for net in nets])
        assert nets[0].index.component is first  # already labelled: left alone
        assert [net.index.component.tolist() for net in nets] == [[1, 2, 0, 0], [0, 0]]
