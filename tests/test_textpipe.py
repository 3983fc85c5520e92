import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storynets import textpipe
from storynets.errors import InputFormatError
from storynets.textpipe import (
    Story,
    Token,
    default_pronouns,
    default_stoplist,
    levenshtein,
    match_prompts,
    read_conllu,
    segment_sentences,
    tokenize_and_lemmatize,
    write_conllu,
)

from conftest import DEMO_STORY_TEXT, make_sentence, make_token


class TestSegmentSentences:
    def test_empty(self):
        assert segment_sentences("") == []

    def test_two_terminals(self):
        assert segment_sentences("A cat. A dog!") == ["A cat.", "A dog!"]

    def test_demo_story_has_five_sentences(self):
        assert len(segment_sentences(DEMO_STORY_TEXT)) == 5

    def test_abbreviation_is_not_a_boundary(self):
        assert segment_sentences("Dr. Smith left. He ran.") == ["Dr. Smith left.", "He ran."]

    def test_decimal_number_is_not_a_boundary(self):
        assert segment_sentences("It was 3.14 wide. Nice.") == ["It was 3.14 wide.", "Nice."]

    def test_period_before_lowercase_is_not_a_boundary(self):
        assert segment_sentences("see fig. 2 and fig. 3 here. Good.") == [
            "see fig. 2 and fig. 3 here.",
            "Good.",
        ]

    def test_question_and_exclamation(self):
        assert segment_sentences("Why? Stop! now") == ["Why?", "Stop!", "now"]

    def test_trailing_text_without_terminator(self):
        assert segment_sentences("One! and then some") == ["One!", "and then some"]

    def test_coverage_of_input(self):
        text = "Alpha beta. Gamma delta! Epsilon?"
        joined = "".join(segment_sentences(text))
        assert joined.replace(" ", "") == text.replace(" ", "")


class TestTokenize:
    def test_lemma_table_applied(self):
        toks = tokenize_and_lemmatize(
            "The children played",
            {"children": "child", "played": "play"},
            {"the"},
            set(),
        )
        assert [t.lemma for t in toks] == ["child", "play"]

    def test_pronouns_bypass_stoplist(self):
        toks = tokenize_and_lemmatize("I like it", {}, {"i", "it"}, {"i", "it"})
        assert [t.lemma for t in toks] == ["i", "like", "it"]
        assert toks[0].is_pronoun and toks[0].is_stop

    def test_pronouns_dropped_without_keep(self):
        toks = tokenize_and_lemmatize("I like it", {}, {"i", "it"}, {"i", "it"})
        assert [t.lemma for t in textpipe.filter_content(toks, keep_pronouns=False)] == ["like"]

    def test_non_stop_pronouns_follow_the_pronoun_rule(self):
        # "us" and "mine" are bundled pronouns but not bundled stop-words
        stoplist = default_stoplist()
        pronouns = default_pronouns()
        assert {"us", "mine"} <= pronouns and not {"us", "mine"} & stoplist
        text = "The lantern showed us mine"
        full = tokenize_and_lemmatize(text, {}, stoplist, pronouns)
        assert [t.lemma for t in full] == ["lantern", "showed", "us", "mine"]
        assert textpipe.filter_content(full, keep_pronouns=False) == full[:2]

    def test_non_alphabetic_removed(self):
        assert tokenize_and_lemmatize("12 %% !!", {}, set(), set()) == []

    def test_lowercasing_fallback(self):
        toks = tokenize_and_lemmatize("Many WORDS", {}, set(), set())
        assert [t.lemma for t in toks] == ["many", "words"]

    def test_token_indices_are_positions_in_filtered_stream(self):
        toks = tokenize_and_lemmatize("the big cat", {}, {"the"}, set())
        assert [(t.lemma, t.token_index) for t in toks] == [("big", 0), ("cat", 1)]

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    def test_idempotent_on_filtered_stream(self, text):
        stoplist = default_stoplist()
        pronouns = default_pronouns()
        table = {"children": "child"}
        first = tokenize_and_lemmatize(text, table, stoplist, pronouns)
        again = tokenize_and_lemmatize(" ".join(t.lemma for t in first), table, stoplist, pronouns)
        assert [t.lemma for t in again] == [t.lemma for t in first]

    @given(st.lists(st.sampled_from("i it cat dog the very happy my".split()), max_size=12))
    def test_keep_pronouns_yields_supersequence(self, words):
        stoplist = default_stoplist()
        pronouns = default_pronouns()
        text = " ".join(words)
        tokens = tokenize_and_lemmatize(text, {}, stoplist, pronouns)
        with_p = [t.lemma for t in tokens]
        without = [t.lemma for t in textpipe.filter_content(tokens, keep_pronouns=False)]
        it = iter(with_p)
        assert all(any(w == x for x in it) for w in without)  # subsequence check


class TestTokenInvariants:
    def test_lemma_must_be_lowercase(self):
        with pytest.raises(ValueError):
            Token("X", "X", "NOUN", 0, 0)

    def test_head_cannot_be_self(self):
        with pytest.raises(ValueError):
            Token("x", "x", "NOUN", 0, 1, head_index=1)


LUCY_CONLLU = """\
# story_id = lucy
1\tLucy\tLucy\tPROPN\t_\t_\t2\tnsubj\t_\t_
2\tloves\tlove\tVERB\t_\t_\t0\troot\t_\t_
3\thiking\thiking\tNOUN\t_\t_\t2\tobj\t_\t_
"""

TWO_STORY_CONLLU = """\
# story_id = s1
1\tBirds\tbird\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsing\tsing\tVERB\t_\t_\t0\troot\t_\t_

# story_id = s1
1\tCats\tcat\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsleep\tsleep\tVERB\t_\t_\t0\troot\t_\t_

# story_id = s2
1\tDogs\tdog\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tbark\tbark\tVERB\t_\t_\t0\troot\t_\t_
"""


class TestReadConllu:
    def test_empty_file(self):
        assert read_conllu("") == {}

    def test_lucy_heads(self):
        parsed = read_conllu(LUCY_CONLLU)
        (sent,) = parsed["lucy"]
        assert [t.lemma for t in sent] == ["lucy", "love", "hiking"]
        assert sent[0].head_index == 1
        assert sent[1].head_index is None  # root
        assert sent[2].head_index == 1
        assert sent[1].deprel == "root"
        assert sent[0].upos == "PROPN"

    def test_two_story_file_block_counts(self):
        # independent count: sentence blocks are the blank-line separated
        # chunks that contain token rows
        blocks = [b for b in TWO_STORY_CONLLU.split("\n\n") if b.strip()]
        counts = {}
        for block in blocks:
            sid = next(
                line.split("=", 1)[1].strip()
                for line in block.splitlines()
                if line.startswith("# story_id")
            )
            counts[sid] = counts.get(sid, 0) + 1
        parsed = read_conllu(TWO_STORY_CONLLU)
        assert len(parsed) == 2
        assert {sid: len(sents) for sid, sents in parsed.items()} == counts

    def test_multiword_ranges_and_empty_nodes_skipped(self):
        data = (
            "# story_id = s\n"
            "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tdo\tdo\tAUX\t_\t_\t3\taux\t_\t_\n"
            "2\tnot\tnot\tPART\t_\t_\t3\tadvmod\t_\t_\n"
            "2.1\tghost\tghost\tNOUN\t_\t_\t_\t_\t_\t_\n"
            "3\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
        )
        parsed = read_conllu(data)
        (sent,) = parsed["s"]
        assert [t.surface for t in sent] == ["do", "not", "go"]
        assert sent[0].head_index == 2

    def test_malformed_column_count_names_line(self):
        data = "# story_id = s\n1\tword\tword\n"
        with pytest.raises(InputFormatError, match="line 2"):
            read_conllu(data)

    def test_missing_story_id_is_an_error(self):
        data = "1\tword\tword\tNOUN\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(InputFormatError, match="story_id"):
            read_conllu(data)

    def test_story_id_key_is_matched_exactly(self):
        row = "1\tword\tword\tNOUN\t_\t_\t0\troot\t_\t_\n"
        assert set(read_conllu("# story_id = s1\n# story_idx = s2\n" + row)) == {"s1"}
        with pytest.raises(InputFormatError, match="story_id"):
            read_conllu("# story_idx = s1\n" + row)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x\tdog\tdog\tNOUN\t_\t_\t0\troot\t_\t_", "token id 'x' is not an integer"),
            ("2\tdog\tdog\tNOUN\t_\t_\t?\tdep\t_\t_", "HEAD '\\?' is not an integer"),
            ("2\tdog\t\tNOUN\t_\t_\t1\tdep\t_\t_", "lemma must be non-empty"),
            ("2\tdog\tdog\tNOUN\t_\t_\t2\tdep\t_\t_", "token 1 cannot be its own head"),
        ],
        ids=["token-id", "head", "empty-lemma", "own-head"],
    )
    def test_bad_row_names_source_and_line(self, row, message):
        data = "# story_id = s\n1\tcat\tcat\tNOUN\t_\t_\t0\troot\t_\t_\n" + row + "\n"
        with pytest.raises(InputFormatError, match=f"^parses.conllu: line 3: {message}"):
            read_conllu(data, source="parses.conllu")

    def test_head_outside_sentence_is_an_error(self):
        data = "# story_id = s\n1\tword\tword\tNOUN\t_\t_\t9\tdep\t_\t_\n"
        with pytest.raises(InputFormatError, match="HEAD"):
            read_conllu(data)

    def test_head_cycle_names_the_block(self):
        data = (
            "# story_id = s\n"
            "1\tcat\tcat\tNOUN\t_\t_\t0\troot\t_\t_\n"
            "2\tdog\tdog\tNOUN\t_\t_\t3\tdep\t_\t_\n"
            "3\tsun\tsun\tNOUN\t_\t_\t2\tdep\t_\t_\n"
        )
        message = "sentence 1: the head chain from token 2 returns to token 2"
        with pytest.raises(InputFormatError, match=f"^parses.conllu: line 2: {message}"):
            read_conllu(data, source="parses.conllu")

    def test_roundtrip_through_writer(self):
        parsed = read_conllu(TWO_STORY_CONLLU)
        again = read_conllu(write_conllu(parsed))
        assert set(again) == set(parsed)
        for sid in parsed:
            for s1, s2 in zip(parsed[sid], again[sid]):
                for t1, t2 in zip(s1, s2):
                    assert (t1.lemma, t1.upos, t1.head_index, t1.deprel) == (
                        t2.lemma,
                        t2.upos,
                        t2.head_index,
                        t2.deprel,
                    )


class TestStory:
    def test_mean_rating_computed(self):
        story = Story("s", ("a", "b", "c"), "text", (), {"r1": 2, "r2": 3})
        assert story.mean_rating == pytest.approx(2.5, abs=1e-12)

    def test_rating_range_enforced(self):
        with pytest.raises(ValueError):
            Story("s", ("a", "b", "c"), "", (), {"r1": 6})

    def test_exactly_three_prompts(self):
        with pytest.raises(ValueError):
            Story("s", ("a", "b"), "", (), {"r1": 3})

    @pytest.mark.parametrize(
        "story_id, prompts",
        [("a/b", ("a", "b", "c")), ("a__b", ("a", "b", "c")), ("s", ("a", "", "c"))],
    )
    def test_unsafe_id_and_empty_prompt_refused(self, story_id, prompts):
        with pytest.raises(ValueError):
            Story(story_id, prompts, "", (), {"r1": 3})

    def test_json_roundtrip(self, demo_story):
        again = textpipe.story_from_json(textpipe.story_to_json(demo_story))
        assert again == demo_story

    @pytest.mark.parametrize(
        "heads, message",
        [
            ([1, 0, None], "the head chain from token 1 returns to token 1"),
            ([None, 2, 3, 1], "the head chain from token 2 returns to token 2"),
            ([None, 3, None], "the head of token 2 lies outside it"),
            ([None, -1], "the head of token 2 lies outside it"),
        ],
        ids=["two-cycle", "three-cycle", "past-the-end", "negative"],
    )
    def test_heads_must_form_a_forest(self, heads, message):
        sentences = (
            make_sentence(["walk"]),
            tuple(make_token(f"w{chr(97 + i)}", i, 1, head=h) for i, h in enumerate(heads)),
        )
        with pytest.raises(ValueError, match=f"^sentence 2: {message}$"):
            Story("s", ("a", "b", "c"), "", sentences, {"r1": 3})

    def test_forest_of_several_roots_is_accepted(self):
        heads = [1, None, 1, None, 3, 4]
        sentence = tuple(make_token(f"w{chr(97 + i)}", i, head=h) for i, h in enumerate(heads))
        assert Story("s", ("a", "b", "c"), "", (sentence,), {"r1": 3}).sentences == (sentence,)


class TestTreeNeighbourhoods:
    # two trees: 0 <- 1 -> 2 -> 3, and 4 -> 5
    SENTENCE = tuple(
        make_token(f"w{chr(97 + i)}", i, head=h) for i, h in enumerate([1, None, 1, 2, 5, None])
    )

    def test_hops_over_all_tokens_within_each_tree(self):
        near = list(textpipe.tree_neighbourhoods(self.SENTENCE, [0, 3, 4], 2))
        assert near == [{0, 1, 2}, {1, 2, 3}, {4, 5}]

    def test_radius_bounds_the_hops(self):
        assert list(textpipe.tree_neighbourhoods(self.SENTENCE, [0], 1)) == [{0, 1}]
        assert list(textpipe.tree_neighbourhoods(self.SENTENCE, [0], 3)) == [{0, 1, 2, 3}]


class TestLevenshtein:
    def test_hand_values(self):
        assert levenshtein("sing", "song") == 1
        assert levenshtein("pump", "pumps") == 1
        assert levenshtein("exist", "exits") == 2
        assert levenshtein("", "abc") == 3
        assert levenshtein("kitten", "sitting") == 3


def _story_from_words(words, prompts):
    return Story(
        id="s",
        prompt_lemmas=prompts,
        text=" ".join(words),
        sentences=(make_sentence(words),),
        ratings={"r": 3},
    )


class TestMatchPrompts:
    def test_demo_story_prompts_all_match(self, demo_story):
        matches = match_prompts(demo_story)
        assert all(m.matched for m in matches)
        assert [m.matched_node for m in matches] == ["gloom", "payment", "exist"]

    def test_distance_two_is_unmatched(self):
        story = _story_from_words(["exits", "everywhere"], ("exist", "exits", "everywhere"))
        matches = match_prompts(story)
        # "exist" vs "exits" needs two edits, so only the exact prompts match
        assert [m.matched for m in matches] == [False, True, True]

    def test_distance_one_surface_variant_matches(self):
        story = _story_from_words(["pumps", "hiss"], ("pump", "hiss", "hiss"))
        match = match_prompts(story)[0]
        assert match.matched and match.matched_node == "pumps"

    def test_exact_lemma_beats_earlier_near_miss(self):
        story = _story_from_words(
            ["better", "letter", "seek", "week"], ("letter", "week", "seek")
        )
        assert [m.matched_node for m in match_prompts(story)] == ["letter", "week", "seek"]

    def test_first_matching_token_wins(self):
        story = _story_from_words(["gleam", "gloom"], ("gloom", "gleam", "gleam"))
        assert match_prompts(story)[0].matched_node == "gloom"


class TestTableReaders:
    """The lemma table and the stories CSV name the file and line or row of a bad input."""

    def test_lemma_table_cell_count(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text("Children\tChild\n\nran\trun\textra\n", encoding="utf-8")
        with pytest.raises(
            InputFormatError,
            match=f"^{re.escape(str(path))}: line 3: expected 2 tab-separated columns, got 3",
        ):
            textpipe.load_lemma_table(path)
        path.write_text("Children\tChild\n\nran\t run \n", encoding="utf-8")
        assert textpipe.load_lemma_table(path) == {"children": "child", "ran": "run"}

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s2,cat,dog,sun,Cat.", "expected 6 cells, got 5"),
            ("s1,cat,dog,sun,Cat.,4", "duplicate story id 's1'"),
            ("s2,cat,dog,sun,Cat.,3.5", "rating '3.5' is not an integer"),
            ("s2,cat,dog,sun,Cat.,6", r"rating 6 by 'R' outside \[1, 5\]"),
            ("s2,cat,dog,sun,Cat., ", "a story needs at least one rating"),
        ],
        ids=["cell-count", "duplicate-id", "non-integer", "out-of-range", "no-ratings"],
    )
    def test_stories_csv_row_names_file_and_row(self, tmp_path, row, message):
        path = tmp_path / "stories.csv"
        header = "id,prompt1,prompt2,prompt3,text,R"
        path.write_text(f"{header}\ns1,cat,dog,sun,Cat.,3\n{row}\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}: row 3: {message}"):
            textpipe.read_stories_csv(path, {}, set(), set())

    @pytest.mark.parametrize("raters", ["R,R", "R,", "R, R "], ids=["repeated", "empty", "spaced"])
    def test_rater_headers_must_be_non_empty_and_unique(self, tmp_path, raters):
        path = tmp_path / "stories.csv"
        path.write_text(f"id,prompt1,prompt2,prompt3,text,{raters}\ns1,cat,dog,sun,Cat.,1,5\n",
                        encoding="utf-8")
        with pytest.raises(
            InputFormatError,
            match=f"^{re.escape(str(path))}: row 1: rater headers must be non-empty and unique",
        ):
            textpipe.read_stories_csv(path, {}, set(), set())
