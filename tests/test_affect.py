import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storynets.affect import (
    PLUTCHIK_EMOTIONS,
    PLUTCHIK_OPPOSITE,
    detect_negations,
    emotion_counts,
    emotion_zscores,
    emotion_rows,
    load_lexicon,
    profile_story,
)
from storynets.errors import InputFormatError, ParseIntegrityError

from conftest import LEXICON_TSV, make_token


class TestLoadLexicon:
    def test_empty_file_is_unusable(self):
        with pytest.raises(InputFormatError):
            load_lexicon("")

    def test_all_zero_flags_unusable(self):
        with pytest.raises(InputFormatError):
            load_lexicon("cat\tjoy\t0\ndog\tfear\t0\n")

    def test_priors_over_distinct_words(self):
        rows = []
        for i in range(10):
            flag = 1 if i < 5 else 0
            rows.append(f"w{i}\tjoy\t{flag}")
        lex = load_lexicon("\n".join(rows))
        assert lex.priors["joy"] == pytest.approx(0.5)
        assert len(lex.vocabulary) == 10
        assert len(lex.entries) == 5

    def test_multi_label_word(self):
        lex = load_lexicon(LEXICON_TSV)
        assert lex.labels("happy") == {"joy", "positive"}
        assert "table" in lex.vocabulary and "table" not in lex.entries

    def test_malformed_row_names_line(self):
        with pytest.raises(InputFormatError, match="line 2"):
            load_lexicon("ok\tjoy\t1\nbroken row\n")

    def test_bad_flag_rejected(self):
        with pytest.raises(InputFormatError, match="flag"):
            load_lexicon("cat\tjoy\t2\n")

    def test_valence_sets_built_once(self):
        lex = load_lexicon(LEXICON_TSV)
        assert lex.positive_words is lex.positive_words
        assert lex.negative_words is lex.negative_words
        assert lex.positive_words == {w for w, ls in lex.entries.items() if "positive" in ls}
        assert {"grim", "sad", "gloom"} <= lex.negative_words
        assert not lex.positive_words & lex.negative_words


def parsed_sentence(specs):
    """specs: list of (lemma, head or None, deprel or None)."""
    return tuple(
        make_token(lemma, i, upos="X", head=head, deprel=deprel)
        for i, (lemma, head, deprel) in enumerate(specs)
    )


class TestDetectNegations:
    def test_not_angry(self):
        sent = parsed_sentence([("not", 1, "advmod"), ("angry", None, "root")])
        assert detect_negations(sent) == {1}

    def test_no_cue_no_negation(self):
        sent = parsed_sentence([("very", 1, "advmod"), ("angry", None, "root")])
        assert detect_negations(sent) == set()

    def test_sibling_under_same_head(self):
        # "never said he was sad": never and sad both attach to said
        sent = parsed_sentence(
            [
                ("never", 1, "advmod"),
                ("say", None, "root"),
                ("he", 4, "nsubj"),
                ("be", 4, "cop"),
                ("sad", 1, "ccomp"),
            ]
        )
        assert detect_negations(sent) == {1, 4}  # "said" (child cue) and "sad" (sibling)

    def test_tree_distance_two_without_deprels(self):
        # same parse shape, deprel column absent: the two-hop rule applies
        sent = parsed_sentence(
            [
                ("never", 1, None),
                ("say", None, None),
                ("he", 4, None),
                ("be", 4, None),
                ("sad", 1, None),
            ]
        )
        negated = detect_negations(sent)
        assert 4 in negated  # never -> say -> sad is two hops
        assert 2 not in negated and 3 not in negated  # three hops away

    def test_linear_window_without_parse(self):
        sent = parsed_sentence(
            [("not", None, None), ("very", None, None), ("angry", None, None),
             ("today", None, None), ("maybe", None, None)]
        )
        negated = detect_negations(sent)
        assert negated == {1, 2}  # within two positions of the cue

    def test_cue_never_negates_itself(self):
        sent = parsed_sentence([("not", 1, "advmod"), ("never", None, "root")])
        assert 0 not in detect_negations(sent)

    def test_cyclic_heads_without_deprels_rejected(self):
        # the two-hop rule walks the same tree as the TFMN builder, so a
        # head cycle is bad input here too
        sent = parsed_sentence([("not", 2, None), ("angry", 0, None), ("be", 1, None)])
        with pytest.raises(ParseIntegrityError):
            detect_negations(sent)


class TestEmotionCounts:
    def test_plain_counts(self, demo_lexicon):
        counts, m = emotion_counts([("happy", False), ("grim", False)], demo_lexicon)
        assert counts["joy"] == 1 and counts["sadness"] == 1
        assert m == 2

    def test_negated_token_moves_to_opposite(self, demo_lexicon):
        counts, m = emotion_counts([("happy", True)], demo_lexicon)
        assert counts["sadness"] == 1 and counts["joy"] == 0
        assert m == 1

    def test_out_of_lexicon_tokens(self, demo_lexicon):
        counts, m = emotion_counts([("xylophone", False)], demo_lexicon)
        assert m == 0 and all(v == 0 for v in counts.values())

    def test_vocabulary_only_word_counts_toward_m(self, demo_lexicon):
        counts, m = emotion_counts([("table", False)], demo_lexicon)
        assert m == 1 and all(v == 0 for v in counts.values())

    @given(st.sampled_from(sorted(PLUTCHIK_EMOTIONS)))
    def test_negation_flip_moves_exactly_one_count(self, emotion):
        lex = load_lexicon(f"word\t{emotion}\t1\nother\tjoy\t1\n")
        plain, _ = emotion_counts([("word", False)], lex)
        flipped, _ = emotion_counts([("word", True)], lex)
        moved = {e for e in PLUTCHIK_EMOTIONS if plain[e] != flipped[e]}
        assert moved == {emotion, PLUTCHIK_OPPOSITE[emotion]}
        assert sum(plain.values()) == sum(flipped.values()) == 1


class TestZScores:
    def test_null_expectation_is_zero(self, demo_lexicon):
        p = demo_lexicon.priors["joy"]
        m = 20
        k = m * p
        profile = emotion_zscores({"joy": k}, m, demo_lexicon)
        assert profile.z["joy"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_fixture(self):
        # m=8, p=0.25, k=6 -> (6-2)/sqrt(8*0.25*0.75) = 3.266
        rows = [f"w{i}\tjoy\t{1 if i < 1 else 0}" for i in range(4)]
        lex = load_lexicon("\n".join(rows))
        assert lex.priors["joy"] == pytest.approx(0.25)
        profile = emotion_zscores({"joy": 6}, 8, lex)
        assert profile.z["joy"] == pytest.approx(4 / math.sqrt(1.5), abs=1e-3)
        assert profile.z["joy"] == pytest.approx(3.266, abs=1e-3)

    def test_degenerate_denominators_are_zero(self, demo_lexicon):
        profile = emotion_zscores({}, 0, demo_lexicon)
        assert all(v == 0.0 for v in profile.z.values())
        lex_all = load_lexicon("a\tjoy\t1\nb\tjoy\t1\n")  # p_joy = 1
        profile = emotion_zscores({"joy": 2}, 2, lex_all)
        assert profile.z["joy"] == 0.0

    def test_over_under_flags_exclusive(self, demo_lexicon):
        for k in range(0, 18, 3):
            profile = emotion_zscores({"joy": k}, 18, demo_lexicon)
            for emotion in PLUTCHIK_EMOTIONS:
                assert not (
                    profile.over_represented(emotion) and profile.under_represented(emotion)
                )

    def test_doubling_tokens_scales_z_by_sqrt2(self, demo_lexicon):
        stream = [("happy", False), ("happy", False), ("grim", False), ("table", False)]
        c1, m1 = emotion_counts(stream, demo_lexicon)
        c2, m2 = emotion_counts(stream * 2, demo_lexicon)
        z1 = emotion_zscores(c1, m1, demo_lexicon).z
        z2 = emotion_zscores(c2, m2, demo_lexicon).z
        for emotion in PLUTCHIK_EMOTIONS:
            assert z2[emotion] == pytest.approx(z1[emotion] * math.sqrt(2), abs=1e-9)
            if abs(z1[emotion]) > 0:
                assert abs(z2[emotion]) > abs(z1[emotion])


class TestProfileAndExport:
    def test_profile_story_end_to_end(self, demo_story, demo_lexicon):
        profile = profile_story(demo_story.sentences, demo_lexicon)
        assert profile.m >= 1  # "gloom" is in the lexicon
        assert set(profile.z) == set(PLUTCHIK_EMOTIONS)

    def test_csv_columns(self, demo_story, demo_lexicon):
        profile = profile_story(demo_story.sentences, demo_lexicon)
        lines = list(emotion_rows({"demo1": profile}))
        header = lines[0]
        assert header[0] == "story_id"
        assert len(header) == 1 + 8 + 8
        assert len(lines) == 2
        assert all(type(z) is float for z in lines[1][1:9])
