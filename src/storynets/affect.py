"""Lexicon-based emotion profiling of story texts.

Counts of tokens carrying each of the eight Plutchik emotions are
compared against a null model that samples words at random from the
lexicon, yielding a binomial z-score per emotion; |z| > 1.96 marks over-
or under-representation.  Negated tokens count toward the opposite
emotion on the Plutchik wheel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InputFormatError
from .textpipe import open_text, read_tsv, tree_neighbourhoods

PLUTCHIK_EMOTIONS = (
    "joy",
    "trust",
    "fear",
    "surprise",
    "sadness",
    "disgust",
    "anger",
    "anticipation",
)

PLUTCHIK_OPPOSITE = {
    "joy": "sadness",
    "sadness": "joy",
    "trust": "disgust",
    "disgust": "trust",
    "fear": "anger",
    "anger": "fear",
    "anticipation": "surprise",
    "surprise": "anticipation",
}

VALENCE_LABELS = ("positive", "negative")

_LABELS = PLUTCHIK_EMOTIONS + VALENCE_LABELS

SIGNIFICANCE_Z = 1.96

NEGATION_CUES = frozenset({"not", "never", "no", "n't", "nor", "neither"})


@dataclass(frozen=True)
class EmotionLexicon:
    """Word -> label associations plus per-label base rates.

    `vocabulary` covers every word seen in the source file (including
    all-zero rows), which is also the population the null model samples
    from; `entries` maps only words that carry at least one label.
    """

    entries: dict[str, frozenset[str]]
    vocabulary: frozenset[str]
    priors: dict[str, float]

    @cached_property
    def positive_words(self):
        return self._valence_set("positive")

    @cached_property
    def negative_words(self):
        return self._valence_set("negative")

    def _valence_set(self, label):
        return frozenset(w for w, labels in self.entries.items() if label in labels)

    def labels(self, lemma):
        return self.entries.get(lemma, frozenset())


def _association(word, label, flag):
    """One lexicon row as (word, label, flagged)."""
    label = label.lower()
    if label not in _LABELS:
        raise ValueError(f"unknown label {label!r}")
    if flag not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {flag!r}")
    return word.lower(), label, flag == "1"


def load_lexicon(text, source="lexicon"):
    """Parse EmoLex-style TSV text: word<TAB>label<TAB>flag(0|1) per row;
    errors name `source` and the line."""
    entries: dict[str, set[str]] = {}
    vocabulary = set()
    for word, label, flagged in read_tsv(text.splitlines(), 3, source, _association):
        vocabulary.add(word)
        if flagged:
            entries.setdefault(word, set()).add(label)
    if not entries:
        raise InputFormatError(f"{source} carries no flagged associations; unusable")
    priors = {
        label: sum(1 for labels in entries.values() if label in labels) / len(vocabulary)
        for label in _LABELS
    }
    return EmotionLexicon(
        entries={w: frozenset(ls) for w, ls in entries.items()},
        vocabulary=frozenset(vocabulary),
        priors=priors,
    )


def load_lexicon_file(path):
    return load_lexicon(open_text(path).read(), source=path)


def detect_negations(sentence):
    """Indices of tokens whose emotion labels must flip.

    With dependency labels present, a token is negated when a cue is its
    direct dependent or a sibling under the same head.  With bare heads
    the rule is tree distance <= 2 from a cue; without any parse it falls
    back to linear distance <= 2.  Cue tokens themselves never flip.
    """
    cue_positions = [
        t.token_index
        for t in sentence
        if t.lemma in NEGATION_CUES or t.surface.lower() in NEGATION_CUES
    ]
    if not cue_positions:
        return set()
    cue_set = set(cue_positions)
    has_heads = any(t.head_index is not None for t in sentence)
    has_deprels = any(t.deprel is not None for t in sentence)
    negated = set()
    if has_heads and has_deprels:
        heads = {t.token_index: t.head_index for t in sentence}
        for tok in sentence:
            if tok.token_index in cue_set:
                continue
            for c in cue_positions:
                if heads[c] == tok.token_index:
                    negated.add(tok.token_index)
                elif heads[c] is not None and heads[c] == tok.head_index:
                    negated.add(tok.token_index)
    elif has_heads:
        for near in tree_neighbourhoods(sentence, cue_positions, 2):
            negated.update(near - cue_set)
    else:
        for tok in sentence:
            if tok.token_index in cue_set:
                continue
            if any(abs(tok.token_index - c) <= 2 for c in cue_positions):
                negated.add(tok.token_index)
    return negated


def negation_marked_lemmas(sentences):
    """(lemma, negated) stream over all alphabetic tokens of a story."""
    marked = []
    for sent in sentences:
        negated = detect_negations(sent)
        for tok in sent:
            if tok.lemma.isalpha():
                marked.append((tok.lemma, tok.token_index in negated))
    return marked


def emotion_counts(marked_lemmas, lexicon):
    """Observed emotion frequencies over lexicon-matched tokens.

    Returns (counts, m) where m is the number of matched tokens.  Each
    matched token increments every Plutchik emotion it carries, or the
    wheel opposite when the token is negated.
    """
    counts = {emotion: 0 for emotion in PLUTCHIK_EMOTIONS}
    m = 0
    for lemma, negated in marked_lemmas:
        if lemma not in lexicon.vocabulary:
            continue
        m += 1
        for label in lexicon.labels(lemma):
            if label not in PLUTCHIK_OPPOSITE:
                continue
            counts[PLUTCHIK_OPPOSITE[label] if negated else label] += 1
    return counts, m


def emotion_zscores(counts, m, lexicon):
    """{emotion: binomial z}, z = (k - m*p) / sqrt(m*p*(1-p)).

    Degenerate cases (no matched tokens, or a prior of 0 or 1) score 0, so
    every emotion has a z.
    """
    if m < 0:
        raise ValueError("matched token count cannot be negative")
    z = {}
    for emotion in PLUTCHIK_EMOTIONS:
        p = lexicon.priors.get(emotion, 0.0)
        if m == 0 or p <= 0.0 or p >= 1.0:
            z[emotion] = 0.0
            continue
        k = counts.get(emotion, 0)
        z[emotion] = (k - m * p) / math.sqrt(m * p * (1.0 - p))
    return z


def profile_story(sentences, lexicon):
    """{emotion: z} of a story's sentences."""
    marked = negation_marked_lemmas(sentences)
    counts, m = emotion_counts(marked, lexicon)
    return emotion_zscores(counts, m, lexicon)


def _flag(z):
    if z > SIGNIFICANCE_Z:
        return "over"
    return "under" if z < -SIGNIFICANCE_Z else "none"


def emotion_rows(zscores_by_story):
    """Header, then story_id, eight z columns and eight over/under flags per story."""
    yield (
        "story_id",
        *(f"z_{e}" for e in PLUTCHIK_EMOTIONS),
        *(f"{e}_flag" for e in PLUTCHIK_EMOTIONS),
    )
    for story_id, z in zscores_by_story.items():
        yield (
            story_id,
            *(float(z[e]) for e in PLUTCHIK_EMOTIONS),
            *(_flag(z[e]) for e in PLUTCHIK_EMOTIONS),
        )
