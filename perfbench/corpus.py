"""Seeded story-corpus generator for the `networks` and `long-stories` workloads.

Writes a stories CSV, a CoNLL-U file with random projective parses and mixed
UPOS, an EmoLex-style lexicon and `planted.json`, which lists every planted
case the output checks rely on.  Nothing is downloaded: the vocabulary is a
fixed list of pseudo-words, drawn with Zipfian frequencies.

Two stories per corpus, the *fault block*, do not depend on the seed.  They
carry the inputs that trigger the two known faults counted by the benchmark
(`us`/`mine` in pronoun-free networks, a near-miss word ahead of a prompt).
Seeded stories never contain those words, so the number of failed operations
is the same for every seed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spec

PLUTCHIK = ("joy", "trust", "fear", "surprise", "sadness", "disgust", "anger", "anticipation")
POSITIVE = frozenset({"joy", "trust", "surprise", "anticipation"})
LEXICON_LABELS = tuple(sorted(PLUTCHIK + ("positive", "negative")))

PROMPT_TRIADS = (
    ("belief", "faith", "sing"),
    ("gloom", "payment", "exist"),
    ("organ", "empire", "comply"),
    ("petrol", "diesel", "pump"),
    ("statement", "stealth", "detect"),
    ("harbor", "violin", "gather"),
)

# The fault block: (prompts, near-miss word, the prompt it shadows, pronoun).
FAULT_STORIES = (
    (("stamp", "letter", "send"), "better", "letter", "us"),
    (("year", "week", "embark"), "seek", "week", "mine"),
)
FAULT_SEED = 20260117
LEAKING_PRONOUNS = frozenset(p for *_, p in FAULT_STORIES)
NEAR_MISS_WORDS = frozenset(w for _, w, _, _ in FAULT_STORIES)

FUNCTION_WORDS = (
    "the", "a", "of", "to", "and", "in", "with", "on", "at", "for",
    "was", "is", "by", "from", "as", "but", "an", "then", "into", "over",
)
NEGATION_CUES = ("not", "never", "no")
CONTENT_UPOS = ("NOUN", "VERB", "ADJ", "ADV", "PROPN")
CONTENT_UPOS_P = (0.47, 0.26, 0.15, 0.07, 0.05)
NONCONTENT_UPOS = ("X", "INTJ")  # content lemmas the TFMN builder skips
DEPRELS = ("nsubj", "obj", "amod", "det", "case", "obl", "advmod", "conj", "dep")
RATERS = ("H", "J", "K", "N")

VOCAB_SIZE = 2400
ZIPF_SHIFT = 2.7


@dataclass(frozen=True)
class CorpusShape:
    """Make-up of one generated corpus; every share is an exact count."""

    n_stories: int
    sentences: tuple[int, int]  # inclusive range per story
    content_tokens: tuple[int, int]  # inclusive range per sentence
    missing_prompt_share: float
    isolated_prompt_share: float

    def n_missing(self):
        return int(round(self.missing_prompt_share * self.n_stories))

    def n_isolated(self):
        return int(round(self.isolated_prompt_share * self.n_stories))


NETWORKS_SHAPE = CorpusShape(
    n_stories=20,
    sentences=(5, 8),
    content_tokens=(5, 8),
    missing_prompt_share=0.04,
    isolated_prompt_share=0.10,
)

LONG_SHAPE = CorpusShape(
    n_stories=2,
    sentences=(25, 40),
    content_tokens=(6, 9),
    missing_prompt_share=0.0,
    isolated_prompt_share=0.5,
)


def word_lists(repo_root):
    """The bundled stop-word and pronoun lists of the checkout under test."""
    data = Path(repo_root) / "src" / "storynets" / "data"
    return tuple(
        frozenset(w.strip().lower() for w in (data / name).read_text("utf-8").splitlines() if w.strip())
        for name in ("stopwords.txt", "pronouns.txt")
    )


def _deletions(word):
    return {word[:i] + word[i + 1 :] for i in range(len(word))}


def _near(words):
    """Every string within one deletion of `words`: a conservative edit-distance-1 screen."""
    out = set(words)
    for w in words:
        out |= _deletions(w)
    return out


def pseudo_vocabulary(forbidden):
    """VOCAB_SIZE pseudo-words, none within edit distance 1 of a forbidden word.

    The list does not depend on the workload seed; a word sits at Zipf rank
    equal to its position.
    """
    screen = _near(forbidden)
    rng = np.random.default_rng(1729)
    consonants = list("bdfgklmnprstvz")
    vowels = list("aeiou")
    syllables = [c + v for c in consonants for v in vowels]
    words = []
    seen = set()
    while len(words) < VOCAB_SIZE:
        n_syll = 2 if rng.random() < 0.55 else 3
        word = "".join(syllables[i] for i in rng.integers(0, len(syllables), size=n_syll))
        if rng.random() < 0.3:
            word += consonants[int(rng.integers(0, len(consonants)))]
        if word in seen or word in screen or _deletions(word) & screen:
            continue
        seen.add(word)
        words.append(word)
    return tuple(words)


class CorpusGenerator:
    """Builds corpora for one checkout; the word lists come from its data files."""

    def __init__(self, repo_root):
        self.stopwords, self.pronouns = word_lists(repo_root)
        prompts = {p for triad in PROMPT_TRIADS for p in triad}
        fault_prompts = {p for triad, *_ in FAULT_STORIES for p in triad}
        all_prompts = prompts | fault_prompts
        for word in set(FUNCTION_WORDS) | set(NEGATION_CUES) | self.pronouns:
            for p in all_prompts:
                if _deletions(word) & _near({p}) or word in _near({p}):
                    raise ValueError(f"function word {word!r} is too close to prompt {p!r}")
        self.vocab = pseudo_vocabulary(
            all_prompts | NEAR_MISS_WORDS | self.stopwords | self.pronouns | set(NEGATION_CUES)
        )
        ranks = np.arange(1, VOCAB_SIZE + 1, dtype=float)
        weights = 1.0 / (ranks + ZIPF_SHIFT)
        self.zipf_cdf = np.cumsum(weights / weights.sum())
        self.seeded_pronouns = tuple(sorted(self.pronouns - LEAKING_PRONOUNS))

    # -- one story -----------------------------------------------------------

    def _sentence(self, rng, n_content):
        """[(word, upos)] for one sentence, without its full stop."""
        toks = []
        ranks = np.searchsorted(self.zipf_cdf, rng.random(n_content) * self.zipf_cdf[-1], side="right")
        for word in (self.vocab[int(k)] for k in ranks):
            r = rng.random()
            if r < 0.05:
                toks.append((NEGATION_CUES[int(rng.integers(0, 3))], "PART"))
            elif r < 0.20:
                toks.append((self.seeded_pronouns[int(rng.integers(0, len(self.seeded_pronouns)))], "PRON"))
            if rng.random() < 0.07:
                upos = NONCONTENT_UPOS[int(rng.integers(0, 2))]
            else:
                upos = CONTENT_UPOS[int(rng.choice(len(CONTENT_UPOS), p=CONTENT_UPOS_P))]
            toks.append((word, upos))
            if rng.random() < 0.55:
                toks.append((FUNCTION_WORDS[int(rng.integers(0, len(FUNCTION_WORDS)))], "DET"))
        return toks

    def _story(self, rng, shape, prompts, plant=None):
        """Parsed sentences [(tokens, heads, deprels)] holding each prompt once."""
        n_sent = int(rng.integers(shape.sentences[0], shape.sentences[1] + 1))
        sents = [
            self._sentence(rng, int(rng.integers(shape.content_tokens[0], shape.content_tokens[1] + 1)))
            for _ in range(n_sent)
        ]
        for k, prompt in enumerate(prompts):
            # a shadowed prompt goes to the last sentence, behind its near-miss
            si = n_sent - 1 if plant and plant[1] == prompt else int(rng.integers(0, n_sent))
            pos = int(rng.integers(0, len(sents[si]) + 1))
            sents[si].insert(pos, (prompt, "NOUN" if k != 2 else "VERB"))
        if plant:
            near_miss, _shadowed, pronoun = plant
            sents[0].insert(0, (near_miss, "ADJ"))
            sents[1].append((pronoun, "PRON"))
        parsed = []
        for toks in sents:
            toks = toks + [(".", "PUNCT")]
            heads = _projective_heads(rng, len(toks))
            deprels = [_deprel(rng, upos, head) for (_, upos), head in zip(toks, heads)]
            parsed.append((toks, heads, deprels))
        return parsed

    def _cost(self, parsed, prompts):
        sentences = [
            [
                {"lemma": w, "surface": w, "upos": upos, "head": head,
                 "stop": w in self.stopwords, "pron": w in self.pronouns}
                for (w, upos), head in zip(toks, heads)
            ]
            for toks, heads, _ in parsed
        ]
        return spec.activation_cost(sentences, prompts)

    def _replace_prompt(self, rng, parsed, prompt, upos=None):
        """Swap the prompt for a plain word (upos None) or relabel its UPOS."""
        for toks, _, _ in parsed:
            for j, (w, u) in enumerate(toks):
                if w == prompt:
                    toks[j] = (w, upos) if upos else (self.vocab[int(rng.integers(0, 200))], u)

    def generate(self, seed, shape, out_dir, candidates=5):
        """Write the corpus files for `seed` into `out_dir`; returns the planted facts.

        Stories are stratified by predicted activation cost: `candidates`
        stories are drawn per slot, sorted by cost, and the middle one of each
        consecutive group is kept.  The corpus keeps the cost distribution's
        shape while its total varies far less from seed to seed.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        n = shape.n_stories
        pool = []
        for _ in range(n * candidates):
            prompts = PROMPT_TRIADS[int(rng.integers(0, len(PROMPT_TRIADS)))]
            parsed = self._story(rng, shape, prompts)
            pool.append((self._cost(parsed, prompts), prompts, parsed))
        pool.sort(key=lambda c: c[0])
        chosen = [pool[i * candidates + candidates // 2] for i in rng.permutation(n)]

        stories = []  # (id, prompts, parsed sentences, ratings)
        planted = {"missing": {}, "isolated": {}, "near_miss": {}, "leaking_pronoun": {}}
        fault_rng = np.random.default_rng(FAULT_SEED)
        for i, (prompts, near_miss, shadowed, pronoun) in enumerate(FAULT_STORIES):
            sid = f"fault{i}"
            parsed = self._story(fault_rng, shape, prompts, plant=(near_miss, shadowed, pronoun))
            stories.append((sid, prompts, parsed, _ratings(fault_rng, parsed)))
            planted["near_miss"][sid] = [shadowed, near_miss]
            planted["leaking_pronoun"][sid] = pronoun
        n_missing, n_isolated = shape.n_missing(), shape.n_isolated()
        for i, (_cost, prompts, parsed) in enumerate(chosen):
            sid = f"s{seed % 100000:05d}x{i:04d}"
            if i < n_missing + n_isolated:
                k = int(rng.integers(0, 3))
                if i < n_missing:
                    self._replace_prompt(rng, parsed, prompts[k])
                    planted["missing"][sid] = prompts[k]
                else:
                    self._replace_prompt(rng, parsed, prompts[k], upos=NONCONTENT_UPOS[0])
                    planted["isolated"][sid] = prompts[k]
            stories.append((sid, prompts, parsed, _ratings(rng, parsed)))

        _write_stories_csv(out_dir / "stories.csv", stories)
        (out_dir / "stories.conllu").write_text(_conllu(stories), encoding="utf-8")
        (out_dir / "lexicon.tsv").write_text(self._lexicon(rng), encoding="utf-8")
        planted["story_ids"] = [s[0] for s in stories]
        (out_dir / "planted.json").write_text(
            json.dumps(planted, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        return planted

    def _lexicon(self, rng):
        """EmoLex-style rows: every label of every listed word, flag 0 or 1."""
        listed = sorted(rng.choice(self.vocab[:1200], size=700, replace=False).tolist())
        out = io.StringIO()
        for word in listed:
            flagged = set()
            if rng.random() < 0.35:
                k = 1 + int(rng.random() < 0.35)
                emotions = rng.choice(PLUTCHIK, size=k, replace=False).tolist()
                flagged.update(emotions)
                flagged.add("positive" if emotions[0] in POSITIVE else "negative")
            for label in LEXICON_LABELS:
                out.write(f"{word}\t{label}\t{int(label in flagged)}\n")
        return out.getvalue()


def _projective_heads(rng, n):
    """0-based head per token (None for the root) of a random projective tree."""
    heads = [None] * n
    stack = [(0, n, None)]
    while stack:
        lo, hi, head = stack.pop()
        if lo >= hi:
            continue
        r = int(rng.integers(lo, hi))
        heads[r] = head
        stack.append((lo, r, r))
        stack.append((r + 1, hi, r))
    return heads


def _ratings(rng, parsed):
    """Four raters, driven by the story's distinct-word count plus noise."""
    distinct = len({w for toks, _, _ in parsed for w, upos in toks if upos != "PUNCT"})
    base = 1.5 + 3.0 * min(1.0, distinct / 60.0)
    return [int(min(5, max(1, round(base + rng.normal(scale=0.7))))) for _ in RATERS]


def _write_stories_csv(path, stories):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "prompt1", "prompt2", "prompt3", "text", *RATERS])
        for sid, prompts, parsed, ratings in stories:
            text = " ".join(
                " ".join(w for w, upos in toks if upos != "PUNCT").capitalize() + "."
                for toks, _, _ in parsed
            )
            writer.writerow([sid, *prompts, text, *map(str, ratings)])


def _deprel(rng, upos, head):
    if head is None:
        return "root"
    if upos == "PART":
        return "advmod"
    if upos == "PUNCT":
        return "punct"
    return DEPRELS[int(rng.integers(0, len(DEPRELS)))]


def _conllu(stories):
    out = io.StringIO()
    for sid, _prompts, parsed, _ratings in stories:
        for toks, heads, deprels in parsed:
            out.write(f"# story_id = {sid}\n")
            for i, ((word, upos), head, deprel) in enumerate(zip(toks, heads, deprels), start=1):
                surface = word.capitalize() if i == 1 else word
                h = 0 if head is None else head + 1
                out.write(f"{i}\t{surface}\t{word}\t{upos}\t_\t_\t{h}\t{deprel}\t_\t_\n")
            out.write("\n")
    return out.getvalue()
