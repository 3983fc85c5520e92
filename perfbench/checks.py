"""Independent checks of the program's artefacts (numpy and scipy only).

Each stage is checked from its own input artefact, so one fault fails only
that stage's check.  A check returns a `Tally`: operations attempted,
operations failed by one of the two counted faults, and `errors`, which
lists every other mismatch.  A run is correct when no check has errors.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats as sstats

import spec

PLUTCHIK = ("joy", "trust", "fear", "surprise", "sadness", "disgust", "anger", "anticipation")
OPPOSITE = {
    "joy": "sadness", "sadness": "joy", "trust": "disgust", "disgust": "trust",
    "fear": "anger", "anger": "fear", "anticipation": "surprise", "surprise": "anticipation",
}
NEGATION_CUES = frozenset({"not", "never", "no", "n't", "nor", "neither"})
STRUCTURAL = (
    "n_nodes", "n_edges", "density", "avg_local_clustering",
    "aspl_lcc", "diameter_lcc", "pagerank_centralisation",
)
TRACE_EXPORT_STEPS = 100
ALPHA_RTOL = 1e-4  # the diffusion stops at a 1e-9 step change, not at the limit


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def error(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)
        else:
            self.errors[-1] = "... more errors"

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        for message in other.errors:
            self.error(message)
        return self


def _close(a, b, rtol=1e-9, atol=1e-12):
    return abs(a - b) <= atol + rtol * abs(b)


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- preprocess ---------------------------------------------------------------


def read_conllu_tokens(path):
    """{story_id: [[(surface, lemma, upos, head0)]]} from the generated CoNLL-U."""
    stories = {}
    sid, sent = None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# story_id = "):
            sid = line.split("=", 1)[1].strip()
        elif not line.strip():
            if sent:
                stories.setdefault(sid, []).append(sent)
            sent = []
        elif not line.startswith("#"):
            cols = line.split("\t")
            head = int(cols[6])
            sent.append((cols[1], cols[2], cols[3], None if head == 0 else head - 1))
    if sent:
        stories.setdefault(sid, []).append(sent)
    return stories


def check_preprocess(out, inputs, stoplist, pronouns):
    """Kept and excluded stories match the plant; every kept token matches the input."""
    tally = Tally()
    planted = json.loads((inputs / "planted.json").read_text(encoding="utf-8"))
    conllu = read_conllu_tokens(inputs / "stories.conllu")
    csv_rows = {r["id"]: r for r in read_csv(inputs / "stories.csv")}
    kept = read_jsonl(out / "corpus.jsonl")
    excluded = {r["story_id"]: r["unmatched_prompts"] for r in read_csv(out / "exclusions.csv")}
    missing = planted["missing"]
    tally.attempted += len(planted["story_ids"])
    expect_kept = [s for s in planted["story_ids"] if s not in missing]
    if [s["id"] for s in kept] != expect_kept:
        tally.error("preprocess: kept story ids differ from the planted set")
    if excluded != missing:
        tally.error(f"preprocess: exclusions {excluded} != planted {missing}")
    for story in kept:
        sid = story["id"]
        row = csv_rows.get(sid)
        if row is None or story["prompts"] != [row["prompt1"], row["prompt2"], row["prompt3"]]:
            tally.error(f"preprocess: prompts of {sid} differ from the CSV")
            continue
        ratings = [int(row[k]) for k in ("H", "J", "K", "N")]
        if not _close(story["mean_rating"], sum(ratings) / 4.0):
            tally.error(f"preprocess: mean rating of {sid}")
        got = [
            [(t["surface"], t["lemma"], t["upos"], t["head"], t["stop"], t["pron"]) for t in sent]
            for sent in story["sentences"]
        ]
        want = [
            [
                (surface, lemma.lower(), upos, head,
                 surface.lower() in stoplist or lemma.lower() in stoplist,
                 lemma.lower() in pronouns)
                for surface, lemma, upos, head in sent
            ]
            for sent in conllu.get(sid, [])
        ]
        if got != want:
            tally.error(f"preprocess: tokens of {sid} differ from the CoNLL-U input")
    return tally


# -- build --------------------------------------------------------------------


def check_build(out, builders):
    """Every network equals the from-spec construction of its story.

    A pronoun-free network that instead equals the build which lets
    non-stop-word pronouns through is counted as failed (known fault 1).
    """
    tally = Tally()
    corpus = {s["id"]: s for s in read_jsonl(out / "corpus.jsonl")}
    records = {(r["story_id"], r["builder"]): r for r in read_jsonl(out / "networks.jsonl")}
    expected_keys = {(sid, b) for sid in corpus for b in builders}
    if set(records) != expected_keys:
        tally.error("build: (story, builder) pairs differ from corpus x builders")
    for sid, story in corpus.items():
        nets = spec.build_networks(story["sentences"])
        for builder in builders:
            tally.attempted += 1
            record = records.get((sid, builder))
            if record is None:
                continue
            got = (set(record["nodes"]), {tuple(e) for e in record["edges"]})
            if got == nets[builder]:
                continue
            if builder.startswith("coocc_WS"):
                leaky = spec.leaky_pronoun_free(story["sentences"], int(builder[-1]))
                if got == leaky:
                    tally.failed += 1
                    continue
            tally.error(f"build: {sid}/{builder} differs from the spec")
        tfmn = records.get((sid, "TFMN"))
        if tfmn and not set(tfmn["valence"]) <= set(tfmn["nodes"]):
            tally.error(f"build: valence of {sid}/TFMN names a non-node")
    return tally


def _graphs(out):
    return {
        (r["story_id"], r["builder"]): spec.Graph(r["nodes"], [tuple(e) for e in r["edges"]])
        for r in read_jsonl(out / "networks.jsonl")
    }


# -- features -----------------------------------------------------------------


def check_features(out, damping=0.85):
    """features.csv against csgraph components/paths, triangles and PageRank
    solved as a linear system, computed from networks.jsonl."""
    tally = Tally()
    graphs = _graphs(out)
    rows = read_csv(out / "features.csv")
    if {(r["story_id"], r["builder"]) for r in rows} != set(graphs) or len(rows) != len(graphs):
        tally.error("features: rows do not cover each network once")
    for row in rows:
        tally.attempted += 1
        graph = graphs.get((row["story_id"], row["builder"]))
        if graph is None:
            continue
        want = spec.structural(graph, damping)
        for name, value in want.items():
            tol = 1e-7 if name == "pagerank_centralisation" else 1e-9
            if not _close(float(row[name]), value, rtol=tol, atol=1e-10):
                tally.error(f"features: {row['story_id']}/{row['builder']} {name} "
                            f"{row[name]} != {value!r}")
                break
    return tally


# -- spread -------------------------------------------------------------------


def _trajectories(path):
    """{(story, builder): [[seed, [values by step]], ...]} in file order.

    A step that does not follow its predecessor leaves a None in the series.
    """
    traces = {}
    for row in read_csv(path):
        runs = traces.setdefault((row["story_id"], row["builder"]), [])
        step = int(row["step"])
        if step == 0:
            runs.append([row["seed"], []])
        elif not runs or len(runs[-1][1]) != step:
            runs.append([row["seed"], [None]])
        runs[-1][1].append(float(row["value"]))
    return traces


def check_spread(out, retentions):
    """Alphas against the closed form N*deg(seed)/vol(component) at the exact
    prompt node (N when absent), trajectories start N then r*N, and alphas
    agree across retentions.  An alpha seeded at another node while the exact
    prompt node exists is counted as failed (known fault 2)."""
    tally = Tally()
    corpus = {s["id"]: s for s in read_jsonl(out / "corpus.jsonl")}
    graphs = _graphs(out)
    first = None
    for r in retentions:
        alphas = {(row["story_id"], row["builder"]): row
                  for row in read_csv(out / f"stationary_r{r:g}.csv")}
        trajectories = _trajectories(out / f"trajectories_r{r:g}.csv")
        if set(alphas) != set(graphs):
            tally.error(f"spread r={r}: rows do not cover each network once")
        for key, row in alphas.items():
            graph = graphs.get(key)
            runs = trajectories.get(key, [])
            if graph is None or len(runs) != 3:
                tally.error(f"spread r={r}: {key} lacks a network or three trajectories")
                tally.attempted += 3
                continue
            story = corpus[key[0]]
            n = float(len(graph.nodes))
            for k in range(3):
                tally.attempted += 1
                alpha = float(row[f"alpha{k + 1}"])
                seed, series = runs[k]
                want_seed = spec.prompt_seed(story["sentences"], story["prompts"][k])
                got = spec.stationary_alpha(graph, seed)
                if not _close(alpha, got, rtol=ALPHA_RTOL, atol=1e-9):
                    tally.error(f"spread r={r}: {key} alpha{k + 1}={alpha} but closed form {got}")
                    continue
                if not _trajectory_ok(graph, seed, series, r, n):
                    tally.error(f"spread r={r}: {key} trajectory {k + 1} malformed")
                    continue
                if first is not None and not _close(alpha, first[key][k], rtol=ALPHA_RTOL):
                    tally.error(f"spread r={r}: {key} alpha{k + 1} differs across retentions")
                    continue
                if seed != want_seed:
                    if want_seed in graph.index:
                        tally.failed += 1
                    else:
                        tally.error(f"spread r={r}: {key} seeded at {seed!r}, expected {want_seed!r}")
        if first is None:
            first = {key: [float(row[f"alpha{k + 1}"]) for k in range(3)]
                     for key, row in alphas.items()}
    return tally


def _trajectory_ok(graph, seed, series, r, n):
    if not series or None in series or len(series) > TRACE_EXPORT_STEPS + 1:
        return False
    if not _close(series[0], n):
        return False
    i = graph.index.get(seed)
    if i is None:
        return len(series) == 1
    if len(series) < 2:
        return False
    second = n if graph.deg[i] == 0 else r * n
    return _close(series[1], second)


# -- emotions -----------------------------------------------------------------


def read_lexicon(path):
    vocabulary, entries = set(), {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        word, label, flag = line.split("\t")
        vocabulary.add(word)
        if flag == "1":
            entries.setdefault(word, set()).add(label)
    priors = {e: sum(e in ls for ls in entries.values()) / len(vocabulary) for e in PLUTCHIK}
    return vocabulary, entries, priors


def _negated(sent):
    """Cue's head, or a sibling under the cue's head (parses carry deprels)."""
    cues = [i for i, t in enumerate(sent)
            if t["lemma"] in NEGATION_CUES or t["surface"].lower() in NEGATION_CUES]
    out = set()
    for i, tok in enumerate(sent):
        if i in cues:
            continue
        for c in cues:
            hc = sent[c]["head"]
            if hc == i or (hc is not None and hc == tok["head"]):
                out.add(i)
    return out


def check_emotions(out, lexicon_path, z_crit=1.96):
    """z-scores against an independent recount; each flag agrees with its z."""
    tally = Tally()
    vocabulary, entries, priors = read_lexicon(lexicon_path)
    corpus = {s["id"]: s for s in read_jsonl(out / "corpus.jsonl")}
    rows = read_csv(out / "emotions.csv")
    if [r["story_id"] for r in rows] != list(corpus):
        tally.error("emotions: rows do not follow the corpus")
    for row in rows:
        tally.attempted += 1
        story = corpus.get(row["story_id"])
        if story is None:
            continue
        counts = dict.fromkeys(PLUTCHIK, 0)
        m = 0
        for sent in story["sentences"]:
            if any(t["head"] is not None for t in sent) and not all(t["deprel"] for t in sent):
                tally.error(f"emotions: {row['story_id']} has a parse without relations")
            negated = _negated(sent)
            for i, tok in enumerate(sent):
                if not tok["lemma"].isalpha() or tok["lemma"] not in vocabulary:
                    continue
                m += 1
                for label in entries.get(tok["lemma"], ()):
                    if label in OPPOSITE:
                        counts[OPPOSITE[label] if i in negated else label] += 1
        for e in PLUTCHIK:
            p = priors[e]
            z = 0.0 if m == 0 or not 0 < p < 1 else (counts[e] - m * p) / math.sqrt(m * p * (1 - p))
            got = float(row[f"z_{e}"])
            flag = "over" if got > z_crit else "under" if got < -z_crit else "none"
            if not _close(got, z, rtol=1e-9, atol=1e-12) or row[f"{e}_flag"] != flag:
                tally.error(f"emotions: {row['story_id']} {e}: z={got} flag={row[f'{e}_flag']}, "
                            f"recount z={z}")
                break
    return tally


# -- compare-builders ---------------------------------------------------------


def check_comparison(out, n_perm):
    """Mean differences recomputed from features.csv; p_raw on the sign-flip
    grid (1+hits)/(1+n_perm); p_bh = scipy's Benjamini-Hochberg of p_raw."""
    tally = Tally()
    names = STRUCTURAL + ("n_components",)
    values = {}
    for row in read_csv(out / "features.csv"):
        values.setdefault(row["builder"], {})[row["story_id"]] = {k: float(row[k]) for k in names}
    rows = read_csv(out / "builder_comparison.csv")
    builders = sorted(values)
    expected = [(f, a, b) for i, a in enumerate(builders) for b in builders[i + 1:]
                for f in sorted(names)]
    if [(r["feature"], r["builder_a"], r["builder_b"]) for r in rows] != expected:
        tally.error("compare-builders: row keys differ from builder pairs x features")
        tally.attempted += len(expected)
        return tally
    p_raw = np.array([float(r["p_raw"]) for r in rows])
    p_bh = sstats.false_discovery_control(p_raw, method="bh") if rows else p_raw
    for row, want_bh in zip(rows, p_bh):
        tally.attempted += 1
        a, b, f = row["builder_a"], row["builder_b"], row["feature"]
        shared = sorted(set(values[a]) & set(values[b]))
        diff = np.array([values[a][s][f] - values[b][s][f] for s in shared])
        hits = float(row["p_raw"]) * (n_perm + 1) - 1
        if not _close(float(row["mean_difference"]), float(diff.mean()), rtol=1e-9, atol=1e-12):
            tally.error(f"compare-builders: mean difference {f} {a} {b}")
        elif abs(hits - round(hits)) > 1e-6 or not 0 <= round(hits) <= n_perm:
            tally.error(f"compare-builders: p_raw {row['p_raw']} is off the sign-flip grid")
        elif not _close(float(row["p_bh"]), float(want_bh), rtol=1e-9, atol=1e-15):
            tally.error(f"compare-builders: p_bh {row['p_bh']} != {want_bh!r} ({f} {a} {b})")
    return tally


# -- evaluate -----------------------------------------------------------------


BOUNDED_KINDS = ("knn", "decision_tree", "random_forest")


def check_cells(cells, story_ids, y, folds):
    """Out-of-fold predictions cover each story once per cell; fold MAEs
    average to the cell MAE; kNN/tree/forest predictions stay within the
    target range; on the planted signal real features beat the permuted
    baseline for every model kind."""
    tally = Tally()
    lo, hi = float(np.min(y)), float(np.max(y))
    ids = set(story_ids)
    by_kind = {}
    for cell in cells:
        tally.attempted += 1
        preds = cell["predictions"]
        label = f"{cell['model']}{' (permuted)' if cell['permuted'] else ''}"
        by_kind.setdefault(cell["model"], {})[cell["permuted"]] = cell["mae"]
        if set(preds) != ids or len(preds) != len(story_ids):
            tally.error(f"evaluate: {label} predictions do not cover each story once")
        elif len(cell["folds"]) != folds:
            tally.error(f"evaluate: {label} has {len(cell['folds'])} folds")
        elif not _close(cell["mae"], float(np.mean([f["mae"] for f in cell["folds"]]))):
            tally.error(f"evaluate: {label} MAE is not the mean of its folds")
        elif cell["model"] in BOUNDED_KINDS and not all(
            lo - 1e-9 <= v <= hi + 1e-9 for v in preds.values()
        ):
            tally.error(f"evaluate: {label} predicts outside the target range")
    for kind, maes in by_kind.items():
        if not maes.get(False, math.inf) < maes.get(True, -math.inf):
            tally.error(f"evaluate: {kind} real MAE does not beat the permuted baseline")
    return tally


def check_best(cells, best):
    tally = Tally(attempted=1)
    real = [c for c in cells if not c["permuted"]]
    want = min(real, key=lambda c: (c["mae"], -c["spearman"]))
    if (best["model"], best["builder"], best["config"]) != (want["model"], want["builder"], want["config"]):
        tally.error(f"evaluate: select_best gave {best['model']}, expected {want['model']}")
    return tally


def check_shapley(kind, values, base_value, predictions, additivity_se):
    """|sum(phi) + base - f(x)| <= 5 * additivity_se, row by row."""
    tally = Tally()
    gap = np.abs(np.asarray(values).sum(axis=1) + base_value - np.asarray(predictions))
    for g, se in zip(gap, additivity_se):
        tally.attempted += 1
        if not g <= 5.0 * se + 1e-9:
            tally.error(f"shapley {kind}: additivity gap {g:.3g} exceeds 5 x se {se:.3g}")
    return tally


def check_wilcoxon(x, y, alternative, statistic, p_value):
    """The program's signed-rank test against scipy.stats.wilcoxon."""
    tally = Tally(attempted=1)
    d = np.asarray(x) - np.asarray(y)
    n = int(np.count_nonzero(d))
    method = "exact" if n <= 25 else "approx"
    ref = sstats.wilcoxon(x, y, alternative=alternative, method=method,
                          correction=method == "approx")
    if not (_close(statistic, float(ref.statistic)) and _close(p_value, float(ref.pvalue), atol=1e-15)):
        tally.error(f"wilcoxon n={n}: W={statistic} p={p_value} vs scipy "
                    f"W={ref.statistic} p={ref.pvalue}")
    return tally
