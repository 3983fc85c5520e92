"""Tests of the benchmark's own code: generators, checkers and probes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import spec  # noqa: E402
import tables  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

SMALL = dataclasses.replace(corpus.NETWORKS_SHAPE, n_stories=5, missing_prompt_share=0.2,
                            isolated_prompt_share=0.2)


@pytest.fixture(scope="module")
def generator():
    return corpus.CorpusGenerator(ROOT)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, generator):
    """A small corpus run through every networks stage, with the real CLI."""
    base = tmp_path_factory.mktemp("run")
    generator.generate(3, SMALL, base / "in", candidates=2)
    workload = dataclasses.replace(workloads.WORKLOADS["networks"], shape=SMALL)
    workload.run_round(base / "in", base / "out")
    return base


def _copy(src, dst):
    dst.mkdir()
    for path in src.iterdir():
        if path.is_file():
            (dst / path.name).write_bytes(path.read_bytes())
    return dst


def _rewrite_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_corpus_generator_repeats_bytes_for_a_seed(tmp_path, generator):
    generator.generate(5, SMALL, tmp_path / "a", candidates=2)
    generator.generate(5, SMALL, tmp_path / "b", candidates=2)
    generator.generate(6, SMALL, tmp_path / "c", candidates=2)
    assert workloads.tree_digest(tmp_path / "a") == workloads.tree_digest(tmp_path / "b")
    assert workloads.tree_digest(tmp_path / "a") != workloads.tree_digest(tmp_path / "c")


def test_fault_block_does_not_depend_on_the_seed(tmp_path, generator):
    for seed in (1, 2):
        generator.generate(seed, SMALL, tmp_path / str(seed), candidates=2)
    blocks = [
        [line for line in (tmp_path / s / "stories.csv").read_text().splitlines()
         if line.startswith("fault")]
        for s in ("1", "2")
    ]
    assert blocks[0] == blocks[1] and len(blocks[0]) == len(corpus.FAULT_STORIES)


def test_feature_tables_repeat_bytes_for_a_seed():
    assert tables.feature_tables(4, n=50).to_bytes() == tables.feature_tables(4, n=50).to_bytes()
    assert tables.feature_tables(4, n=50).to_bytes() != tables.feature_tables(5, n=50).to_bytes()


def test_clean_outputs_pass_with_only_the_counted_faults(run_dir, generator):
    out, inputs = run_dir / "out", run_dir / "in"
    assert not checks.check_preprocess(out, inputs, generator.stopwords, generator.pronouns).errors
    build = checks.check_build(out, spec.BUILDERS)
    assert (build.errors, build.failed) == ([], 6)  # us / mine in three windows each
    spread = checks.check_spread(out, (0.5,))
    assert (spread.errors, spread.failed) == ([], 14)  # two shadowed prompts x seven builders
    assert not checks.check_features(out).errors
    assert not checks.check_emotions(out, inputs / "lexicon.tsv").errors
    assert not checks.check_comparison(out, workloads.N_PERM).errors


def test_build_check_rejects_a_flipped_edge(run_dir, tmp_path):
    out = _copy(run_dir / "out", tmp_path / "out")
    records = checks.read_jsonl(out / "networks.jsonl")
    victim = next(r for r in records if r["builder"] == "coocc_p_WS2" and r["edges"])
    victim["edges"] = victim["edges"][1:]
    (out / "networks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert checks.check_build(out, spec.BUILDERS).errors


def test_features_check_rejects_a_changed_value(run_dir, tmp_path):
    out = _copy(run_dir / "out", tmp_path / "out")
    _rewrite_csv(out / "features.csv", lambda rows: rows[1].__setitem__(5, repr(float(rows[1][5]) + 0.01)))
    assert checks.check_features(out).errors


def test_spread_check_rejects_a_perturbed_alpha(run_dir, tmp_path):
    out = _copy(run_dir / "out", tmp_path / "out")
    path = out / "stationary_r0.5.csv"
    _rewrite_csv(path, lambda rows: rows[1].__setitem__(2, repr(float(rows[1][2]) * 1.01)))
    assert checks.check_spread(out, (0.5,)).errors


def test_emotions_check_rejects_a_changed_z(run_dir, tmp_path):
    out = _copy(run_dir / "out", tmp_path / "out")
    _rewrite_csv(out / "emotions.csv", lambda rows: rows[1].__setitem__(1, "3.5"))
    assert checks.check_emotions(out, run_dir / "in" / "lexicon.tsv").errors


def test_comparison_check_rejects_a_swapped_p_value(run_dir, tmp_path):
    out = _copy(run_dir / "out", tmp_path / "out")

    def swap(rows):
        body = rows[1:]
        i, j = next((i, j) for i in range(len(body)) for j in range(i + 1, len(body))
                    if body[i][5] != body[j][5])
        body[i][5], body[j][5] = body[j][5], body[i][5]

    _rewrite_csv(out / "builder_comparison.csv", swap)
    assert checks.check_comparison(out, workloads.N_PERM).errors


def test_wilcoxon_check_rejects_a_swapped_p_value():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=30), rng.normal(size=30) + 0.5
    from storynets import stats

    good = stats.wilcoxon_signed_rank(x, y, alternative="less")
    other = stats.wilcoxon_signed_rank(y, x, alternative="less")
    assert not checks.check_wilcoxon(x, y, "less", good.statistic, good.p_value).errors
    assert checks.check_wilcoxon(x, y, "less", good.statistic, other.p_value).errors


def test_shapley_and_cell_checks_reject_corruption():
    values = np.array([[0.5, 0.25]])
    assert not checks.check_shapley("linear", values, 1.0, [1.75], [0.01]).errors
    assert checks.check_shapley("linear", values, 1.0, [2.75], [0.01]).errors
    cell = {"model": "knn", "permuted": False, "mae": 0.5, "spearman": 0.1,
            "folds": [{"mae": 0.5}] * 2, "predictions": {"a": 1.0, "b": 2.0}}
    twin = dict(cell, permuted=True, mae=0.9, folds=[{"mae": 0.9}] * 2)
    y = np.array([1.0, 2.0])
    assert not checks.check_cells([cell, twin], ["a", "b"], y, 2).errors
    assert checks.check_cells([dict(cell, predictions={"a": 1.0}), twin], ["a", "b"], y, 2).errors
    assert checks.check_cells([cell, dict(twin, mae=0.4)], ["a", "b"], y, 2).errors


def test_probes_wrap_every_binding_and_restore_them():
    from storynets.mlharness import cv, models

    original = models.fit
    tracer = probes.Tracer()
    probes.install_probes(tracer)
    try:
        assert cv.fit is models.fit and cv.fit is not original
    finally:
        tracer.remove()
    assert cv.fit is original and models.fit is original


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(probes.PER_LAYER)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
