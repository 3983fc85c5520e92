"""The three workloads: set-up, one timed round, and the output checks.

A workload's `setup` makes the inputs from the seed; `run_round` runs the
program once over them and returns its outputs plus the cli timings;
`check` compares one round's outputs with the independent computations in
`checks.py`.  Every round attempts the same operations.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import checks
import corpus
import spec
import tables

N_PERM = 10_000
FOLDS = 4
# Reduced ensembles: 500 / 5 = 100x fewer forest trees, 800 / 60 = 13.3x fewer rounds.
REDUCED_HYPERPARAMETERS = {
    "random_forest": {"n_estimators": 5},
    "gradient_boosting": {"n_estimators": 60},
}
EVAL_CONFIG = "All"
SHAP_ROWS = 3
SHAP_SAMPLES = 100


def tree_digest(root):
    """sha256 over the relative paths and bytes of every file under `root`."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_bytes(root):
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


@dataclass
class CliWorkload:
    """CLI stages over a generated corpus, through `storynets.cli.main`."""

    name: str
    shape: corpus.CorpusShape
    stages: tuple
    retention: tuple

    def setup(self, repo_root, seed, work):
        corpus.CorpusGenerator(repo_root).generate(seed, self.shape, work)
        return work

    def inputs_digest(self, inputs):
        return tree_digest(inputs)

    def _argv(self, inputs, out):
        return [
            "--stories-csv", str(inputs / "stories.csv"),
            "--conllu", str(inputs / "stories.conllu"),
            "--lexicon", str(inputs / "lexicon.tsv"),
            "--out-dir", str(out),
            "--retention", ",".join(f"{r:g}" for r in self.retention),
            "--n-perm", str(N_PERM),
        ]

    def run_round(self, inputs, out):
        """Runs every stage; returns (outputs, digest, cli values) of the round."""
        from storynets import cli

        values = {}
        argv = self._argv(inputs, out)
        for stage in self.stages:
            start = time.perf_counter()
            code = cli.main([stage] + argv)
            values[f"cli.{stage}_s"] = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"{self.name}: stage {stage} exited with code {code}")
        values["cli.bytes_written"] = float(tree_bytes(out))
        return out, tree_digest(out), values

    def check(self, repo_root, inputs, out):
        tally = checks.check_preprocess(out, inputs, *corpus.word_lists(repo_root))
        tally.add(checks.check_build(out, spec.BUILDERS))
        tally.add(checks.check_features(out))
        tally.add(checks.check_spread(out, self.retention))
        if "emotions" in self.stages:
            tally.add(checks.check_emotions(out, inputs / "lexicon.tsv"))
        if "compare-builders" in self.stages:
            tally.add(checks.check_comparison(out, N_PERM))
        return tally


class EvaluateWorkload:
    """`run_matrix`, Shapley, Wilcoxon and `select_best` on seeded feature tables."""

    def setup(self, repo_root, seed, work):
        return seed, tables.feature_tables(seed)

    def inputs_digest(self, inputs):
        return hashlib.sha256(inputs[1].to_bytes()).hexdigest()

    def run_round(self, inputs, out):
        from storynets import mlharness, stats
        from storynets.mlharness import models

        seed, tb = inputs
        features = mlharness.CorpusFeatures(
            structural=tb.structural, alphas=tb.alphas, emotions=tb.emotions, targets=tb.targets
        )
        specs = {
            kind: mlharness.ModelSpec(kind=kind, hyperparameters=REDUCED_HYPERPARAMETERS.get(kind, {}))
            for kind in mlharness.MODEL_KINDS
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", mlharness.SingularDesignWarning)
            results = mlharness.run_matrix(
                features, ["mean"], [tables.BUILDER], [EVAL_CONFIG], specs,
                k=FOLDS, rng_seed=seed, with_baseline=True,
            )
            rows = features.rows(tables.BUILDER, EVAL_CONFIG, "mean")
            explained = {}
            for kind, model_spec in specs.items():
                model = models.fit(model_spec, rows[SHAP_ROWS:])
                explained[kind] = mlharness.shapley_attribution(
                    model, rows[:SHAP_ROWS], n_samples=SHAP_SAMPLES, rng_seed=seed
                )
        cells = [r.to_dict() for r in results]
        real = [c for c in cells if not c["permuted"]]
        permuted = [c for c in cells if c["permuted"]]
        best = mlharness.select_best(results, "mean").to_dict()
        twin = next(c for c in permuted if c["model"] == best["model"])
        y = tb.y()
        pairs = [
            ([c["mae"] for c in real], [c["mae"] for c in permuted]),
            ([f["mae"] for c in real for f in c["folds"]],
             [f["mae"] for c in permuted for f in c["folds"]]),
            ([abs(best["predictions"][s] - t) for s, t in zip(tb.story_ids, y)],
             [abs(twin["predictions"][s] - t) for s, t in zip(tb.story_ids, y)]),
        ]
        tests = [(x, z, stats.wilcoxon_signed_rank(x, z, alternative="less")) for x, z in pairs]
        outputs = {"cells": cells, "best": best, "shapley": explained, "tests": tests}
        digest = hashlib.sha256(json.dumps(
            [cells, best, [(t.statistic, t.p_value) for _, _, t in tests],
             {k: [r.values.tolist(), r.base_value, r.additivity_se.tolist()]
              for k, r in explained.items()}],
            sort_keys=True,
        ).encode()).hexdigest()
        ridge = sum(issubclass(w.category, mlharness.SingularDesignWarning) for w in caught)
        return outputs, digest, {"models.ridge_fallbacks": float(ridge)}

    def check(self, repo_root, inputs, outputs):
        _seed, tb = inputs
        tally = checks.check_cells(outputs["cells"], tb.story_ids, tb.y(), FOLDS)
        tally.add(checks.check_best(outputs["cells"], outputs["best"]))
        for kind, r in outputs["shapley"].items():
            tally.add(checks.check_shapley(kind, r.values, r.base_value, r.predictions,
                                           r.additivity_se))
        for x, z, t in outputs["tests"]:
            tally.add(checks.check_wilcoxon(x, z, "less", t.statistic, t.p_value))
        return tally


WORKLOADS = {
    "networks": CliWorkload(
        "networks", corpus.NETWORKS_SHAPE,
        ("preprocess", "build", "features", "spread", "emotions", "compare-builders"), (0.5,),
    ),
    "long-stories": CliWorkload(
        "long-stories", corpus.LONG_SHAPE,
        ("preprocess", "build", "features", "spread"), (0.2, 0.5, 0.8),
    ),
    "evaluate": EvaluateWorkload(),
}
