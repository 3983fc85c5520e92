"""Shuffled k-fold cross-validation, the column-permutation baseline and
the full builder x config x model evaluation matrix.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ..seeding import derive_seed
from ..stats import mae as mae_score
from ..stats import pearson, spearman
from .models import fit, predict_matrix


@dataclass(frozen=True)
class EvalResult:
    builder_tag: str
    config: str
    model_kind: str
    target: str
    rng_seed: int
    permuted: bool
    fold_maes: tuple[float, ...]
    fold_spearmans: tuple[float, ...]
    fold_pearsons: tuple[float, ...]
    mae: float
    spearman: float
    pearson: float
    predictions: dict[str, float]

    def to_dict(self):
        return {
            "builder": self.builder_tag,
            "config": self.config,
            "model": self.model_kind,
            "target": self.target,
            "rng_seed": self.rng_seed,
            "permuted": self.permuted,
            "folds": [
                {"fold": i, "mae": m, "spearman": s, "pearson": p}
                for i, (m, s, p) in enumerate(
                    zip(self.fold_maes, self.fold_spearmans, self.fold_pearsons)
                )
            ],
            "mae": self.mae,
            "spearman": self.spearman,
            "pearson": self.pearson,
            "predictions": self.predictions,
        }


def make_folds(n_rows, k, rng_seed):
    """Shuffle row indices and cut them into k near-equal test folds.

    The first (n mod k) folds take the extra row, so fold sizes differ by
    at most one.
    """
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if n_rows < k:
        raise ValueError(f"cannot split {n_rows} rows into {k} folds")
    return np.array_split(np.random.default_rng(rng_seed).permutation(n_rows), k)


def fold_models(table, spec, k, rng_seed):
    """Yield (fold_idx, test_idx, model) for each of k shuffled folds.

    Each model is fitted on the other folds' rows, in table order, with
    the seed derive_seed(spec.rng_seed, "fold", fold_idx).  Fitting
    happens as each fold is drawn, so a caller may stop early.
    """
    for fold_idx, test_idx in enumerate(make_folds(len(table), k, rng_seed)):
        train_idx = np.setdiff1d(np.arange(len(table)), test_idx)
        fold_spec = replace(spec, rng_seed=derive_seed(spec.rng_seed, "fold", fold_idx))
        yield fold_idx, test_idx, fit(fold_spec, table[train_idx])


def kfold_cv(table, model_spec, k=4, rng_seed=0, permuted=False):
    """Out-of-fold evaluation of one (builder, config, model) cell.

    Every row lands in exactly one test fold; per-fold MAE / Spearman /
    Pearson are aggregated by plain averaging.  Correlations on folds too
    small to define them (one row) are reported as 0.
    """
    if len(table) == 0:
        raise ValueError("cannot cross-validate an empty feature table")
    fold_maes = []
    fold_spearmans = []
    fold_pearsons = []
    predictions = {}
    for _, test_idx, model in fold_models(table, model_spec, k, rng_seed):
        test = table[test_idx]
        preds = predict_matrix(model, test.X)
        fold_maes.append(mae_score(preds, test.y))
        if len(test) >= 2:
            fold_spearmans.append(spearman(preds, test.y))
            fold_pearsons.append(pearson(preds, test.y))
        else:
            fold_spearmans.append(0.0)
            fold_pearsons.append(0.0)
        predictions.update(zip(test.story_ids, preds.tolist()))
    return EvalResult(
        builder_tag=table.builder_tag,
        config=table.config,
        model_kind=model_spec.kind,
        target="",
        rng_seed=rng_seed,
        permuted=permuted,
        fold_maes=tuple(fold_maes),
        fold_spearmans=tuple(fold_spearmans),
        fold_pearsons=tuple(fold_pearsons),
        mae=float(np.mean(fold_maes)),
        spearman=float(np.mean(fold_spearmans)),
        pearson=float(np.mean(fold_pearsons)),
        predictions=predictions,
    )


def permute_columns(table, rng_seed):
    """Independently shuffle every feature column; targets stay put.

    Columns draw their permutations in table order.
    """
    rng = np.random.default_rng(rng_seed)
    X = np.column_stack([column[rng.permutation(len(table))] for column in table.X.T])
    return replace(table, X=X)


def permutation_baseline(table, model_spec, k=4, rng_seed=0):
    """The identical CV protocol on column-permuted features."""
    permuted = permute_columns(table, derive_seed(rng_seed, "column-permutation"))
    return kfold_cv(permuted, model_spec, k=k, rng_seed=rng_seed, permuted=True)


def _workers(n_tasks):
    """Worker processes for `n_tasks` cells: one per core in this process's
    CPU affinity (all cores where the platform has none), at most one per task."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_tasks))


def _run_cell(task):
    """One cell's EvalResult and the (category, message) of every warning
    its fits raised, in the order raised."""
    target, table, spec, k, permuted = task
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if permuted:
            result = permutation_baseline(table, spec, k=k, rng_seed=spec.rng_seed)
        else:
            result = kfold_cv(table, spec, k=k, rng_seed=spec.rng_seed)
    return replace(result, target=target), [(w.category, str(w.message)) for w in caught]


def run_matrix(
    features,
    targets,
    builders,
    configs,
    model_specs,
    k=4,
    rng_seed=0,
    with_baseline=False,
):
    """Evaluate every (target, builder, config, model) cell.

    `features` is a CorpusFeatures bundle; `model_specs` maps model kind
    to a ModelSpec template whose per-cell seed is derived from the master
    seed, so results do not depend on evaluation order.  The cells run in
    forked worker processes, one per core of this process's CPU affinity
    (`taskset` limits them), and in-process where there is one core or no
    `fork`.  Results come back in matrix order, and each cell's warnings are
    raised again here in that order, so the output is the same either way.
    """
    tasks = []
    for target in targets:
        for builder in builders:
            for config in configs:
                table = features.rows(builder, config, target)
                for kind, spec in model_specs.items():
                    cell_seed = derive_seed(rng_seed, target, builder, config, kind)
                    cell_spec = replace(spec, rng_seed=cell_seed)
                    tasks.append((target, table, cell_spec, k, False))
                    if with_baseline:
                        tasks.append((target, table, cell_spec, k, True))
    workers = _workers(len(tasks))
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        cells = list(map(_run_cell, tasks))
    else:
        # fork, not spawn: a spawned worker imports numpy and scipy afresh,
        # which made the evaluate benchmark's matrix slower than one process
        # (3.2 s against 2.5 s on two cores; 1.4 s forked)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            cells = list(pool.map(_run_cell, tasks))
    results = []
    for result, caught in cells:
        for category, message in caught:
            warnings.warn(message, category, stacklevel=2)
        results.append(result)
    return results


def select_best(results, target):
    """Lowest MAE among non-permuted results for `target`; ties break to
    the higher Spearman correlation."""
    candidates = [r for r in results if r.target == target and not r.permuted]
    if not candidates:
        raise ValueError(f"no results for target {target!r}")
    return min(candidates, key=lambda r: (r.mae, -r.spearman))
