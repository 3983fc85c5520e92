"""Nonparametric statistics: paired sign-flip permutation tests,
Benjamini-Hochberg FDR, Wilcoxon signed-rank (exact for small n),
rank correlations and MAE.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed

ALTERNATIVES = ("two-sided", "less", "greater")

EXACT_WILCOXON_LIMIT = 25


class CorrelationUndefinedWarning(RuntimeWarning):
    """A correlation was requested on a zero-variance input."""


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n: int
    method: str
    alternative: str

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def _check_alternative(alternative):
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")


def paired_signflip_test(x, y, n_perm=10_000, rng_seed=0, alternative="two-sided"):
    """Mean paired difference against a random sign-flip null.

    p uses the add-one correction (1 + hits) / (1 + n_perm), so it can
    never reach exactly zero.
    """
    _check_alternative(alternative)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired samples must be 1-d and of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 pairs")
    d = x - y
    observed = float(d.mean())
    rng = np.random.default_rng(rng_seed)
    signs = rng.integers(0, 2, size=(n_perm, d.size)) * 2 - 1
    null = (signs * d).mean(axis=1)
    if alternative == "two-sided":
        hits = int(np.sum(np.abs(null) >= abs(observed)))
    elif alternative == "greater":
        hits = int(np.sum(null >= observed))
    else:
        hits = int(np.sum(null <= observed))
    p = (1 + hits) / (1 + n_perm)
    return TestResult(observed, p, int(d.size), "paired-sign-flip", alternative)


def bh_fdr(p_values):
    """Benjamini-Hochberg step-up adjustment, input order preserved."""
    p = np.asarray(list(p_values), dtype=float)
    if p.size and (p.min() < 0 or p.max() > 1):
        raise ValueError("p-values must lie in [0, 1]")
    n = p.size
    if n == 0:
        return []
    order = np.argsort(p, kind="stable")
    adjusted_sorted = p[order] * n / np.arange(1, n + 1)
    adjusted_sorted = np.minimum.accumulate(adjusted_sorted[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)
    adjusted = np.empty(n)
    adjusted[order] = adjusted_sorted
    return adjusted.tolist()


def _average_ranks(a):
    a = np.asarray(a, dtype=float)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size)
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_wplus_cdf(doubled_ranks, w_doubled):
    """P(W+ <= w) under random signs, via subset-sum counting.

    `doubled_ranks` are 2x the (possibly tied, averaged) ranks so all
    sums are integers; exact even in the presence of ties.
    """
    total = int(sum(doubled_ranks))
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled_ranks:
        r = int(r)
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    limit = int(math.floor(w_doubled + 1e-9))
    limit = min(max(limit, -1), total)
    if limit < 0:
        return 0.0
    return float(counts[: limit + 1].sum() / counts.sum())


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def wilcoxon_signed_rank(x, y, alternative="two-sided"):
    """Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences get average
    ranks.  The null distribution is exact (subset-sum enumeration,
    conditional on the observed ranks) for n <= 25 and a tie-corrected
    normal approximation with continuity correction above.
    """
    _check_alternative(alternative)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired samples must be 1-d and of equal length")
    d = x - y
    d = d[d != 0]
    n = int(d.size)
    if n == 0:
        return TestResult(0.0, 1.0, 0, "wilcoxon-signed-rank-degenerate", alternative)
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    if alternative == "two-sided":
        statistic = min(w_plus, w_minus)
    elif alternative == "less":
        statistic = w_plus
    else:
        statistic = w_minus

    if n <= EXACT_WILCOXON_LIMIT:
        tail = _exact_wplus_cdf(np.rint(ranks * 2).astype(int), 2 * statistic)
        method = "wilcoxon-signed-rank-exact"
    else:
        mu = n * (n + 1) / 4.0
        _, tie_counts = np.unique(np.abs(d), return_counts=True)
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
        tail = _normal_cdf((statistic - mu + 0.5) / sigma)
        method = "wilcoxon-signed-rank-normal"
    p = min(1.0, 2.0 * tail) if alternative == "two-sided" else tail
    return TestResult(statistic, p, n, method, alternative)


def pearson(x, y, warn=True):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("correlation needs two equal-length vectors of size >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        if warn:
            warnings.warn(
                "correlation undefined for zero-variance input; reporting 0",
                CorrelationUndefinedWarning,
                stacklevel=2,
            )
        return 0.0
    return float(xc @ yc) / (sx * sy)


def spearman(x, y, warn=True):
    """Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("correlation needs two equal-length vectors of size >= 2")
    return pearson(_average_ranks(x), _average_ranks(y), warn=warn)


def mae(pred, true):
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    if pred.shape != true.shape or pred.ndim != 1 or pred.size < 1:
        raise ValueError("MAE needs two equal-length vectors of size >= 1")
    return float(np.mean(np.abs(pred - true)))


def builder_comparison_rows(values_by_builder, n_perm=10_000, rng_seed=0):
    """Header, then the pairwise sign-flip comparison of every shared feature
    across builders.

    `values_by_builder` maps builder -> {story_id: {feature: value}}.
    Stories are paired by id; p-values are BH-adjusted jointly over all
    feature x builder-pair cells.
    """
    builders = sorted(values_by_builder)
    rows = []
    raw_ps = []
    for i, b1 in enumerate(builders):
        for b2 in builders[i + 1 :]:
            shared_stories = sorted(set(values_by_builder[b1]) & set(values_by_builder[b2]))
            if len(shared_stories) < 2:
                continue
            features = sorted(
                set(values_by_builder[b1][shared_stories[0]])
                & set(values_by_builder[b2][shared_stories[0]])
            )
            for feature in features:
                x = [values_by_builder[b1][s][feature] for s in shared_stories]
                y = [values_by_builder[b2][s][feature] for s in shared_stories]
                result = paired_signflip_test(
                    x, y, n_perm=n_perm,
                    rng_seed=derive_seed(rng_seed, "compare", feature, b1, b2),
                )
                rows.append((feature, b1, b2, result.statistic, result.p_value))
                raw_ps.append(result.p_value)
    yield ("feature", "builder_a", "builder_b", "mean_difference", "p_raw", "p_bh")
    for row, p_adj in zip(rows, bh_fdr(raw_ps)):
        yield (*row, p_adj)
