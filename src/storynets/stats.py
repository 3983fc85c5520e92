"""Nonparametric statistics: two-sided paired sign-flip permutation tests,
Benjamini-Hochberg FDR, Wilcoxon signed-rank (exact for small n),
rank correlations and MAE. The tests and `bh_fdr` refuse NaN and
infinite input with ValueError.

The sign-flip null is drawn in chunks of about SIGNFLIP_CHUNK elements,
an even number of whole permutation rows each, so one test holds
O(chunk) memory whatever `n_perm` is. Each sign is the top bit of one
32-bit half of a raw PCG64 word (`bit_generator.random_raw`), low half
first. That is exactly the value `default_rng(seed).integers(0, 2)`
returns, in the same order: it takes one 32-bit draw per element (PCG64
hands out the low half of each 64-bit output, then the high half), and
Lemire's bounded method with range 2 keeps the draw's top bit and never
rejects (its threshold is (2**32 - 2) % 2 = 0). An even row count keeps
the halves aligned across chunks.
`tests/test_stats.py::TestSignFlipStream` checks the raw-word signs
against `integers(0, 2)`, so a change to numpy's stream fails there.

The unchunked test (`tests/oracles.py::paired_signflip_test_reference`)
multiplies a (n_perm, n) matrix of +-1 by the differences d and averages
each row. Its hit count is matched exactly, without that arithmetic for
most rows: with the chunk's sign bits b as 0.0/1.0, a row's signed sum is
2(b.d) - sum(d), so the null mean comes from one matrix-vector product,
(2(b.d) - sum(d)) / n (`_fast_null`).

- Integer differences with sum(|d|) <= 2**52: every partial sum on either
  path is an integer no larger than 2**53 in magnitude, so exact, and both
  paths divide the same exact sum by n. The fast mean is then the row mean
  bit for bit, and it is compared with |observed| directly.
- Other differences: `_null_bound` gives E >= |fast - row mean|. A row
  whose |fast| lies farther than E from |observed| falls on the side the
  row mean does; the rows within E are averaged the unchunked way
  (`_row_means`). So the hit counts, and every p-value, are those of the
  reference.

The bound. Let u = 2**-53 and A = sum(|d|). Every term of every sum (+-d_i
or b_i d_i) is an exact double, so a sum of n of them computed in any
order, as any tree of additions, with or without FMA, is within
g A of the exact sum, g = (n - 1)u / (1 - (n - 1)u) (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., eq. 4.4; an addition that
underflows is exact). That holds for BLAS's product whatever its thread
count or SIMD width, and for numpy's pairwise sums. With S the exact
signed sum, the reference divides S + e1 by n; the fast path forms
(2(b.d + e2) - (sum(d) + e3))(1 + r), |e_i| <= g A, |r| <= u, doubling
being exact, and divides that by n. The two dividends differ by at most
4gA + u(1 + 3g)A, each is at most (1 + 3g)(1 + u)A in magnitude, and
each division adds a relative error of u plus an absolute 2**-1075
below the normal range. So

    |fast - row mean| <= ((4n - 1)u + O(n**2 u**2)) A / n + 2**-1074
                      <= E = (n + 1) 2**-51 (1 + 2**-8) A' / n + 2**-1073,

where A' is A as computed; the factor 1 + 2**-8 covers the O(n**2 u**2)
terms, A <= A'(1 + 2g) and the rounding of E itself for any n below
2**40. The thresholds |observed| +- E are rounded outward. Where A' could
overflow a sum (above 2**1020) E is infinite and every row is averaged
the unchunked way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed

ALTERNATIVES = ("two-sided", "less", "greater")

EXACT_WILCOXON_LIMIT = 25

# Sign bits the sign-flip null holds at once, as one float64 matrix of whole
# rows (at least two); its matrix-vector product with d gives the rows' null
# means, exact for integer d and within `_null_bound` otherwise.
SIGNFLIP_CHUNK = 1 << 15


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def _check_alternative(alternative):
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")


def _differences(x, y):
    """x - y for paired 1-d samples; NaN or infinite differences are refused."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired samples must be 1-d and of equal length")
    d = x - y
    if not np.isfinite(d).all():
        raise ValueError("paired differences must be finite")
    return d


def _sign_bits(bit_generator, count):
    """The next `count` values of `integers(0, 2)` on a PCG64 stream that
    holds no buffered 32-bit half, as uint32 0/1: the top bit of each
    32-bit half of the raw words, low half first (little-endian views give
    that order on any platform)."""
    words = bit_generator.random_raw((count + 1) // 2).astype("<u8", copy=False)
    halves = words.view("<u4")[:count]
    return np.right_shift(halves, 31, out=halves)


def _null_bound(d):
    """E >= |_fast_null - _row_means| for every sign row of d, derived in the
    module docstring: 0.0 where the differences are integers whose absolute
    sum is at most 2**52 (the fast mean is then exact), infinite where that
    sum passes 2**1020."""
    n = d.size
    with np.errstate(over="ignore"):
        total_abs = float(np.abs(d).sum())
    if total_abs <= 2.0**52 and np.array_equal(d, np.rint(d)):
        return 0.0
    if not total_abs <= 2.0**1020:
        return math.inf
    return (n + 1) * 2.0**-51 * (1 + 2.0**-8) * total_abs / n + 2.0**-1073


def _fast_null(bits, d, total):
    """Null means of the sign rows `bits` (0.0 or 1.0) from one matrix-vector
    product: (2 (bits . d) - total) / n, with total the sum of d."""
    null = bits @ d
    null *= 2.0
    null -= total
    null /= d.size
    return null


def _row_means(bits, d):
    """Null means of the sign rows `bits` (0.0 or 1.0) as the unchunked test
    takes them: each row's +-d averaged along the row."""
    signed = bits * 2.0
    signed -= 1.0
    signed *= d
    return signed.mean(axis=1)


def paired_signflip_test(x, y, n_perm=10_000, rng_seed=0):
    """Mean paired difference against a random sign-flip null, two-sided:
    a hit is a null mean at least as far from 0 as the observed one.

    p uses the add-one correction (1 + hits) / (1 + n_perm), so it can
    never reach exactly zero. The null is drawn about SIGNFLIP_CHUNK
    elements at a time, and each row's mean comes from one matrix-vector
    product, or the unchunked arithmetic where its rounding could decide
    the hit (see the module docstring).
    """
    d = _differences(x, y)
    n = d.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    observed = float(d.mean())
    target = abs(observed)
    total = float(d.sum())
    bound = _null_bound(d)
    high = np.nextafter(target + bound, math.inf)
    low = np.nextafter(target - bound, -math.inf)
    bit_generator = np.random.default_rng(rng_seed).bit_generator
    rows = max(2, SIGNFLIP_CHUNK // n // 2 * 2)
    buffer = np.empty((rows, n))
    hits = 0
    for start in range(0, n_perm, rows):
        k = min(rows, n_perm - start)
        bits = buffer[:k]
        np.copyto(bits, _sign_bits(bit_generator, k * n).reshape(k, n))
        if bound < math.inf:
            null = np.abs(_fast_null(bits, d, total))
            if bound == 0.0:
                hits += int(np.count_nonzero(null >= target))
                continue
            hits += int(np.count_nonzero(null > high))
            bits = bits[(null >= low) & (null <= high)]
        if len(bits):
            hits += int(np.count_nonzero(np.abs(_row_means(bits, d)) >= target))
    p = (1 + hits) / (1 + n_perm)
    return TestResult(observed, p, n)


def bh_fdr(p_values):
    """Benjamini-Hochberg step-up adjustment, input order preserved."""
    p = np.asarray(list(p_values), dtype=float)
    if not ((p >= 0) & (p <= 1)).all():
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
    """1-based ranks of the 1-d `a`, each run of equal values at its mean
    rank: -0.0 ties with 0.0, and every NaN ranks alone, last."""
    a = np.asarray(a, dtype=float)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], a.size) - 1
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
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
    d = _differences(x, y)
    d = d[d != 0]
    n = int(d.size)
    if n == 0:
        return TestResult(0.0, 1.0, 0)
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
    else:
        mu = n * (n + 1) / 4.0
        _, tie_counts = np.unique(np.abs(d), return_counts=True)
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
        tail = _normal_cdf((statistic - mu + 0.5) / sigma)
    p = min(1.0, 2.0 * tail) if alternative == "two-sided" else tail
    return TestResult(statistic, p, n)


def pearson(x, y):
    """Pearson correlation; 0.0 where either input has zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("correlation needs two equal-length vectors of size >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(xc @ yc) / (sx * sy)


def spearman(x, y):
    """Pearson correlation of average ranks; 0.0 where either input is constant."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("correlation needs two equal-length vectors of size >= 2")
    return pearson(_average_ranks(x), _average_ranks(y))


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
