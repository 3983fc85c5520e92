import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from storynets import stats
from storynets.stats import (
    _average_ranks,
    _sign_bits,
    bh_fdr,
    builder_comparison_rows,
    mae,
    paired_signflip_test,
    pearson,
    spearman,
    wilcoxon_signed_rank,
)

from oracles import (
    average_ranks_reference,
    paired_signflip_test_reference,
    wilcoxon_exact_enumeration,
)


class TestSignFlip:
    def test_identical_samples(self):
        result = paired_signflip_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_constant_differences_extreme_p(self):
        # all differences +1, n=20: the null puts mass 2^(1-20) on |mean|>=1,
        # so the sampled p collapses to the add-one floor
        x = np.ones(20)
        y = np.zeros(20)
        result = paired_signflip_test(x, y, n_perm=10_000, rng_seed=1)
        assert result.statistic == 1.0
        assert result.p_value < 0.001
        expected_hits = 10_000 * 2 ** (1 - 20)
        assert result.p_value <= (1 + math.ceil(expected_hits) + 3) / 10_001

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        fwd = paired_signflip_test(x, y, rng_seed=9)
        rev = paired_signflip_test(y, x, rng_seed=9)
        assert fwd.statistic == pytest.approx(-rev.statistic)
        assert fwd.p_value == rev.p_value

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_signflip_test([1.0, 2.0], [1.0])

    def test_calibration_under_null(self):
        # both samples from the same distribution: rejection rate at
        # alpha=0.05 must sit inside the binomial 95% interval
        from scipy.stats import binom

        runs = 200
        rejections = 0
        rng = np.random.default_rng(123)
        for i in range(runs):
            x = rng.normal(size=25)
            y = rng.normal(size=25)
            result = paired_signflip_test(x, y, n_perm=400, rng_seed=1000 + i)
            rejections += result.p_value <= 0.05
        low, high = binom.interval(0.95, runs, 0.05)
        assert low <= rejections <= high


def _paired_samples(n, kind):
    """x, y whose differences hold zeros, -0.0 and ties ("integers") or are
    all distinct ("normal")."""
    rng = np.random.default_rng(n)
    if kind == "normal":
        return rng.normal(size=n), rng.normal(size=n)
    x = rng.integers(-3, 4, size=n).astype(float)
    x[::4] = -0.0
    return x, np.zeros(n)


class TestChunkedSignFlip:
    # The reference holds three (n_perm, n) temporaries, so pairs above 1e7
    # elements are left out of the grid.
    GRID = [
        (n, n_perm)
        for n in (2, 3, 21, 991, 1637, 32769)
        for n_perm in (1, 7, 997, 10_000)
        if n * n_perm <= 10_000_000
    ]

    @pytest.mark.parametrize("kind", ["integers", "normal"])
    @pytest.mark.parametrize(("n", "n_perm"), GRID)
    def test_matches_unchunked_reference(self, n, n_perm, kind):
        x, y = _paired_samples(n, kind)
        for seed in (0, 17):
            mine = paired_signflip_test(x, y, n_perm, seed)
            ref = paired_signflip_test_reference(x, y, n_perm, seed, "two-sided")
            assert mine == ref, (n, n_perm, kind, seed)

    def test_paper_size_memory_is_bounded(self):
        x, y = _paired_samples(991, "normal")
        tracemalloc.start()
        try:
            paired_signflip_test(x, y, n_perm=10_000, rng_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def _signed_steps(n, steps):
    """Differences drawn from `steps`, each with a random sign."""
    rng = np.random.default_rng(n)
    return rng.choice(steps, size=n) * rng.choice([-1.0, 1.0], size=n)


def _row_counter(monkeypatch):
    """Counts the null rows `paired_signflip_test` averages the unchunked way."""
    seen = {"rows": 0}
    row_means = stats._row_means

    def counting(bits, d):
        seen["rows"] += bits.shape[0]
        return row_means(bits, d)

    monkeypatch.setattr(stats, "_row_means", counting)
    return seen


class TestNullGuard:
    """The null means from one product give the reference's hit counts where
    rounding could decide a hit: exact ties, and ties that round apart."""

    @pytest.mark.parametrize("n", range(3, 26))
    def test_integer_ties_are_exact(self, n, monkeypatch):
        d = _signed_steps(n, [0.0, 1.0])
        assert stats._null_bound(d) == 0.0
        seen = _row_counter(monkeypatch)
        ties = 0
        for seed in (0, 1, 2):
            signs = np.random.default_rng(seed).integers(0, 2, size=(997, n)) * 2 - 1
            ties += np.count_nonzero(np.abs((signs * d).mean(axis=1)) == abs(d.mean()))
            mine = paired_signflip_test(d, np.zeros(n), 997, seed)
            assert mine == paired_signflip_test_reference(d, np.zeros(n), 997, seed)
        assert ties > 0
        assert seen["rows"] == 0

    def test_ties_that_round_apart_are_recomputed(self, monkeypatch):
        # sums of +-0.1, +-0.2 and +-0.3 that tie in decimal differ in the
        # last bits, and the two paths round them differently
        seen = _row_counter(monkeypatch)
        for n in range(3, 26):
            d = _signed_steps(n, [0.1, 0.2, 0.3])
            for seed in (0, 1):
                mine = paired_signflip_test(d, np.zeros(n), 2000, seed)
                assert mine == paired_signflip_test_reference(d, np.zeros(n), 2000, seed), n
        assert seen["rows"] > 0

    def test_an_error_just_inside_the_bound_keeps_every_p_value(self, monkeypatch):
        # sums of quarters are exact on both paths, so the perturbation is the
        # only difference between them
        fast_null = stats._fast_null
        noise = np.random.default_rng(99)

        def perturbed(bits, d, total):
            null = fast_null(bits, d, total)
            return null + 0.99 * stats._null_bound(d) * noise.choice([-1.0, 1.0], size=null.size)

        monkeypatch.setattr(stats, "_fast_null", perturbed)
        seen = _row_counter(monkeypatch)
        for n in range(3, 26):
            d = _signed_steps(n, [0.25, 0.5, 1.5])
            assert stats._null_bound(d) > 0.0
            for seed in (0, 1):
                mine = paired_signflip_test(d, np.zeros(n), 2000, seed)
                assert mine == paired_signflip_test_reference(d, np.zeros(n), 2000, seed), n
        assert seen["rows"] > 0

    def test_bound_covers_the_product_on_spread_out_differences(self):
        for n in (2, 3, 25, 991):
            rng = np.random.default_rng(n)
            d = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
            bits = rng.integers(0, 2, size=(500, n)).astype(float)
            error = np.abs(stats._fast_null(bits, d, float(d.sum())) - stats._row_means(bits, d))
            assert error.max() <= stats._null_bound(d)

    def test_overflowing_sums_average_every_row(self, monkeypatch):
        seen = _row_counter(monkeypatch)
        x = np.array([1e308, -1e308, 1e308, 5e307])
        assert stats._null_bound(x) == math.inf
        with np.errstate(over="ignore"):
            mine = paired_signflip_test(x, np.zeros(4), 300, 5)
            assert mine == paired_signflip_test_reference(x, np.zeros(4), 300, 5)
        assert seen["rows"] == 300


class TestSignFlipStream:
    """The raw-word signs are the draws of `integers(0, 2)`; a numpy change to
    either stream fails here before it changes a p-value."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 7])
    @pytest.mark.parametrize(("k", "n"), [(1, 1), (1, 3), (7, 5), (33, 991), (3, 32769)])
    def test_one_draw_matches_integers(self, seed, k, n):
        bits = _sign_bits(np.random.default_rng(seed).bit_generator, k * n)
        expected = np.random.default_rng(seed).integers(0, 2, size=(k, n))
        np.testing.assert_array_equal(bits.reshape(k, n), expected)

    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_even_chunks_stay_aligned(self, seed):
        gen = np.random.default_rng(seed).bit_generator
        drawn = np.concatenate([_sign_bits(gen, m) for m in (2, 64, 1000, 2, 31)])
        expected = np.random.default_rng(seed).integers(0, 2, size=drawn.size)
        np.testing.assert_array_equal(drawn, expected)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_signflip_rejects_non_finite_difference(self, bad):
        with pytest.raises(ValueError, match="finite"):
            paired_signflip_test([bad, 1.0, 2.0], [0.0, 0.0, 0.0])

    def test_signflip_rejects_no_permutations(self):
        with pytest.raises(ValueError, match="n_perm"):
            paired_signflip_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], n_perm=0)

    def test_bh_rejects_nan(self):
        with pytest.raises(ValueError):
            bh_fdr([0.01, math.nan])

    def test_wilcoxon_rejects_nan_difference(self):
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([math.nan, 1.0, 2.0], [0.0, 0.0, 0.0])


class TestBH:
    def test_single_p_unchanged(self):
        assert bh_fdr([0.2]) == [pytest.approx(0.2)]

    def test_textbook_step_up(self):
        assert bh_fdr([0.01, 0.02, 0.03, 0.04]) == pytest.approx([0.04] * 4)

    def test_all_ones(self):
        assert bh_fdr([1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]

    def test_order_preserved(self):
        p = [0.04, 0.01, 0.03, 0.02]
        adjusted = bh_fdr(p)
        assert adjusted == pytest.approx([0.04, 0.04, 0.04, 0.04])
        p = [0.5, 0.001, 0.9]
        adjusted = bh_fdr(p)
        assert adjusted[1] == pytest.approx(0.003)
        assert adjusted[0] == pytest.approx(0.75)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bh_fdr([0.5, 1.5])

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30))
    def test_adjusted_at_least_raw_and_at_most_one(self, p):
        adjusted = bh_fdr(p)
        for raw, adj in zip(p, adjusted):
            assert adj >= raw - 1e-12
            assert adj <= 1.0 + 1e-12


class TestWilcoxon:
    def test_all_improved_n70(self):
        x = np.linspace(0.5, 0.62, 70)
        y = x + 0.15
        result = wilcoxon_signed_rank(x, y, alternative="less")
        assert result.statistic == 0.0
        assert result.p_value < 0.001
        assert result.n == 70

    def test_antisymmetric_pair(self):
        result = wilcoxon_signed_rank([1.0, -1.0], [0.0, 0.0])
        assert result.p_value == 1.0

    def test_all_zero_differences_degenerate(self):
        result = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert result.p_value == 1.0 and result.n == 0

    def test_seven_pairs_one_direction(self):
        # minimal two-sided exact p at n=7 is 2/2^7 = 1/64
        x = np.arange(7.0)
        result = wilcoxon_signed_rank(x, x + 1.0)
        assert result.p_value == pytest.approx(1 / 64)

    def test_textbook_ten_pairs_against_enumeration(self):
        x = np.array([125.0, 115, 130, 140, 140, 115, 140, 125, 140, 135])
        y = np.array([110.0, 122, 125, 120, 140, 124, 123, 137, 135, 145])
        mine = wilcoxon_signed_rank(x, y)
        ref = wilcoxon_exact_enumeration(x, y)
        assert mine.statistic == ref.statistic
        assert mine.p_value == pytest.approx(ref.p_value, abs=1e-12)

    @pytest.mark.parametrize("alternative", ["two-sided", "less", "greater"])
    def test_exact_path_matches_enumeration(self, alternative):
        rng = np.random.default_rng(77)
        for n in (3, 5, 8, 10, 12):
            for _ in range(4):
                x = rng.integers(-3, 6, size=n).astype(float)
                y = rng.integers(-3, 6, size=n).astype(float)
                mine = wilcoxon_signed_rank(x, y, alternative)
                ref = wilcoxon_exact_enumeration(x, y, alternative)
                assert mine.p_value == pytest.approx(ref.p_value, abs=1e-12), (x, y)

    def test_normal_path_close_to_exact_at_boundary(self):
        # one negative difference, the smallest, so W = 1: of the 2**n sign
        # assignments, W+ <= 1 for two, and the exact two-sided p is 4 / 2**n
        d = np.arange(1.0, 27.0)
        d[0] = -1.0
        assert wilcoxon_exact_enumeration(d[:12], np.zeros(12)).p_value == 4 / 2**12
        for n in (12, 25):
            assert wilcoxon_signed_rank(d[:n], np.zeros(n)).p_value == 4 / 2**n
        # 26 pairs take the normal approximation with continuity correction:
        # p = 2 Phi((W - mu + 0.5) / sigma)
        mu, sigma = 26 * 27 / 4, math.sqrt(26 * 27 * 53 / 24)
        normal = wilcoxon_signed_rank(d, np.zeros(26))
        assert normal.p_value == pytest.approx(1 + math.erf((1.5 - mu) / sigma / math.sqrt(2)))


class TestCorrelations:
    def test_identical_rankings(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_shifted_predictions(self):
        pred = np.array([1.0, 2.0, 3.0]) + 0.7
        true = np.array([1.0, 2.0, 3.0])
        assert mae(pred, true) == pytest.approx(0.7)
        assert pearson(pred, true) == pytest.approx(1.0)

    def test_zero_variance_returns_zero(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
        assert spearman([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) == 0.0

    def test_average_ranks_match_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for trial in range(500):
            n = int(rng.integers(0, 40))
            a = rng.integers(-3, 4, size=n).astype(float)  # ties
            a[rng.random(n) < 0.15] = np.nan
            a[a == 0] *= np.where(rng.random(np.count_nonzero(a == 0)) < 0.5, -1.0, 1.0)
            if trial % 2:
                a += rng.normal(size=n) * (rng.random(n) < 0.5)  # some values unique
            mine = _average_ranks(a)
            assert mine.tobytes() == average_ranks_reference(a).tobytes(), a
        signed_zeros = np.array([0.0, -0.0, np.nan, -0.0, 1.0, np.nan, 0.0])
        assert _average_ranks(signed_zeros).tolist() == [2.5, 2.5, 6.0, 2.5, 5.0, 7.0, 2.5]

    def test_spearman_matches_scipy(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.normal(size=20)
            y = rng.integers(0, 5, size=20).astype(float)  # ties likely
            assert spearman(x, y) == pytest.approx(spearmanr(x, y).statistic, abs=1e-12)

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=20, unique=True),
        st.sampled_from(["exp", "cube", "affine"]),
    )
    def test_spearman_invariant_under_monotone_transform(self, xs, transform):
        rng = np.random.default_rng(len(xs))
        ys = rng.normal(size=len(xs))
        fns = {
            "exp": lambda v: math.exp(v / 25),
            "cube": lambda v: v**3,
            "affine": lambda v: 3 * v + 2,
        }
        base = spearman(xs, ys)
        warped = spearman([fns[transform](v) for v in xs], ys)
        assert warped == pytest.approx(base, abs=1e-9)


class TestBuilderComparison:
    def test_csv_shape_and_bh(self):
        rng = np.random.default_rng(0)
        values = {
            builder: {
                f"s{i}": {"n_nodes": float(rng.integers(5, 30)), "density": float(rng.random())}
                for i in range(12)
            }
            for builder in ("coocc_WS2", "coocc_WS3", "TFMN")
        }
        lines = list(builder_comparison_rows(values, n_perm=200, rng_seed=0))
        assert lines[0] == ("feature", "builder_a", "builder_b", "mean_difference", "p_raw", "p_bh")
        assert len(lines) == 1 + 3 * 2  # 3 builder pairs x 2 features
        for parts in lines[1:]:
            assert 0.0 <= parts[4] <= 1.0
            assert parts[5] >= parts[4] - 1e-12
            assert all(type(v) is float for v in parts[3:])
