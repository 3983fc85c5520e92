import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from storynets.stats import (
    CorrelationUndefinedWarning,
    bh_fdr,
    builder_comparison_rows,
    mae,
    paired_signflip_test,
    pearson,
    spearman,
    wilcoxon_signed_rank,
)

from oracles import wilcoxon_exact_enumeration


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

    def test_directional_alternatives(self):
        x = np.arange(10.0) + 1.0
        y = np.arange(10.0)
        less = paired_signflip_test(x, y, rng_seed=0, alternative="less")
        greater = paired_signflip_test(x, y, rng_seed=0, alternative="greater")
        assert greater.p_value < 0.01
        assert less.p_value > 0.99

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
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        y = x + rng.normal(scale=0.8, size=25)
        exact = wilcoxon_signed_rank(x, y)
        assert exact.method == "wilcoxon-signed-rank-exact"
        forced = wilcoxon_signed_rank(np.concatenate([x, [9.0]]), np.concatenate([y, [1.5]]))
        assert forced.method == "wilcoxon-signed-rank-normal"


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

    def test_zero_variance_warns_and_returns_zero(self):
        with pytest.warns(CorrelationUndefinedWarning):
            assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

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
        base = spearman(xs, ys, warn=False)
        warped = spearman([fns[transform](v) for v in xs], ys, warn=False)
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
