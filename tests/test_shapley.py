import numpy as np
import pytest

from storynets.mlharness import (
    ModelSpec,
    attribution_rows,
    fit,
    predict_matrix,
    shapley_attribution,
)

from oracles import linear_coefficients
from test_models import rows_from_arrays


def linear_setup(n_train=300, n_features=6, seed=0):
    """A linear model, the table it was trained on and its coefficients."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_train, n_features))
    coef = np.linspace(0.5, 2.0, n_features) * np.where(np.arange(n_features) % 2, -1, 1)
    y = X @ coef + 0.3
    rows = rows_from_arrays(X, y)
    return fit(ModelSpec("linear"), rows), rows, coef


def unrated(X):
    """Rows to explain, as a table whose targets are unused."""
    X = np.asarray(X, dtype=float)
    return rows_from_arrays(X, np.zeros(X.shape[0]))


class TestLinearOracle:
    def test_matches_exact_linear_shapley_within_five_percent(self):
        model, _, coef = linear_setup()
        # explained points far from the background mean so every expected
        # attribution is comfortably non-zero
        explained = np.sign(coef) * 2.0 * np.ones((2, coef.size))
        explained[1] *= -1.5
        result = shapley_attribution(model, unrated(explained), n_samples=2000, rng_seed=1)
        expected = linear_coefficients(model)[0] * (explained - model.background.mean(axis=0))
        rel_err = np.abs(result.values - expected) / np.abs(expected)
        assert rel_err.max() < 0.05

    def test_additivity_within_three_mc_standard_errors(self):
        model, rows, _ = linear_setup(seed=3)
        explained = rows[:5]
        result = shapley_attribution(model, explained, n_samples=1500, rng_seed=2)
        reconstructed = result.values.sum(axis=1) + result.base_value
        gap = np.abs(reconstructed - result.predictions)
        assert np.all(gap <= 3.0 * result.additivity_se + 1e-12)

    def test_base_value_is_background_mean_prediction(self):
        model, rows, _ = linear_setup(seed=4)
        result = shapley_attribution(model, rows[:1], n_samples=200, rng_seed=3)
        assert result.base_value == pytest.approx(
            float(predict_matrix(model, model.background).mean())
        )


class TestTreeBehaviour:
    def test_ignored_feature_gets_near_zero_attribution(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(float) * 4.0  # feature 0 only
        # a step in feature 0: the first split leaves pure leaves, so the tree is a stump
        model = fit(ModelSpec("decision_tree"), rows_from_arrays(X, y))
        assert model.estimator.trees[0].feature.tolist() == [0, -1, -1]
        explained = unrated([[2.0, 3.0, -3.0], [-2.0, -3.0, 3.0]])
        result = shapley_attribution(model, explained, n_samples=1500, rng_seed=4)
        prediction_range = 4.0
        assert np.all(np.abs(result.values[:, 1:]) < 0.01 * prediction_range)
        assert np.all(np.abs(result.values[:, 0]) > 0.5)

    def test_additivity_for_boosted_model(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(120, 4))
        y = X[:, 0] * X[:, 1] + X[:, 2]
        rows = rows_from_arrays(X, y)
        model = fit(ModelSpec("gradient_boosting", {"n_estimators": 40}), rows)
        result = shapley_attribution(model, rows[:3], n_samples=600, rng_seed=5)
        reconstructed = result.values.sum(axis=1) + result.base_value
        gap = np.abs(reconstructed - result.predictions)
        assert np.all(gap <= 3.0 * result.additivity_se + 1e-12)


class TestInterface:
    def test_too_few_samples_rejected(self):
        model, rows, _ = linear_setup(n_train=50, n_features=2, seed=7)
        with pytest.raises(ValueError, match="n_samples"):
            shapley_attribution(model, rows[:1], n_samples=50)

    def test_feature_rows_accepted(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 2))
        rows = rows_from_arrays(X, X[:, 0])
        model = fit(ModelSpec("linear"), rows)
        result = shapley_attribution(model, rows[:2], n_samples=200, rng_seed=6)
        assert result.values.shape == (2, 2)

    def test_other_feature_names_rejected(self):
        model, rows, _ = linear_setup(n_train=40, n_features=2, seed=8)
        other = rows_from_arrays(rows.X[:2], rows.y[:2], names=["f01", "f00"])
        with pytest.raises(ValueError, match="columns differ"):
            shapley_attribution(model, other, n_samples=200)

    def test_determinism(self):
        model, rows, _ = linear_setup(n_train=60, n_features=3, seed=9)
        a = shapley_attribution(model, rows[:2], n_samples=300, rng_seed=7)
        b = shapley_attribution(model, rows[:2], n_samples=300, rng_seed=7)
        assert np.array_equal(a.values, b.values)

    def test_csv_export(self):
        model, rows, _ = linear_setup(n_train=60, n_features=3, seed=10)
        result = shapley_attribution(model, rows[:2], n_samples=200, rng_seed=8)
        lines = list(attribution_rows(["a", "b"], result))
        assert lines[0] == ("story_id", *model.feature_names)
        assert len(lines) == 3
        assert all(type(v) is float for row in lines[1:] for v in row[1:])
