import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fit_tree_reference, knn_predict_reference, linear_coefficients
from synthetic import planted_feature_rows

from storynets.mlharness import (
    MODEL_KINDS,
    FeatureTable,
    ModelSpec,
    SingularDesignWarning,
    fit,
    predict_matrix,
)
from storynets.mlharness import models, trees
from storynets.mlharness.trees import fit_tree


def rows_from_arrays(X, y, names=None):
    X = np.asarray(X, dtype=float)
    return FeatureTable(
        story_ids=tuple(f"s{i:03d}" for i in range(X.shape[0])),
        names=tuple(names or (f"f{i:02d}" for i in range(X.shape[1]))),
        X=X,
        y=np.asarray(y, dtype=float),
        builder_tag="synthetic",
        config="All",
    )


# fewer trees than the reference configuration, for speed; the other kinds
# take no hyperparameter
SMALL = {
    "random_forest": {"n_estimators": 25},
    "gradient_boosting": {"n_estimators": 60},
}


class TestModelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelSpec("perceptron")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ValueError):
            ModelSpec("linear", {"depth": 3})

    @pytest.mark.parametrize("kind, key", [
        ("linear", "ridge_lambda"),
        ("knn", "n_neighbors"), ("knn", "weights"), ("knn", "p"),
        ("decision_tree", "max_depth"), ("decision_tree", "min_samples_leaf"),
        ("decision_tree", "min_impurity_decrease"),
        ("random_forest", "min_samples_leaf"), ("random_forest", "max_features"),
        ("random_forest", "bootstrap"), ("random_forest", "max_depth"),
        ("gradient_boosting", "learning_rate"), ("gradient_boosting", "max_depth"),
        ("gradient_boosting", "subsample"), ("gradient_boosting", "min_samples_leaf"),
        ("linear", "n_estimators"), ("knn", "n_estimators"), ("decision_tree", "n_estimators"),
    ])
    def test_fixed_settings_are_unknown_hyperparameters(self, kind, key):
        with pytest.raises(ValueError, match=f"unknown hyperparameter '{key}' for {kind}"):
            ModelSpec(kind, {key: 1})

    def test_value_validation(self):
        for kind, value in [
            ("random_forest", 2.0),
            ("gradient_boosting", True),
            ("random_forest", 0),
            ("gradient_boosting", -3),
            ("random_forest", "500"),
        ]:
            with pytest.raises(ValueError, match="n_estimators must be an int >= 1"):
                ModelSpec(kind, {"n_estimators": value})

    def test_numpy_int_tree_counts_accepted(self):
        assert ModelSpec("random_forest", {"n_estimators": np.int64(3)}).hyperparameters == {
            "n_estimators": 3
        }
        ModelSpec("gradient_boosting", {"n_estimators": np.int32(1)})


class TestLinear:
    def test_recovers_plain_line(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 1))
        y = 2.0 * X[:, 0] + 1.0
        model = fit(ModelSpec("linear"), rows_from_arrays(X, y))
        coef, intercept = linear_coefficients(model)
        assert coef[0] == pytest.approx(2.0, abs=1e-9)
        assert intercept == pytest.approx(1.0, abs=1e-9)

    def test_multifeature_exact_interpolation(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 4))
        coef = np.array([1.5, -2.0, 0.25, 3.0])
        y = X @ coef - 0.5
        model = fit(ModelSpec("linear"), rows_from_arrays(X, y))
        np.testing.assert_allclose(linear_coefficients(model)[0], coef, atol=1e-9)
        preds = predict_matrix(model, X)
        np.testing.assert_allclose(preds, y, atol=1e-9)

    def test_singular_design_falls_back_to_ridge(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        X = np.column_stack([x, x])  # duplicated column
        y = x * 3.0
        with pytest.warns(SingularDesignWarning):
            model = fit(ModelSpec("linear"), rows_from_arrays(X, y))
        preds = predict_matrix(model, X)
        np.testing.assert_allclose(preds, y, atol=1e-4)


class TestAllModels:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_constant_target_predicted_exactly(self, kind):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = np.full(40, 2.5)
        model = fit(ModelSpec(kind, SMALL.get(kind, {})), rows_from_arrays(X, y))
        preds = predict_matrix(model, rng.normal(size=(10, 3)))
        np.testing.assert_allclose(preds, 2.5, atol=1e-9)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_determinism_bit_exact(self, kind):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 4))
        y = X[:, 0] - X[:, 2] + 0.1 * rng.normal(size=50)
        rows = rows_from_arrays(X, y)
        X_test = rng.normal(size=(20, 4))
        a = predict_matrix(fit(ModelSpec(kind, SMALL.get(kind, {}), rng_seed=42), rows), X_test)
        b = predict_matrix(fit(ModelSpec(kind, SMALL.get(kind, {}), rng_seed=42), rows), X_test)
        assert np.array_equal(a, b)

    def test_minimum_training_rows_enforced(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 2))
        y = X[:, 0]
        with pytest.raises(ValueError, match="knn needs at least 15 training rows, got 10"):
            fit(ModelSpec("knn"), rows_from_arrays(X, y))
        with pytest.raises(ValueError, match="linear needs at least 5 training rows, got 3"):
            fit(ModelSpec("linear"), rows_from_arrays(X[:3], y[:3]))
        assert [models.min_training_rows(kind) for kind in MODEL_KINDS] == [5, 15, 5, 5, 5]

    def test_feature_name_mismatch_rejected(self):
        # one name set per table: a name list that does not match the
        # columns is refused when the table is built
        with pytest.raises(ValueError, match="feature name"):
            rows_from_arrays(np.zeros((6, 2)), np.zeros(6), names=["weird", "names", "extra"])


class TestKNN:
    def test_exact_match_returns_neighbour_target(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        knn = models._KNN(X, y, 3)
        assert knn.predict(np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0)

    def test_distance_weighting_prefers_nearer(self):
        X = np.array([[0.0], [10.0], [1.6], [-10.0], [20.0]])
        y = np.array([1.0, 5.0, 1.0, 5.0, 5.0])
        knn = models._KNN(X, y, 5)
        assert knn.predict(np.array([[0.1]]))[0] < 3.0

    @pytest.mark.parametrize("k", [1, 4, 15])
    def test_blocks_match_one_row_reference_on_ties(self, k):
        # an integer design with few levels, z-scaled as `fit` does: many
        # equal distances, many exact zeros (queries drawn from the training
        # rows), a row with a NaN (predicted NaN) and a query count that
        # leaves a short last block
        rng = np.random.default_rng(100 * k + 1)
        X = rng.integers(0, 3, size=(40, 3)).astype(float)
        scaler = models.Scaler.fit(X)
        knn = models._KNN(scaler.transform(X), rng.normal(size=40), k)
        queries = np.vstack([X[:13], rng.integers(0, 3, size=(10, 3)), rng.normal(size=(6, 3)),
                             [[1.0, np.nan, 0.0]]])
        scaled = scaler.transform(queries)
        got = knn.predict(scaled)
        assert np.isnan(got[-1]) and not np.isnan(got[:-1]).any()
        assert got.tobytes() == knn_predict_reference(knn, scaled).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        cells=st.lists(st.integers(0, 2), min_size=24, max_size=96),
        k=st.integers(1, 6),
    )
    def test_blocks_match_one_row_reference_on_integer_grids(self, cells, k):
        X = np.asarray(cells[: len(cells) // 3 * 3], dtype=float).reshape(-1, 3)
        y = X[:, 0] - 0.5 * X[:, 1] + 0.25 * X[:, 2]
        scaled = models.Scaler.fit(X).transform(X)
        knn = models._KNN(scaled, y, k)
        assert knn.predict(scaled).tobytes() == knn_predict_reference(knn, scaled).tobytes()

    def test_trained_scaler_exposed(self):
        rng = np.random.default_rng(8)
        X = rng.normal(loc=5.0, scale=2.0, size=(30, 2))
        y = X[:, 0]
        model = fit(ModelSpec("knn"), rows_from_arrays(X, y))
        np.testing.assert_allclose(model.scaler.mean, X.mean(axis=0))
        np.testing.assert_allclose(model.scaler.scale, X.std(axis=0))


def screen_designs():
    """(name, training design, queries) on which the float32 screen of
    `_KNN.predict` alone would keep the wrong rows."""
    ulp = 2.0**-52
    steps = np.array([5, 3, 3, 1, 0, 2, 4, 0, 6], dtype=float)  # nearest last, with ties
    # exact distances one float64 ulp apart: float32 rounds all rows to one value
    ulp_apart = np.column_stack([1.0 + steps * ulp, np.full(steps.size, 0.5)])
    # rows whose rounding to float32 reverses the order of their exact distances
    e = 2.0**-23  # float32 spacing at 1
    reversed_ = np.array([
        [1 + 1.4 * e, 1.0], [1 + 0.6 * e, 1 + 0.6 * e], [1 + 1.3 * e, 1 + 0.2 * e],
        [1 + 0.55 * e, 1 + 0.7 * e], [1 + 0.6 * e, 1 + 0.6 * e], [1.0, 1 + 1.45 * e],
    ])
    # 3.5e38 and 1e39 overflow float32; the row at 3.5e38 is the nearest to 3.3e38
    big = np.array([[2e38, 1.0], [1e39, 1.0], [3.5e38, 1.0], [1e39 + 2.0**77, 1.0],
                    [1e39 - 2.0**77, 1.0], [-3e38, 1.0], [3.5e38, 1.0 + ulp]])
    # float32 subnormals: 2**-149 apart, and 1e-40 is ~71,000 of them
    d = 2.0**-149
    a = 71362 * d
    tiny = np.array([
        [a + 1.4 * d, a], [a + 0.6 * d, a + 0.6 * d], [a + 1.3 * d, a + 0.2 * d],
        [a + 0.6 * d, a + 0.6 * d], [a * (1 + 3 * ulp), a], [a * (1 + ulp), a],
        [a, a * (1 + 2 * ulp)], [0.0, 2 * a],
    ])
    return [
        ("ulp_apart", ulp_apart, np.array([[0.0, 0.5], [2.0, 0.5], [1.0, 0.5]])),
        ("reversed", reversed_, np.array([[0.0, 0.0], [2.0, 2.0 + 2 * e]])),
        ("overflow", big, np.array([[3.3e38, 1.0], [1e39, 1.0], [0.0, 1.0], [-1e39, 0.0]])),
        ("subnormal", tiny, np.array([[0.0, 0.0], [2 * a, 2 * a], [a, 0.0]])),
    ]


def screen_mismatches():
    """The cases (design, k) where `_KNN.predict` differs from the one-row
    reference by a single byte."""
    found = []
    for name, X, queries in screen_designs():
        y = np.arange(1.0, X.shape[0] + 1.0) ** 2
        for k in (1, X.shape[0]):
            knn = models._KNN(X, y, k)
            expected = knn_predict_reference(knn, queries)
            if knn.predict(queries).tobytes() != expected.tobytes():
                found.append((name, k))
    return found


class TestKNNScreen:
    def test_screen_keeps_the_exact_neighbours(self):
        assert screen_mismatches() == []

    def test_a_bound_100_times_too_small_is_caught(self, monkeypatch):
        bound = models._screen_bound
        monkeypatch.setattr(models, "_screen_bound", lambda reach: bound(reach) / 100)
        found = screen_mismatches()
        assert {name for name, _ in found} >= {"reversed", "subnormal"}

    def test_screen_leaves_few_exact_distances(self):
        # on spread-out rows the screen rules out all but a handful of rows
        # per query, and never leaves fewer than k
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 6))
        knn = models._KNN(X, rng.normal(size=500), 5)
        queries = rng.normal(size=(70, 6))
        rows, _ = knn._candidates(queries[:64])
        counts = np.bincount(rows, minlength=64)
        assert counts.min() >= 5 and counts.max() < 50
        assert knn.predict(queries).tobytes() == knn_predict_reference(knn, queries).tobytes()

class TestTreesRawFeatures:
    def test_tree_models_are_scale_free(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float)
        rows = rows_from_arrays(X, y)
        model = fit(ModelSpec("decision_tree"), rows)
        assert model.scaler is None
        scaled_rows = rows_from_arrays(X * 1000.0, y)
        model_scaled = fit(ModelSpec("decision_tree"), scaled_rows)
        np.testing.assert_allclose(
            predict_matrix(model, X), predict_matrix(model_scaled, X * 1000.0)
        )

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(200, 1))
        y = np.sin(3 * X[:, 0])
        stump = fit_tree(X, y, max_depth=1)
        assert len(set(trees.predict_tree(stump, X).tolist())) <= 2


def tied_design(seed, n=90):
    """Rows drawn with replacement (as a bootstrap does) from a design full of ties.

    Columns: small integers, a constant, a continuous column, a one-decimal
    rounding of it, a binary column and an exact copy of column 0 (so two
    features can offer the same best gain).  The target repeats values.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(size=n)
    X = np.column_stack([
        rng.integers(0, 4, size=n),
        rng.integers(0, 10, size=n),
        np.full(n, 2.0),
        base,
        np.round(base, 1),
        rng.integers(0, 2, size=n),
    ]).astype(float)
    X = np.column_stack([X, X[:, 0]])
    # one decimal: values repeat, and their sums depend on the order they are added in
    y = np.round(X[:, 0] + 0.7 * X[:, 5] + rng.normal(scale=0.8, size=n), 1)
    rows = rng.integers(0, n, size=n)
    return X[rows], y[rows]


def assert_same_fit(X, y, seed, **kwargs):
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    fast = fit_tree(X, y, rng=rng_fast, **kwargs)
    ref = fit_tree_reference(X, y, rng=rng_ref, **kwargs)
    for field in ("feature", "threshold", "left", "right", "value"):
        assert getattr(fast, field).tobytes() == getattr(ref, field).tobytes(), field
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("min_samples_leaf", [1, 3, 5])
@pytest.mark.parametrize("max_features", [None, 0.7])
@pytest.mark.parametrize("max_depth", [None, 2, 4])
@pytest.mark.parametrize("min_impurity_decrease", [0.0, 0.01])
def test_fit_tree_matches_reference_splitter(min_samples_leaf, max_features, max_depth,
                                             min_impurity_decrease):
    for data_seed in range(3):
        X, y = tied_design(data_seed)
        assert_same_fit(
            X, y, seed=100 + data_seed, max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_impurity_decrease=min_impurity_decrease, max_features=max_features,
        )


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.integers(0, 3), min_size=12, max_size=120),
    min_samples_leaf=st.integers(1, 4),
    max_features=st.sampled_from([None, 0.5, 0.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_tree_matches_reference_on_integer_grids(cells, min_samples_leaf, max_features, seed):
    X = np.asarray(cells[: len(cells) // 4 * 4], dtype=float).reshape(-1, 4)
    y = X[:, 0] * 0.1 - X[:, 2] * 0.7 + (X[:, 1] > 1) * 0.3
    assert_same_fit(X, y, seed=seed, min_samples_leaf=min_samples_leaf,
                    max_features=max_features)



def assert_same_tree(fast, ref):
    for field in ("feature", "threshold", "left", "right", "value"):
        assert getattr(fast, field).tobytes() == getattr(ref, field).tobytes(), field


def forest_reference_trees(X, y, seed, n_estimators):
    """Each forest tree from `fit_tree_reference` on its bootstrap rows, drawn
    from the generators `fit_forest` uses, at the forest's settings."""
    rng = np.random.default_rng(seed)
    out = []
    for tree_seed in rng.integers(0, 2**63 - 1, size=n_estimators):
        tree_rng = np.random.default_rng(int(tree_seed))
        idx = tree_rng.integers(0, y.size, size=y.size)
        out.append(fit_tree_reference(X[idx], y[idx], min_samples_leaf=5, max_features=0.7,
                                      rng=tree_rng))
    return out


def boosting_reference_trees(X, y, seed, n_estimators):
    """Each boosting tree from `fit_tree_reference` on its subsample of the
    running residual, drawn from the generator `fit_boosting` uses, at the
    boosting settings."""
    rng = np.random.default_rng(seed)
    residual = y - y.mean()
    out = []
    for _ in range(n_estimators):
        idx = rng.permutation(y.size)[: int(round(0.7 * y.size))]
        tree = fit_tree_reference(X[idx], residual[idx], max_depth=2, min_samples_leaf=3, rng=rng)
        tree.value *= 0.01
        residual -= trees.predict_tree(tree, X)
        out.append(tree)
    return out


@settings(max_examples=25, deadline=None)
@given(
    cells=st.lists(st.integers(0, 3), min_size=24, max_size=120),
    seed=st.integers(0, 2**32 - 1),
)
def test_forest_trees_match_reference_on_integer_grids(cells, seed):
    X = np.asarray(cells[: len(cells) // 4 * 4], dtype=float).reshape(-1, 4)
    y = X[:, 0] * 0.1 - X[:, 2] * 0.7 + (X[:, 1] > 1) * 0.3
    forest = trees.fit_forest(X, y, np.random.default_rng(seed), n_estimators=4)
    for fast, ref in zip(forest.trees, forest_reference_trees(X, y, seed, 4), strict=True):
        assert_same_tree(fast, ref)


@settings(max_examples=25, deadline=None)
@given(
    cells=st.lists(st.integers(0, 3), min_size=24, max_size=120),
    seed=st.integers(0, 2**32 - 1),
)
def test_boosting_trees_match_reference_on_integer_grids(cells, seed):
    X = np.asarray(cells[: len(cells) // 4 * 4], dtype=float).reshape(-1, 4)
    y = X[:, 0] * 0.1 - X[:, 2] * 0.7 + (X[:, 1] > 1) * 0.3
    boosted = trees.fit_boosting(X, y, np.random.default_rng(seed), n_estimators=6)
    for fast, ref in zip(boosted.trees, boosting_reference_trees(X, y, seed, 6), strict=True):
        assert_same_tree(fast, ref)


@pytest.mark.parametrize("data_seed", range(3))
def test_ensemble_trees_match_reference_on_tied_designs(data_seed):
    X, y = tied_design(data_seed, n=120)
    forest = trees.fit_forest(X, y, np.random.default_rng(data_seed), n_estimators=5)
    for fast, ref in zip(forest.trees, forest_reference_trees(X, y, data_seed, 5), strict=True):
        assert_same_tree(fast, ref)
    boosted = trees.fit_boosting(X, y, np.random.default_rng(data_seed), n_estimators=8)
    for fast, ref in zip(boosted.trees, boosting_reference_trees(X, y, data_seed, 8),
                         strict=True):
        assert_same_tree(fast, ref)


class TestRankCodes:
    def test_signed_zeros_share_one_code(self):
        codes = trees.rank_codes(np.array([[0.0], [-0.0], [1.0], [-1.0], [0.0]]))
        assert codes.tolist() == [[1, 1, 2, 0, 1]]

    def test_dense_ranks_in_float_sort_order(self):
        rng = np.random.default_rng(3)
        X = rng.integers(-3, 4, size=(200, 3)) * 0.5
        X[::7, 1] = np.nan
        codes = trees.rank_codes(X)
        assert codes.dtype == np.uint16 and codes.shape == (3, 200)
        for j in range(3):
            _, inverse = np.unique(X[:, j], return_inverse=True, equal_nan=True)
            assert codes[j].tolist() == inverse.ravel().tolist()
            idx = rng.integers(0, 200, size=200)
            assert np.array_equal(np.argsort(codes[j][idx], kind="stable"),
                                  np.argsort(X[idx, j], kind="stable"))


# sha256 of the float64 predictions below, taken from the code as committed;
# a refactor of any model must leave every kind's predictions bit-identical
PREDICTION_DIGESTS = {
    "linear": "655f9b282126c0deae15453d9b66ad9b87b45763fe8d039a8de7ed843b8a8660",
    "knn": "5d0c2b7e6fe851c612a2966acc7eff2dea68e963a9f9094c8d95b5ba031cc765",
    "decision_tree": "be48f6c1818f81987a738d3e5ec23b38cc3d9c493bbee9f50b5639e4b6ca4f12",
    "random_forest": "9910965fd1ef9c90a9134d16b9635a57512a03820439c552a8b26132b99c601a",
    "gradient_boosting": "3499842e0e808d90e11e5831c47bdec4e726eb41aa997ff8b4f5406578308bac",
}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predictions_match_committed_digest(kind):
    rows, _ = planted_feature_rows(rng_seed=0)
    hp = {"random_forest": {"n_estimators": 7}, "gradient_boosting": {"n_estimators": 40}}
    model = fit(ModelSpec(kind, hp.get(kind, {}), rng_seed=11), rows[100:])
    preds = predict_matrix(model, rows[:100].X)
    assert hashlib.sha256(preds.tobytes()).hexdigest() == PREDICTION_DIGESTS[kind]
