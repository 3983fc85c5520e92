import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from storynets.mlharness import (
    CorpusFeatures,
    EvalResult,
    FeatureTable,
    ModelSpec,
    fit,
    fold_models,
    kfold_cv,
    make_folds,
    permutation_baseline,
    permute_columns,
    predict_matrix,
    run_matrix,
    select_best,
)
from storynets.mlharness import cv
from storynets.mlharness.models import SingularDesignWarning
from storynets.seeding import derive_seed

from synthetic import planted_feature_rows
from test_models import SMALL, rows_from_arrays


class TestMakeFolds:
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=8, max_value=120),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_partition_properties(self, k, n, seed):
        folds = make_folds(n, k, seed)
        flat = np.concatenate(folds)
        assert len(flat) == n
        assert set(flat.tolist()) == set(range(n))  # every row in exactly one fold
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_cuts_the_permutation_as_the_running_offset_loop_did(self):
        for n in range(4, 40):
            for k in range(2, min(n, 9) + 1):
                order = np.random.default_rng(n * k).permutation(n)
                sizes = [n // k + (i < n % k) for i in range(k)]
                expected = np.split(order, np.cumsum(sizes)[:-1])
                folds = make_folds(n, k, n * k)
                assert len(folds) == k
                assert all(np.array_equal(f, e) and f.dtype == e.dtype
                           for f, e in zip(folds, expected))

    def test_fewer_rows_than_folds(self):
        with pytest.raises(ValueError):
            make_folds(3, 4, 0)

    def test_deterministic_for_seed(self):
        a = make_folds(50, 4, 99)
        b = make_folds(50, 4, 99)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestKfoldCV:
    def test_perfect_predictor_on_noiseless_data(self):
        rows, _ = planted_feature_rows(n_rows=80, n_features=3, noise=0.0, rng_seed=1)
        result = kfold_cv(rows, ModelSpec("linear"), k=4, rng_seed=0)
        assert result.mae == pytest.approx(0.0, abs=1e-9)
        assert result.spearman == pytest.approx(1.0)
        assert result.pearson == pytest.approx(1.0)

    def test_identical_seed_identical_metrics(self):
        rows, _ = planted_feature_rows(n_rows=60, n_features=4, noise=0.3, rng_seed=2)
        a = kfold_cv(rows, ModelSpec("gradient_boosting", SMALL["gradient_boosting"], rng_seed=3), k=4, rng_seed=5)
        b = kfold_cv(rows, ModelSpec("gradient_boosting", SMALL["gradient_boosting"], rng_seed=3), k=4, rng_seed=5)
        assert a.fold_maes == b.fold_maes
        assert a.predictions == b.predictions

    def test_aggregate_is_mean_of_folds(self):
        rows, _ = planted_feature_rows(n_rows=46, n_features=3, noise=0.5, rng_seed=3)
        result = kfold_cv(rows, ModelSpec("linear"), k=4, rng_seed=4)
        assert result.mae == pytest.approx(np.mean(result.fold_maes), abs=1e-12)
        assert result.spearman == pytest.approx(np.mean(result.fold_spearmans), abs=1e-12)

    def test_every_story_predicted_once(self):
        rows, _ = planted_feature_rows(n_rows=37, n_features=2, noise=0.2, rng_seed=4)
        result = kfold_cv(rows, ModelSpec("linear"), k=4, rng_seed=6)
        assert set(result.predictions) == set(rows.story_ids)

    def test_no_leakage_into_scaler(self):
        # an extreme outlier placed in a test fold must not touch the
        # training-side standardisation of that fold's model
        planted, _ = planted_feature_rows(n_rows=24, n_features=2, noise=0.0, rng_seed=5)
        rows = FeatureTable(
            story_ids=planted.story_ids + ("outlier",),
            names=planted.names,
            X=np.vstack([planted.X, [[1e6, -1e6]]]),
            y=np.append(planted.y, 0.0),
            builder_tag="synthetic",
            config="All",
        )
        k, seed = 5, 11
        result = kfold_cv(rows, ModelSpec("linear"), k=k, rng_seed=seed)
        folds = make_folds(len(rows), k, seed)
        outlier_fold = next(
            i for i, fold in enumerate(folds) if (len(rows) - 1) in fold.tolist()
        )
        test_idx = folds[outlier_fold]
        train_rows = rows[[i for i in range(len(rows)) if i not in set(test_idx.tolist())]]
        manual_spec = ModelSpec("linear", rng_seed=derive_seed(0, "fold", outlier_fold))
        manual = fit(manual_spec, train_rows)
        assert "outlier" not in train_rows.story_ids
        assert np.all(np.abs(manual.scaler.mean) < 1e3)  # untouched by the 1e6 outlier
        preds = predict_matrix(manual, rows.X[test_idx])
        for i, pred in zip(test_idx, preds):
            assert result.predictions[rows.story_ids[i]] == pytest.approx(pred, abs=1e-12)


class TestFeatureTable:
    def test_slice_and_index_array_select_rows(self):
        table, _ = planted_feature_rows(n_rows=10, n_features=3, noise=0.1, rng_seed=12)
        head = table[:4]
        assert head.story_ids == table.story_ids[:4]
        assert np.array_equal(head.X, table.X[:4]) and np.array_equal(head.y, table.y[:4])
        picked = table[np.array([7, 2])]
        assert picked.story_ids == (table.story_ids[7], table.story_ids[2])
        assert np.array_equal(picked.X, table.X[[7, 2]])
        assert (picked.names, picked.builder_tag, picked.config) == (
            table.names, table.builder_tag, table.config
        )

    def test_target_length_checked(self):
        table, _ = planted_feature_rows(n_rows=10, n_features=3, noise=0.1, rng_seed=13)
        with pytest.raises(ValueError, match="feature table"):
            FeatureTable(table.story_ids, table.names, table.X, table.y[:-1], "synthetic", "All")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_non_finite_value_rejected(self, bad, where):
        table, _ = planted_feature_rows(n_rows=30, n_features=3, noise=0.1, rng_seed=15)
        X, y = table.X.copy(), table.y.copy()
        if where == "X":
            X[4, 1] = bad
        else:
            y[7] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            FeatureTable(table.story_ids, table.names, X, y, "synthetic", "All")


class TestFoldModels:
    @pytest.mark.parametrize("kind", ["linear", "gradient_boosting"])
    def test_fold_models_reproduce_kfold_predictions(self, kind):
        table, _ = planted_feature_rows(n_rows=50, n_features=4, noise=0.3, rng_seed=14)
        spec = ModelSpec(kind, SMALL.get(kind, {}), rng_seed=21)
        result = kfold_cv(table, spec, k=4, rng_seed=8)
        seen = []
        for fold_idx, test_idx, model in fold_models(table, spec, 4, 8):
            seen.append(fold_idx)
            preds = predict_matrix(model, table.X[test_idx])
            assert preds.tolist() == [result.predictions[table.story_ids[i]] for i in test_idx]
        assert seen == [0, 1, 2, 3]


class TestPermutationBaseline:
    def test_constant_column_is_untouched(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        X[:, 1] = 4.2
        rows = rows_from_arrays(X, X[:, 0])
        permuted = permute_columns(rows, rng_seed=8)
        assert np.all(permuted.X[:, 1] == 4.2)
        assert set(permuted.X[:, 0].tolist()) == set(rows.X[:, 0].tolist())

    def test_targets_untouched(self):
        rows, _ = planted_feature_rows(n_rows=30, n_features=3, noise=0.1, rng_seed=7)
        result = permutation_baseline(rows, ModelSpec("linear"), k=3, rng_seed=9)
        assert result.permuted
        assert set(result.predictions) == set(rows.story_ids)

    def test_baseline_destroys_signal(self):
        rows, _ = planted_feature_rows(n_rows=200, n_features=6, noise=0.1, rng_seed=8)
        real = kfold_cv(rows, ModelSpec("linear"), k=4, rng_seed=10)
        permuted = permutation_baseline(rows, ModelSpec("linear"), k=4, rng_seed=10)
        assert real.mae < permuted.mae
        assert abs(permuted.spearman) < 0.3


class TestPlantedSignal:
    def test_boosting_recovers_planted_linear_signal(self):
        # full-size generator: out-of-fold rank correlation above 0.9
        rows, _ = planted_feature_rows(n_rows=400, n_features=18, noise=0.1, rng_seed=1)
        result = kfold_cv(rows, ModelSpec("gradient_boosting", rng_seed=1), k=4, rng_seed=0)
        assert result.spearman > 0.9


def small_features(n_stories=45, builders=("coocc_WS2", "TFMN"), seed=0):
    rng = np.random.default_rng(seed)
    story_ids = [f"s{i:03d}" for i in range(n_stories)]
    structural_names = (
        "n_nodes",
        "n_edges",
        "density",
        "avg_local_clustering",
        "aspl_lcc",
        "diameter_lcc",
        "pagerank_centralisation",
    )
    features = CorpusFeatures(
        structural={
            b: {
                s: {name: float(rng.random()) for name in structural_names}
                for s in story_ids
            }
            for b in builders
        },
        alphas={
            b: {s: tuple(rng.random(3).tolist()) for s in story_ids} for b in builders
        },
        emotions={
            s: {f"z_{e}": float(rng.normal()) for e in (
                "joy", "trust", "fear", "surprise", "sadness", "disgust", "anger", "anticipation"
            )}
            for s in story_ids
        },
        targets={
            "mean": {s: float(rng.uniform(1, 5)) for s in story_ids},
            "H": {s: float(rng.integers(1, 6)) for s in story_ids},
        },
    )
    return features


class TestRunMatrix:
    def test_single_cell(self):
        features = small_features()
        results = run_matrix(
            features, ["mean"], ["TFMN"], ["NetStr"], {"linear": ModelSpec("linear")},
            k=3, rng_seed=1,
        )
        assert len(results) == 1
        assert isinstance(results[0], EvalResult)
        assert results[0].builder_tag == "TFMN"
        assert results[0].config == "NetStr"
        assert results[0].target == "mean"

    def test_full_product_count(self):
        features = small_features(builders=("coocc_WS2", "coocc_WS3", "coocc_WS4",
                                            "coocc_p_WS2", "coocc_p_WS3", "coocc_p_WS4",
                                            "TFMN"))
        configs = ("NetStr", "Spread", "Emotions", "NetStr+Spread", "NetStr+Emo",
                   "Emo+Spread", "All")
        specs = {
            "linear": ModelSpec("linear"),
            "knn": ModelSpec("knn"),
            "decision_tree": ModelSpec("decision_tree"),
            "random_forest": ModelSpec("random_forest", {"n_estimators": 3}),
            "gradient_boosting": ModelSpec("gradient_boosting", {"n_estimators": 5}),
        }
        results = run_matrix(features, ["mean"], list(features.structural), configs, specs,
                             k=3, rng_seed=2)
        assert len(results) == 7 * 7 * 5

    def test_with_baseline_doubles_results(self):
        features = small_features()
        results = run_matrix(
            features, ["mean"], ["TFMN"], ["All"], {"linear": ModelSpec("linear")},
            k=3, rng_seed=3, with_baseline=True,
        )
        assert len(results) == 2
        assert sorted(r.permuted for r in results) == [False, True]

    def test_feature_counts_per_config(self):
        features = small_features()
        for config, expected in (("NetStr", 7), ("Spread", 3), ("Emotions", 8), ("All", 18),
                                 ("NetStr+Spread", 10), ("NetStr+Emo", 15), ("Emo+Spread", 11)):
            rows = features.rows("TFMN", config, "mean")
            assert rows.X.shape == (45, expected) and len(rows.names) == expected, config

    def test_unknown_config_and_target(self):
        features = small_features()
        with pytest.raises(ValueError):
            run_matrix(features, ["mean"], ["TFMN"], ["Everything"],
                       {"linear": ModelSpec("linear")}, k=3, rng_seed=0)
        with pytest.raises(KeyError):
            features.rows("TFMN", "All", "missing_rater")

    def test_rater_target_evaluated(self):
        features = small_features()
        results = run_matrix(
            features, ["H"], ["TFMN"], ["NetStr"], {"linear": ModelSpec("linear")},
            k=3, rng_seed=4,
        )
        assert results[0].target == "H"


MATRIX_SPECS = {
    "linear": ModelSpec("linear"),
    "knn": ModelSpec("knn"),
    "decision_tree": ModelSpec("decision_tree"),
    "random_forest": ModelSpec("random_forest", {"n_estimators": 3}),
    "gradient_boosting": ModelSpec("gradient_boosting", {"n_estimators": 5}),
}


def matrix_with_workers(monkeypatch, workers, *args, **kwargs):
    """run_matrix with `workers` worker processes (1: in-process)."""
    monkeypatch.setattr(cv, "_workers", lambda n_tasks: workers)
    try:
        return run_matrix(*args, **kwargs)
    finally:
        assert multiprocessing.active_children() == []


class TestRunMatrixWorkers:
    def test_workers_give_the_same_results(self, monkeypatch):
        features = small_features()
        args = (features, ["mean", "H"], ["TFMN"], ["NetStr", "All"], MATRIX_SPECS)
        one, two = (
            [r.to_dict() for r in matrix_with_workers(
                monkeypatch, workers, *args, k=3, rng_seed=5, with_baseline=True)]
            for workers in (1, 2)
        )
        assert len(one) == 2 * 2 * 5 * 2
        assert one == two

    def test_warnings_raised_again_in_the_caller(self, monkeypatch):
        # a constant column (permuted or not) makes every exact least-squares
        # design singular
        features = small_features()
        for rows in features.structural["TFMN"].values():
            rows["n_edges"] = 3.0
        counts = []
        for workers in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                matrix_with_workers(
                    monkeypatch, workers, features, ["mean"], ["TFMN"], ["NetStr"],
                    {"linear": ModelSpec("linear")}, k=3, rng_seed=6, with_baseline=True,
                )
            counts.append(sum(issubclass(w.category, SingularDesignWarning) for w in caught))
        assert counts[0] == counts[1] == 6  # 3 folds x (cell + baseline)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_raises_in_the_caller(self, monkeypatch, workers):
        # 21 rows in 3 folds leave 14 training rows, too few for 15 neighbours
        specs = {"linear": ModelSpec("linear"), "knn": ModelSpec("knn")}
        with pytest.raises(ValueError, match="knn needs at least 15 training rows, got 14"):
            matrix_with_workers(monkeypatch, workers, small_features(n_stories=21), ["mean"],
                                ["TFMN"], ["NetStr"], specs, k=3, rng_seed=7)

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(cv.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [cv._workers(n) for n in (1, 2, 3, 10)] == [1, 2, 3, 3]
        monkeypatch.delattr(cv.os, "sched_getaffinity")
        monkeypatch.setattr(cv.os, "cpu_count", lambda: None)
        assert cv._workers(10) == 1


class TestSelectBest:
    def _result(self, mae, spearman, model="linear"):
        return EvalResult(
            builder_tag="TFMN", config="All", model_kind=model, target="mean",
            rng_seed=0, permuted=False, fold_maes=(mae,), fold_spearmans=(spearman,),
            fold_pearsons=(spearman,), mae=mae, spearman=spearman, pearson=spearman,
            predictions={},
        )

    def test_min_mae_wins(self):
        results = [self._result(0.6, 0.5), self._result(0.5, 0.4, model="knn")]
        assert select_best(results, "mean").model_kind == "knn"

    def test_tie_breaks_to_higher_spearman(self):
        results = [self._result(0.5, 0.4), self._result(0.5, 0.6, model="knn")]
        assert select_best(results, "mean").model_kind == "knn"

    def test_permuted_results_ignored(self):
        good = self._result(0.5, 0.5)
        cheat = EvalResult(
            builder_tag="TFMN", config="All", model_kind="knn", target="mean",
            rng_seed=0, permuted=True, fold_maes=(0.0,), fold_spearmans=(1.0,),
            fold_pearsons=(1.0,), mae=0.0, spearman=1.0, pearson=1.0, predictions={},
        )
        assert select_best([good, cheat], "mean") is good
