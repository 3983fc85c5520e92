"""The five regression models behind one fit/predict surface.

Linear least squares (ridge fallback on singular designs), distance-
weighted k-NN, a depth-limited decision tree, a bootstrap random forest
and least-squares gradient boosting.  Features are z-scaled on the
training rows for the linear and k-NN models; tree models consume raw
features.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import trees

MODEL_KINDS = ("linear", "knn", "decision_tree", "random_forest", "gradient_boosting")

DEFAULT_HYPERPARAMETERS = {
    "linear": {"ridge_lambda": 0.0},
    "knn": {"n_neighbors": 15, "weights": "distance", "p": 1},
    "decision_tree": {"max_depth": 4, "min_samples_leaf": 3, "min_impurity_decrease": 0.001},
    "random_forest": {
        "n_estimators": 500,
        "min_samples_leaf": 5,
        "max_features": 0.7,
        "bootstrap": True,
        "max_depth": None,
    },
    "gradient_boosting": {
        "n_estimators": 800,
        "learning_rate": 0.01,
        "max_depth": 2,
        "subsample": 0.7,
        "min_samples_leaf": 3,
    },
}

_SCALED_KINDS = frozenset({"linear", "knn"})


class SingularDesignWarning(RuntimeWarning):
    """Exact least squares hit a rank-deficient design; ridge applied."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyperparameters: dict = field(default_factory=dict)
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        merged = dict(DEFAULT_HYPERPARAMETERS[self.kind])
        for key, value in self.hyperparameters.items():
            if key not in merged:
                raise ValueError(f"unknown hyperparameter {key!r} for {self.kind}")
            merged[key] = value
        _validate_hyperparameters(self.kind, merged)
        object.__setattr__(self, "hyperparameters", merged)


def _validate_hyperparameters(kind, hp):
    if kind == "linear":
        if hp["ridge_lambda"] < 0:
            raise ValueError("ridge_lambda must be >= 0")
    elif kind == "knn":
        if hp["n_neighbors"] < 1:
            raise ValueError("n_neighbors must be >= 1")
        if hp["weights"] not in ("distance", "uniform"):
            raise ValueError("weights must be 'distance' or 'uniform'")
        if hp["p"] not in (1, 2):
            raise ValueError("p must be 1 (Manhattan) or 2 (Euclidean)")
    elif kind in ("decision_tree", "random_forest", "gradient_boosting"):
        if not _is_int(hp["min_samples_leaf"]) or hp["min_samples_leaf"] < 1:
            raise ValueError("min_samples_leaf must be an int >= 1")
        if hp["max_depth"] is not None and (not _is_int(hp["max_depth"]) or hp["max_depth"] < 1):
            raise ValueError("max_depth must be None or an int >= 1")
        if kind != "decision_tree" and (not _is_int(hp["n_estimators"]) or hp["n_estimators"] < 1):
            raise ValueError("n_estimators must be an int >= 1")
        if kind == "decision_tree" and not hp["min_impurity_decrease"] >= 0:
            raise ValueError("min_impurity_decrease must be >= 0")
        if kind == "gradient_boosting" and not hp["learning_rate"] > 0:
            raise ValueError("learning_rate must be > 0")
        if kind == "gradient_boosting" and not 0 < hp["subsample"] <= 1:
            raise ValueError("subsample must lie in (0, 1]")
        if kind == "random_forest" and not 0 < hp["max_features"] <= 1:
            raise ValueError("max_features must lie in (0, 1]")


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class Scaler:
    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X):
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(mean=mean, scale=scale)

    def transform(self, X):
        return (X - self.mean) / self.scale


@dataclass
class TrainedModel:
    spec: ModelSpec
    feature_names: tuple[str, ...]
    estimator: object
    scaler: Scaler | None
    background: np.ndarray  # raw training design, Shapley background set


def fit(spec, table):
    """Train `spec` on a FeatureTable; scaling statistics come from its rows only."""
    X, y = table.X, table.y
    minimum = 5
    if spec.kind == "knn":
        minimum = max(minimum, spec.hyperparameters["n_neighbors"])
    if X.shape[0] < minimum:
        raise ValueError(
            f"{spec.kind} needs at least {minimum} training rows, got {X.shape[0]}"
        )
    scaler = Scaler.fit(X) if spec.kind in _SCALED_KINDS else None
    X_in = scaler.transform(X) if scaler is not None else X
    rng = np.random.default_rng(spec.rng_seed)
    hp = spec.hyperparameters
    if spec.kind == "linear":
        estimator = _fit_linear(X_in, y, hp["ridge_lambda"], scaler)
    elif spec.kind == "knn":
        estimator = _KNN(X_in, y, hp["n_neighbors"], hp["weights"], hp["p"])
    elif spec.kind == "decision_tree":
        estimator = trees.TreeEnsemble([trees.fit_tree(X_in, y, **hp)])
    elif spec.kind == "random_forest":
        estimator = trees.fit_forest(X_in, y, rng=rng, **hp)
    else:
        estimator = trees.fit_boosting(X_in, y, rng=rng, **hp)
    return TrainedModel(
        spec=spec, feature_names=table.names, estimator=estimator, scaler=scaler, background=X
    )


def predict_matrix(model, X):
    X = np.asarray(X, dtype=float)
    if model.scaler is not None:
        X = model.scaler.transform(X)
    return model.estimator.predict(X)


@dataclass
class _LinearEstimator:
    weights: np.ndarray  # on scaled features, intercept last
    coef_: np.ndarray  # back-transformed to the original feature space
    intercept_: float

    def predict(self, X):
        return X @ self.weights[:-1] + self.weights[-1]


def _fit_linear(X_scaled, y, ridge_lambda, scaler):
    n, f = X_scaled.shape
    design = np.hstack([X_scaled, np.ones((n, 1))])
    lam = ridge_lambda
    if lam == 0.0:
        if np.linalg.matrix_rank(design) < design.shape[1]:
            warnings.warn(
                "singular design for exact least squares; falling back to ridge 1e-8",
                SingularDesignWarning,
                stacklevel=3,
            )
            lam = 1e-8
        else:
            weights, *_ = np.linalg.lstsq(design, y, rcond=None)
            return _finish_linear(weights, scaler)
    penalty = np.eye(f + 1) * lam
    penalty[f, f] = 0.0  # intercept unpenalised
    weights = np.linalg.solve(design.T @ design + penalty, design.T @ y)
    return _finish_linear(weights, scaler)


def _finish_linear(weights, scaler):
    coef_scaled = weights[:-1]
    coef = coef_scaled / scaler.scale
    intercept = float(weights[-1] - np.sum(coef_scaled * scaler.mean / scaler.scale))
    return _LinearEstimator(weights=weights, coef_=coef, intercept_=intercept)


_KNN_BLOCK = 8  # query rows per distance block


@dataclass
class _KNN:
    X_train: np.ndarray
    y_train: np.ndarray
    k: int
    weights: str
    p: int

    def predict(self, X):
        """Each row's k nearest training rows, ties to the lower index, in
        blocks of `_KNN_BLOCK` query rows.

        A block's k-th smallest distance comes from `np.partition`; every
        row below it is kept, and the lowest-index rows equal to it fill
        the k.  A stable sort of those by distance gives the order of
        `argsort(kind="stable")[:k]`, so predictions equal the one-row loop.
        """
        out = np.empty(X.shape[0])
        k = self.k
        for start in range(0, X.shape[0], _KNN_BLOCK):
            diff = self.X_train[None] - X[start : start + _KNN_BLOCK, None]
            if self.p == 1:
                dist = np.abs(diff, out=diff).sum(axis=2)
            else:
                dist = np.sqrt(np.square(diff, out=diff).sum(axis=2))
            kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
            below, equal = dist < kth, dist == kth
            fill = k - below.sum(axis=1, keepdims=True)
            keep = below | (equal & (np.cumsum(equal, axis=1) <= fill))
            nearest = np.nonzero(keep)[1].reshape(-1, k)  # ascending index per row
            d = np.take_along_axis(dist, nearest, axis=1)
            order = np.take_along_axis(nearest, np.argsort(d, axis=1, kind="stable"), axis=1)
            d = np.take_along_axis(dist, order, axis=1)
            targets = self.y_train[order]
            block = out[start : start + _KNN_BLOCK]
            if self.weights == "uniform":
                block[:] = targets.mean(axis=1)
            else:
                w = 1.0 / np.where(d == 0.0, 1.0, d)
                block[:] = np.sum(w * targets, axis=1) / np.sum(w, axis=1)
                for i in np.flatnonzero((d == 0.0).any(axis=1)):
                    block[i] = targets[i][d[i] == 0.0].mean()
        return out
