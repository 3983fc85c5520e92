"""The five regression models behind one fit/predict surface, each at the
paper's one configuration.

Exact least squares (a ridge of 1e-8 on a singular design), k-NN over the
15 nearest training rows in Manhattan distance, weighted by inverse
distance, a decision tree of depth 4, a bootstrap random forest of 500
trees and least-squares gradient boosting of 800 rounds.  Each setting is
a constant where it is used; the one hyperparameter a `ModelSpec` takes is
`n_estimators`, the tree count of the forest and of boosting.  Features
are z-scaled on the training rows for the linear and k-NN models; tree
models consume raw features.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import trees

MODEL_KINDS = ("linear", "knn", "decision_tree", "random_forest", "gradient_boosting")

_KNN_NEIGHBOURS = 15
_SCALED_KINDS = frozenset({"linear", "knn"})


class SingularDesignWarning(RuntimeWarning):
    """Exact least squares hit a rank-deficient design; ridge applied."""


@dataclass(frozen=True)
class ModelSpec:
    """A model kind, its `n_estimators` (random_forest and gradient_boosting
    only; their defaults are `trees.fit_forest`'s and `trees.fit_boosting`'s)
    and the seed of its random draws."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for key, value in self.hyperparameters.items():
            if key != "n_estimators" or self.kind not in ("random_forest", "gradient_boosting"):
                raise ValueError(f"unknown hyperparameter {key!r} for {self.kind}")
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
                raise ValueError("n_estimators must be an int >= 1")


def min_training_rows(kind):
    """The fewest training rows `fit` accepts for a model kind."""
    return _KNN_NEIGHBOURS if kind == "knn" else 5


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
    minimum = min_training_rows(spec.kind)
    if X.shape[0] < minimum:
        raise ValueError(
            f"{spec.kind} needs at least {minimum} training rows, got {X.shape[0]}"
        )
    scaler = Scaler.fit(X) if spec.kind in _SCALED_KINDS else None
    X_in = scaler.transform(X) if scaler is not None else X
    rng = np.random.default_rng(spec.rng_seed)
    if spec.kind == "linear":
        estimator = _fit_linear(X_in, y)
    elif spec.kind == "knn":
        estimator = _KNN(X_in, y, _KNN_NEIGHBOURS)
    elif spec.kind == "decision_tree":
        estimator = trees.TreeEnsemble([
            trees.fit_tree(X_in, y, max_depth=4, min_samples_leaf=3, min_impurity_decrease=0.001)
        ])
    elif spec.kind == "random_forest":
        estimator = trees.fit_forest(X_in, y, rng, **spec.hyperparameters)
    else:
        estimator = trees.fit_boosting(X_in, y, rng, **spec.hyperparameters)
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

    def predict(self, X):
        return X @ self.weights[:-1] + self.weights[-1]


def _fit_linear(X_scaled, y):
    """Exact least squares, or a ridge of 1e-8 (intercept unpenalised) with a
    warning where the design is singular."""
    n, f = X_scaled.shape
    design = np.hstack([X_scaled, np.ones((n, 1))])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        warnings.warn(
            "singular design for exact least squares; falling back to ridge 1e-8",
            SingularDesignWarning,
            stacklevel=3,
        )
        penalty = np.eye(f + 1) * 1e-8
        penalty[f, f] = 0.0
        weights = np.linalg.solve(design.T @ design + penalty, design.T @ y)
    else:
        weights, *_ = np.linalg.lstsq(design, y, rcond=None)
    return _LinearEstimator(weights)


_KNN_BLOCK = 64  # query rows per distance block
_F32_UNIT = 2.0**-24  # float32 unit roundoff
_F32_FLOOR = 2.0**-146  # absolute term per feature: float32 subnormals are 2**-149 apart
_F32_SAFE = 2.0**126  # below this no float32 step of the screen overflows


def _screen_bound(reach):
    """E for each query row, from `reach[:, j]` = max |x_j| over the training
    rows + |q_j|: see `_KNN.predict`.  Infinite where the screen could
    overflow or B is NaN."""
    nf = reach.shape[1]
    size = reach.sum(axis=1)
    bound = (nf + 3) * _F32_UNIT * size + nf * _F32_FLOOR
    return np.where(size <= _F32_SAFE, bound, np.inf)


@dataclass
class _KNN:
    X_train: np.ndarray
    y_train: np.ndarray
    k: int

    def predict(self, X):
        """Each row's k nearest training rows in Manhattan distance, ties to
        the lower index, weighted by inverse distance (the mean of the rows at
        distance 0 where there are any), in blocks of `_KNN_BLOCK` query rows,
        from a float32 screen.

        The screen of a query row q and a training row x is the sequential
        float32 sum over features of |x_j - q_j|, with x and q rounded to
        float32.  Its key K is the distance: the float64 sum of the same
        terms, as the distances below add them.  Take u = 2**-24, a = 2**-149
        (the float32 subnormal step), s_j = max |x_j| over the training rows
        + |q_j|, and B = sum s_j.  Then, up to O(u**2) B:
        - rounding x and q to float32 errs by at most u|x| + a each, and the
          float32 subtraction by u of its result (a subnormal difference is
          exact), so a term |x_j - q_j| errs by at most 2u s_j + 2a;
        - the sequential float32 sum of nf non-negative terms errs by at most
          (nf - 1) u of their total, and is exact below the normal range;
        - K errs from the real sum by at most (nf + 2) 2**-53 of it.
        So |screen - K| <= E0 = (nf + 1) u B + 2 nf a.  The bound that
        `_screen_bound` gives, E = (nf + 3) u B + nf 2**-146, exceeds E0 with
        room for its own rounding while nf u << 1.  With B <= 2**126 no
        float32 step can overflow; above it, or for a NaN, E is infinite.

        Let S_k and K_k be the k-th smallest screen and key.  The k rows of
        smallest screen have K <= S_k + E0, so K_k <= S_k + E0.  A row that
        the selection can keep has a distance no larger than the k-th, so
        K <= K_k, and its screen is at most S_k + 2E.  The candidates
        `~(screen > S_k + 2E)` (true for a NaN screen) thus hold every such
        row.  They get the float64 distances of the one-row loop; every other
        row's distance counts as +inf, above the k-th, so the selection keeps
        the same rows with the same distances.

        Each row's candidates sit left-aligned in ascending index order, with
        +inf after them.  A stable argsort of that row gives the order of
        `argsort(kind="stable")[:k]` over every training row: ties go to the
        lower index, and the padding sorts after every candidate (a NaN
        distance needs a NaN or infinite value, so an infinite E, and then
        every training row is a candidate and there is no padding).  So
        predictions equal the one-row loop, NaN for a query row with a NaN.
        """
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], _KNN_BLOCK):
            q = X[start : start + _KNN_BLOCK]
            rows, cols = self._candidates(q)
            # candidates in ascending index order, left-aligned in each row
            counts = np.bincount(rows, minlength=q.shape[0])
            slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
            index = np.zeros((q.shape[0], counts.max()), dtype=np.intp)
            index[rows, slots] = cols
            diff = self.X_train[cols] - q[rows]
            dist = np.full(index.shape, np.inf)
            dist[rows, slots] = np.abs(diff, out=diff).sum(axis=1)
            order = np.argsort(dist, axis=1, kind="stable")[:, : self.k]
            d = np.take_along_axis(dist, order, axis=1)
            targets = self.y_train[np.take_along_axis(index, order, axis=1)]
            block = out[start : start + _KNN_BLOCK]
            w = 1.0 / np.where(d == 0.0, 1.0, d)
            block[:] = np.sum(w * targets, axis=1) / np.sum(w, axis=1)
            for i in np.flatnonzero((d == 0.0).any(axis=1)):
                block[i] = targets[i][d[i] == 0.0].mean()
        return out

    def _candidates(self, q):
        """(query row, training row) of every pair that the screen of the
        query rows `q` keeps, in row-major order."""
        k = self.k
        # a float32 overflow or NaN only makes E infinite: no warning
        with np.errstate(over="ignore", invalid="ignore"):
            xt = self.X_train.T.astype(np.float32)
            q32 = q.astype(np.float32)
            screen = np.zeros((q.shape[0], xt.shape[1]), dtype=np.float32)
            term = np.empty_like(screen)
            for j in range(xt.shape[0]):
                np.subtract(xt[j], q32[:, j, None], out=term)
                screen += np.abs(term, out=term)
            bound = _screen_bound(np.abs(self.X_train).max(axis=0) + np.abs(q))
            limit = np.partition(screen, k - 1, axis=1)[:, k - 1] + 2.0 * bound
            return np.nonzero(~(screen > limit[:, None]))
