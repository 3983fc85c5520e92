"""Regression tree core shared by the decision-tree, random-forest and
gradient-boosting models.

Trees are stored as flat arrays (feature, threshold, child indices, leaf
value) so batched prediction is a few vectorised index hops.  Split
search scans sorted feature columns with cumulative sums; ties resolve
to the first candidate, which keeps fits bit-deterministic for a given
RNG seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LEAF = -1


@dataclass
class TreeArrays:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


class _TreeBuilder:
    def __init__(self, X, y, max_depth, min_samples_leaf, min_impurity_decrease,
                 max_features, rng):
        self.X = X
        self.y = y
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.rng = rng
        self.n_total = y.size
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def _new_node(self):
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _candidate_features(self):
        n_features = self.X.shape[1]
        if self.max_features is None:
            return np.arange(n_features)
        m = max(1, int(round(self.max_features * n_features)))
        if m >= n_features:
            return np.arange(n_features)
        return self.rng.choice(n_features, size=m, replace=False)

    def _best_split(self, idx):
        n = idx.size
        y_node = self.y[idx]
        sse_total = float(np.sum(y_node**2) - np.sum(y_node) ** 2 / n)
        best = None
        for f in self._candidate_features():
            xs = self.X[idx, f]
            order = np.argsort(xs, kind="stable")
            xs_sorted = xs[order]
            ys_sorted = y_node[order]
            csum = np.cumsum(ys_sorted)
            csq = np.cumsum(ys_sorted**2)
            split_at = np.arange(self.min_samples_leaf, n - self.min_samples_leaf + 1)
            if split_at.size == 0:
                continue
            valid = xs_sorted[split_at] > xs_sorted[split_at - 1]
            split_at = split_at[valid]
            if split_at.size == 0:
                continue
            n_left = split_at.astype(float)
            n_right = n - n_left
            sum_left = csum[split_at - 1]
            sq_left = csq[split_at - 1]
            sse_left = sq_left - sum_left**2 / n_left
            sse_right = (csq[-1] - sq_left) - (csum[-1] - sum_left) ** 2 / n_right
            gains = sse_total - (sse_left + sse_right)
            pos = int(np.argmax(gains))
            gain = float(gains[pos])
            if best is None or gain > best[0]:
                at = split_at[pos]
                thresh = (xs_sorted[at - 1] + xs_sorted[at]) / 2.0
                best = (gain, int(f), float(thresh))
        if best is None:
            return None
        gain, f, thresh = best
        if gain / self.n_total < self.min_impurity_decrease:
            return None
        return f, thresh

    def build(self, idx, depth):
        node = self._new_node()
        y_node = self.y[idx]
        self.value[node] = float(y_node.mean())
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or idx.size < 2 * self.min_samples_leaf
            or np.all(y_node == y_node[0])
        ):
            return node
        split = self._best_split(idx)
        if split is None:
            return node
        f, thresh = split
        go_left = self.X[idx, f] <= thresh
        self.feature[node] = f
        self.threshold[node] = thresh
        self.left[node] = self.build(idx[go_left], depth + 1)
        self.right[node] = self.build(idx[~go_left], depth + 1)
        return node

    def arrays(self):
        return TreeArrays(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.asarray(self.value, dtype=float),
        )


def fit_tree(X, y, max_depth=None, min_samples_leaf=1, min_impurity_decrease=0.0,
             max_features=None, rng=None):
    if rng is None:
        rng = np.random.default_rng(0)
    builder = _TreeBuilder(
        np.asarray(X, dtype=float),
        np.asarray(y, dtype=float),
        max_depth,
        min_samples_leaf,
        min_impurity_decrease,
        max_features,
        rng,
    )
    builder.build(np.arange(y.size), depth=0)
    return builder.arrays()


def predict_tree(tree, X):
    X = np.asarray(X, dtype=float)
    nodes = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feats = tree.feature[nodes]
        active = feats != _LEAF
        if not np.any(active):
            break
        rows = np.nonzero(active)[0]
        f = feats[rows]
        go_left = X[rows, f] <= tree.threshold[nodes[rows]]
        nodes[rows] = np.where(go_left, tree.left[nodes[rows]], tree.right[nodes[rows]])
    return tree.value[nodes]


@dataclass
class TreeEnsemble:
    """A sum of regression trees: the decision tree, forest and boosting estimator.

    predict adds each tree's output, in tree order, onto `base` and divides
    by `divisor`.  A decision tree is a one-tree ensemble, a forest divides
    by its tree count, and boosting starts from the target mean with its
    learning rate folded into the leaf values.
    """

    trees: list[TreeArrays]
    base: float = 0.0
    divisor: int = 1

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        total = np.full(X.shape[0], self.base)
        for tree in self.trees:
            total += predict_tree(tree, X)
        return total / self.divisor


def fit_forest(X, y, n_estimators, min_samples_leaf, max_features, bootstrap,
               max_depth, rng):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    tree_seeds = rng.integers(0, 2**63 - 1, size=n_estimators)
    trees = []
    for seed in tree_seeds:
        tree_rng = np.random.default_rng(int(seed))
        if bootstrap:
            idx = tree_rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        trees.append(
            fit_tree(
                X[idx],
                y[idx],
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                max_features=max_features,
                rng=tree_rng,
            )
        )
    return TreeEnsemble(trees, divisor=len(trees))


def fit_boosting(X, y, n_estimators, learning_rate, max_depth, subsample,
                 min_samples_leaf, rng):
    """Least-squares gradient boosting on row-subsampled residuals."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    base = float(y.mean())
    residual = y - base
    n_sub = max(1, int(round(subsample * n)))
    trees = []
    for _ in range(n_estimators):
        if n_sub < n:
            idx = rng.permutation(n)[:n_sub]
        else:
            idx = np.arange(n)
        tree = fit_tree(
            X[idx],
            residual[idx],
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            rng=rng,
        )
        tree.value *= learning_rate
        residual -= predict_tree(tree, X)
        trees.append(tree)
    return TreeEnsemble(trees, base=base)
