"""Regression tree core shared by the decision-tree, random-forest and
gradient-boosting models.

Trees are stored as flat arrays (feature, threshold, child indices, leaf
value) so batched prediction is a few vectorised index hops.

Fitting is presorted CART.  `fit_tree` stable-sorts every feature column
once; `order` holds, per feature, the tree's rows in that order.  It sorts
`rank_codes`, each column's dense ranks, not the floats: an ensemble ranks
its whole design once and hands each tree `codes[:, idx]` for that tree's
bootstrap or subsample rows.  Equal values share a code, so a stable sort
of the codes in `idx` order is the stable float sort of `X[idx]`, ties in
`idx` position order; numpy sorts 16-bit codes with a radix sort.  A split
partitions `order` between the children, which keeps each feature's rows
sorted, so no node sorts again.  The rows of a node (`idx`) stay ascending,
which makes a node's order the same as a stable sort of its own rows.  A
node scans all candidate features in one pass: cumulative sums of y and
y**2 along each sorted row give the impurity gain of every split position,
positions between equal values are masked out, and the best split is the
first position of the maximum gain in the first candidate that reaches
it.  Ties thus resolve to the earliest candidate and the leftmost
position, which keeps fits bit-deterministic for a given RNG seed.
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
        self.xt = X.T.ravel()  # feature-major copy: column f starts at f * n_total
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

    def _best_split(self, order, y_node, total):
        n = y_node.size
        sse_total = float(np.sum(y_node**2) - total**2 / n)
        cands = self._candidate_features()
        rows = order[cands]
        xs = self.xt[rows + self.n_total * cands[:, None]]
        ys = self.y[rows]
        csum = np.cumsum(ys, axis=1)
        csq = np.cumsum(ys**2, axis=1)
        # a split at `a` puts the first `a` sorted rows of a column on the left
        lo, hi = self.min_samples_leaf, n - self.min_samples_leaf + 1
        n_left = np.arange(lo, hi).astype(float)
        n_right = n - n_left
        sum_left = csum[:, lo - 1:hi - 1]
        sq_left = csq[:, lo - 1:hi - 1]
        sse_left = sq_left - sum_left**2 / n_left
        sse_right = (csq[:, -1:] - sq_left) - (csum[:, -1:] - sum_left) ** 2 / n_right
        gains = sse_total - (sse_left + sse_right)
        gains[~(xs[:, lo:hi] > xs[:, lo - 1:hi - 1])] = -np.inf
        pos = np.argmax(gains, axis=1)
        c = int(np.argmax(gains[np.arange(cands.size), pos]))
        gain = float(gains[c, pos[c]])
        if gain == -np.inf or gain / self.n_total < self.min_impurity_decrease:
            return None
        at = lo + pos[c]
        return int(cands[c]), float((xs[c, at - 1] + xs[c, at]) / 2.0)

    def build(self, idx, order, depth):
        node = self._new_node()
        y_node = self.y[idx]
        total = np.add.reduce(y_node)
        self.value[node] = float(total / idx.size)  # the bits of y_node.mean()
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or idx.size < 2 * self.min_samples_leaf
            or y_node.min() == y_node.max()
        ):
            return node
        split = self._best_split(order, y_node, total)
        if split is None:
            return node
        f, thresh = split
        go_left = self.xt[f * self.n_total : (f + 1) * self.n_total] <= thresh
        idx_left = go_left[idx]
        # each feature row of `order` keeps its sorted order on both sides
        order_left = go_left[order].ravel()
        k = order.shape[0]
        self.feature[node] = f
        self.threshold[node] = thresh
        self.left[node] = self.build(
            idx[idx_left], np.compress(order_left, order).reshape(k, -1), depth + 1)
        self.right[node] = self.build(
            idx[~idx_left], np.compress(~order_left, order).reshape(k, -1), depth + 1)
        return node

    def arrays(self):
        return TreeArrays(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.asarray(self.value, dtype=float),
        )


def rank_codes(X):
    """Feature-major dense ranks of each column of X: equal values (-0.0 and
    0.0, or any two NaNs) share a code, and codes rise with the values in
    the order of a float sort.  uint16 below 65,536 rows, so that a stable
    argsort of the codes is a radix sort."""
    xt = np.asarray(X, dtype=float).T
    order = np.argsort(xt, axis=1, kind="stable")
    ranked = np.take_along_axis(xt, order, axis=1)
    step = ranked[:, 1:] != ranked[:, :-1]
    step &= ~(np.isnan(ranked[:, 1:]) & np.isnan(ranked[:, :-1]))
    dense = np.zeros(xt.shape, dtype=np.uint16 if xt.shape[1] < 2**16 else np.uint32)
    np.cumsum(step, axis=1, out=dense[:, 1:])
    codes = np.empty_like(dense)
    np.put_along_axis(codes, order, dense, axis=1)
    return codes


def fit_tree(X, y, max_depth=None, min_samples_leaf=1, min_impurity_decrease=0.0,
             max_features=None, rng=None, codes=None):
    """One CART tree.  `codes`, if given, are `rank_codes` of the rows of X
    (an ensemble ranks its design once and passes `codes[:, idx]`)."""
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
    if codes is None:
        codes = rank_codes(builder.X)
    # equal codes keep row order, so this is the stable float sort of each column
    order = np.argsort(codes, axis=1, kind="stable")
    builder.build(np.arange(y.size), order, depth=0)
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


def fit_forest(X, y, rng, n_estimators=500):
    """The random forest: `n_estimators` trees, each grown without a depth
    limit on a bootstrap sample of the rows, with leaves of at least 5 rows
    and 70% of the features drawn as candidates at each split."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    codes = rank_codes(X)
    tree_seeds = rng.integers(0, 2**63 - 1, size=n_estimators)
    trees = []
    for seed in tree_seeds:
        tree_rng = np.random.default_rng(int(seed))
        idx = tree_rng.integers(0, n, size=n)
        trees.append(
            fit_tree(X[idx], y[idx], min_samples_leaf=5, max_features=0.7, rng=tree_rng,
                     codes=codes[:, idx])
        )
    return TreeEnsemble(trees, divisor=len(trees))


def fit_boosting(X, y, rng, n_estimators=800):
    """Least-squares gradient boosting: `n_estimators` rounds, each a tree of
    depth 2 with leaves of at least 3 rows, fitted to the running residual
    of a 70% row subsample and shrunk by a learning rate of 0.01."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    base = float(y.mean())
    residual = y - base
    n_sub = int(round(0.7 * n))
    codes = rank_codes(X)
    trees = []
    for _ in range(n_estimators):
        idx = rng.permutation(n)[:n_sub]
        tree = fit_tree(X[idx], residual[idx], max_depth=2, min_samples_leaf=3, rng=rng,
                        codes=codes[:, idx])
        tree.value *= 0.01
        residual -= predict_tree(tree, X)
        trees.append(tree)
    return TreeEnsemble(trees, base=base)
