"""Slow reference implementations kept as test oracles.

`wilcoxon_exact_enumeration` checks the exact Wilcoxon path by brute
force over all 2^n sign assignments; `average_ranks_reference` finds tie
runs by a scan of the sorted values, the ranks that `stats._average_ranks`
must give bit for bit; `parse_graphml` reads back the
GraphML export for round-trip tests; `induced_subgraph` and `edge_hash`
cut and fingerprint networks for graph tests; `fit_tree_reference` is the
per-node, per-feature CART split search that `trees.fit_tree` must match
bit for bit; `run_to_stationarity_reference` and `prompt_alphas_reference`
run one diffusion at a time, the loop that the batched
`activation.prompt_alphas` must match bit for bit, and `init_activation` /
`step` are the dict-based single-step API over the same arithmetic;
`paired_signflip_test_reference` builds the whole (n_perm, n) sign matrix
from `integers(0, 2)`, the null that the chunked
`stats.paired_signflip_test` must match bit for bit; `_pagerank_rows` is
the power iteration of one network on its own, which the batched
`graphmetrics` PageRank must match bit for bit through
`pagerank_reference` and `pagerank_centralisation_reference`, and
`structural_features_alone` gives one network's descriptors from a batch
of one; `linear_coefficients` back-transforms a linear model's scaled
weights to raw-feature coefficients;
`trajectory_rows_reference` gives the trajectory CSV cells that
`cli._write_trajectories` must write byte for byte as `csv.writer` would;
`component_labels_reference` ranks components found by breadth-first
search, the labels that the batched min-label propagation must give;
`network_reference` builds a network in two passes, its node and edge
frozensets first and its `GraphIndex` from them, the sets and arrays that
`LexicalNetwork`'s one pass must give bit for bit.
"""

import hashlib
import itertools
import xml.etree.ElementTree as ET

from dataclasses import dataclass, replace

import numpy as np

from storynets.activation import (
    DEFAULT_MAX_ITER,
    DEFAULT_RETENTION,
    DEFAULT_TOLERANCE,
    TRACE_EXPORT_STEPS,
    ActivationTrace,
    MissingSeedError,
    _check_retention,
    _isolated_seed_trace,
    stationary_oracle,
)
from storynets.errors import ConvergenceError
from storynets.graphmetrics import pagerank_centralisations, structural_features
from storynets.mlharness.trees import TreeArrays
from storynets.netbuild import GraphIndex, LexicalNetwork
from storynets.stats import TestResult, _check_alternative
from storynets.textpipe import match_prompts


def average_ranks_reference(a):
    """1-based ranks with ties at their mean rank, one tie run at a time."""
    a = np.asarray(a, dtype=float)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size)
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def wilcoxon_exact_enumeration(x, y, alternative="two-sided"):
    """Brute-force 2^n reference for the exact path (test oracle)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    d = d[d != 0]
    n = d.size
    if n == 0:
        return TestResult(0.0, 1.0, 0)
    ranks = average_ranks_reference(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    sums = np.array(
        [sum(r for r, bit in zip(ranks, bits) if bit) for bits in itertools.product((0, 1), repeat=n)]
    )
    eps = 1e-9
    if alternative == "two-sided":
        statistic = min(w_plus, w_minus)
        p = min(1.0, 2.0 * float(np.mean(sums <= statistic + eps)))
    elif alternative == "less":
        statistic = w_plus
        p = float(np.mean(sums <= statistic + eps))
    else:
        statistic = w_minus
        p = float(np.mean(sums <= statistic + eps))
    return TestResult(statistic, p, int(n))


def parse_graphml(text):
    """Read back the GraphML written by `netbuild.graphml` (round-trip helper)."""
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    root = ET.fromstring(text)
    graph = root.find("g:graph", ns)
    nodes = set()
    valence = {}
    edges = set()
    for node in graph.findall("g:node", ns):
        nid = node.attrib["id"]
        nodes.add(nid)
        data = node.find("g:data", ns)
        if data is not None and data.text:
            valence[nid] = data.text
    for edge in graph.findall("g:edge", ns):
        edges.add((edge.attrib["source"], edge.attrib["target"]))
    return LexicalNetwork(nodes, edges, valence=valence)


def induced_subgraph(net, keep):
    """The network restricted to the nodes in `keep`."""
    keep = frozenset(keep)
    return LexicalNetwork(
        nodes=keep & net.nodes,
        edges=frozenset(e for e in net.edges if e[0] in keep and e[1] in keep),
        builder_tag=net.builder_tag,
        valence={n: v for n, v in net.valence.items() if n in keep},
    )


def network_reference(nodes, edges):
    """(node frozenset, edge frozenset, GraphIndex) of valid `nodes` and
    (a, b) `edges`: each edge kept once as its sorted pair, then the index
    built from the two sets."""
    nodes = frozenset(nodes)
    edges = frozenset((a, b) if a < b else (b, a) for a, b in edges)
    ordered = tuple(sorted(nodes))
    position = {node: i for i, node in enumerate(ordered)}
    pairs = np.array(
        [(position[a], position[b]) for a, b in edges], dtype=np.int64
    ).reshape(-1, 2)
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    order = np.lexsort((dst, src))
    degree = np.bincount(src, minlength=len(ordered))
    return nodes, edges, GraphIndex(ordered, position, src[order], dst[order], degree)


def edge_hash(net):
    """Digest of the sorted edge list; equal graphs hash equally."""
    blob = "\n".join(f"{a},{b}" for a, b in sorted(net.edges))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_LEAF = -1


class _ReferenceTreeBuilder:
    """Re-sorts each candidate column at every node and scans one feature at a time."""

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


def fit_tree_reference(X, y, max_depth=None, min_samples_leaf=1, min_impurity_decrease=0.0,
                       max_features=None, rng=None):
    """CART fit with a fresh stable sort of each candidate column at each node."""
    if rng is None:
        rng = np.random.default_rng(0)
    builder = _ReferenceTreeBuilder(
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


def knn_predict_reference(knn, X):
    """k-NN predictions one query row at a time, neighbours from a full stable argsort."""
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        dist = np.abs(knn.X_train - x).sum(axis=1)
        order = np.argsort(dist, kind="stable")[: knn.k]
        d = dist[order]
        targets = knn.y_train[order]
        if np.any(d == 0.0):
            out[i] = targets[d == 0.0].mean()
        else:
            w = 1.0 / d
            out[i] = float(np.sum(w * targets) / np.sum(w))
    return out


def linear_coefficients(model):
    """(coef, intercept) of a fitted linear model on the raw features: its
    weights on the z-scaled features, back-transformed through its scaler."""
    weights, scaler = model.estimator.weights, model.scaler
    coef = weights[:-1] / scaler.scale
    return coef, float(weights[-1] - np.sum(weights[:-1] * scaler.mean / scaler.scale))


@dataclass(frozen=True)
class ActivationState:
    values: dict[str, float]
    step: int

    def total(self):
        return sum(self.values.values())


def neighbour_sum(index, values):
    """Per node of one `GraphIndex`, the sum of `values` over its neighbours in ascending order."""
    rows = np.repeat(np.arange(len(index.nodes)), index.degree)
    return np.bincount(rows, weights=values[index.indices], minlength=len(index.nodes))


def _advance(values, retention, index):
    moving = index.degree > 0
    outflow = np.divide(
        (1.0 - retention) * values, index.degree, out=np.zeros_like(values), where=moving
    )
    return np.where(moving, retention * values + neighbour_sum(index, outflow), values)


def init_activation(net, seed):
    """All nodes at zero except the seed, which holds N = |nodes|."""
    if seed not in net.nodes:
        raise MissingSeedError(seed)
    n = float(net.n_nodes)
    return ActivationState(
        values={node: (n if node == seed else 0.0) for node in net.nodes}, step=0
    )


def step(state, net, retention):
    """One synchronous update of the whole activation vector."""
    _check_retention(retention)
    index = net.index
    values = np.array([state.values[node] for node in index.nodes])
    new = _advance(values, retention, index)
    return ActivationState(values=dict(zip(index.nodes, new.tolist())), step=state.step + 1)


def run_to_stationarity_reference(
    net,
    seed,
    retention=DEFAULT_RETENTION,
    tol=DEFAULT_TOLERANCE,
    max_iter=DEFAULT_MAX_ITER,
):
    """One diffusion run on its own, iterated until the max change drops below `tol`."""
    _check_retention(retention)
    if seed not in net.nodes:
        raise MissingSeedError(seed)
    index = net.index
    n = float(len(index.nodes))
    values = np.zeros(len(index.nodes))
    seed_idx = index.position[seed]
    values[seed_idx] = n
    series = [n]
    drift = 0.0
    converged = False
    steps = 0
    for steps in range(1, max_iter + 1):
        new = _advance(values, retention, index)
        delta = np.abs(new - values).max()
        drift = max(drift, abs(new.sum() - n))
        values = new
        series.append(float(values[seed_idx]))
        if delta < tol:
            converged = True
            break
    return ActivationTrace(
        seed=seed,
        seed_series=tuple(series),
        stationary_alpha=float(values[seed_idx]),
        converged=converged,
        steps_taken=steps,
        seed_in_network=True,
        mass_drift=drift,
    )


def prompt_alphas_reference(story, nets, retention=DEFAULT_RETENTION):
    """`activation.prompt_alphas` with one run per (network, seed)."""
    out = {}
    for tag, net in nets.items():
        traces = []
        for match in match_prompts(story):
            seed = match.matched_node if match.matched else match.prompt_lemma
            if seed in net.nodes:
                trace = run_to_stationarity_reference(
                    net, seed, retention=retention, max_iter=TRACE_EXPORT_STEPS
                )
                traces.append(
                    replace(trace, stationary_alpha=stationary_oracle(net, seed), converged=True)
                )
            else:
                traces.append(_isolated_seed_trace(seed, net.n_nodes))
        out[tag] = tuple(traces)
    return out


def paired_signflip_test_reference(x, y, n_perm=10_000, rng_seed=0, alternative="two-sided"):
    """Mean paired difference against a random sign-flip null.

    p uses the add-one correction (1 + hits) / (1 + n_perm), so it can
    never reach exactly zero.
    """
    _check_alternative(alternative)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired samples must be 1-d and of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 pairs")
    d = x - y
    observed = float(d.mean())
    rng = np.random.default_rng(rng_seed)
    signs = rng.integers(0, 2, size=(n_perm, d.size)) * 2 - 1
    null = (signs * d).mean(axis=1)
    if alternative == "two-sided":
        hits = int(np.sum(np.abs(null) >= abs(observed)))
    elif alternative == "greater":
        hits = int(np.sum(null >= observed))
    else:
        hits = int(np.sum(null <= observed))
    p = (1 + hits) / (1 + n_perm)
    return TestResult(observed, p, int(d.size))


def _pagerank_rows(index, rows, damping, tol, max_iter):
    """Power iteration on the graph induced by `rows`, a union of components."""
    n = rows.size
    deg = index.degree[rows].astype(float)
    contrib = np.zeros(len(index.nodes))
    rank = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        contrib[rows] = rank / deg
        new = teleport + damping * neighbour_sum(index, contrib)[rows]
        residual = np.abs(new - rank).sum()
        rank = new
        if residual < tol:
            return rank
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations", residual=residual
    )


def pagerank_reference(net, damping=0.85, tol=1e-10, max_iter=1000):
    """`graphmetrics.pagerank` of one network, iterated on its own, as an array
    in sorted-node order (empty for no nodes, [1.0] for one)."""
    index = net.index
    if len(index.nodes) < 2:
        return np.ones(len(index.nodes))
    return _pagerank_rows(index, np.arange(len(index.nodes)), damping, tol, max_iter)


def pagerank_centralisation_reference(net, damping=0.85, tol=1e-10, max_iter=1000):
    """`graphmetrics.pagerank_centralisations` of one network, iterated on its
    own; the deviations are added one at a time, in sorted-node order."""
    lcc = np.flatnonzero(np.array(component_labels_reference(net), dtype=int) == 0)
    n = lcc.size
    if n <= 1:
        return 0.0
    u = 1.0 / n
    total = 0.0
    for r in _pagerank_rows(net.index, lcc, damping, tol, max_iter).tolist():
        total += abs(r - u)
    return total / n


def structural_features_alone(net):
    """`graphmetrics.structural_features` of one network, its centralisation
    from a batch of that network alone."""
    (centralisation,) = pagerank_centralisations([net.index])
    return structural_features(net, centralisation)


def trajectory_rows_reference(traces_by_story_builder):
    """Header, then one (step, story_id, builder, seed, value) row per step of
    every trace: the cells that `cli._write_trajectories` must write as
    `csv.writer` would."""
    yield ("step", "story_id", "builder", "seed", "value")
    for (story_id, builder), traces in traces_by_story_builder:
        for trace in traces:
            for step_no, value in enumerate(trace.seed_series):
                yield (step_no, story_id, builder, trace.seed, value)


def component_labels_reference(net):
    """Per node in sorted order, its component's rank: components found by
    breadth-first search, ranked largest first, ties by smallest member."""
    adj = net.adjacency()
    seen, comps = set(), []
    for node in sorted(net.nodes):
        if node in seen:
            continue
        comp, frontier = {node}, [node]
        while frontier:
            frontier = [b for a in frontier for b in adj[a] if b not in comp]
            comp.update(frontier)
        seen |= comp
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    label = {node: rank for rank, comp in enumerate(comps) for node in comp}
    return [label[node] for node in sorted(net.nodes)]
