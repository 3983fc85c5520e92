"""Structural descriptors of a lexical network.

Everything is computed with exact algorithms (breadth-first distances,
triangle counting, power iteration) over the network's shared
`GraphIndex`; path-based measures operate on the largest connected
component, and graphs too degenerate for a measure yield 0 so feature
rows stay complete.

PageRank has one power iteration, `_power_iteration`, over a
`netbuild.GraphBatch`: `pagerank_centralisations` runs it once for the
LCCs of a whole stage's networks, and `pagerank` is the one-network
case.  Each block stops at the first step whose L1 change in its own
block drops below `tol`, so its ranks are those of a run on its own, bit
for bit: every node's neighbour terms are added in the same order.
Stopped blocks leave the batch once they are most of it.  The one place
the orders differ is the residual.  A lone run sums its changes with
numpy's pairwise `sum`, while `np.add.reduceat` sums each block in
another order.  For k non-negative terms the two sums differ by less than
k * eps * sum, so `_below_tol` sums a block again the pairwise way
whenever its residual lies that close to `tol`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .netbuild import GraphBatch, label_components


class StructuralFeatures(NamedTuple):
    """A network's descriptors, each a float: the columns of features.csv
    after story_id and builder, in file order."""

    n_nodes: float
    n_edges: float
    density: float
    avg_local_clustering: float
    aspl_lcc: float
    diameter_lcc: float
    pagerank_centralisation: float
    n_components: float


FEATURE_COLUMNS = StructuralFeatures._fields

# the seven regression predictors: every descriptor but n_components
STRUCTURAL_FEATURE_NAMES = FEATURE_COLUMNS[:-1]


def components(net):
    """Connected components, largest first, ties by smallest member lemma."""
    index = net.index
    return [{index.nodes[i] for i in index.members(c)} for c in range(index.n_components)]


def density(net):
    n = net.n_nodes
    if n < 2:
        return 0.0
    return 2.0 * net.n_edges / (n * (n - 1))


def avg_local_clustering(net):
    """Mean of 2*t_i / (k_i*(k_i-1)) over nodes of degree >= 2; 0 if none.

    Added one at a time in sorted-node order, as the built-in `sum` adds
    before Python 3.12 (it compensates from 3.12 on), so the result depends
    neither on hashing nor on the interpreter.
    """
    adj = net.index.dense_adjacency()
    links = ((adj @ adj) * adj).sum(axis=1).astype(np.int64) // 2
    k = net.index.degree
    values = (2.0 * links[k >= 2] / (k[k >= 2] * (k[k >= 2] - 1))).tolist()
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def aspl_lcc(net):
    """Mean shortest-path distance over ordered node pairs of the LCC; 0 when |LCC| <= 1."""
    n = net.index.members(0).size
    total, _ = net.index.lcc_path_lengths
    return total / (n * (n - 1)) if n > 1 else 0.0


def diameter_lcc(net):
    return net.index.lcc_path_lengths[1]


def _check_damping(damping):
    if not 0 < damping < 1:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")


def _below_tol(diff, starts, sizes, tol):
    """Per block of the non-negative `diff`, whether the block's sum is below
    `tol` as its pairwise `diff[block].sum()` decides it."""
    total = np.add.reduceat(diff, starts)
    below = total < tol
    near = np.abs(total - tol) <= sizes * np.finfo(float).eps * total
    for b in np.flatnonzero(near).tolist():
        below[b] = diff[starts[b] : starts[b] + sizes[b]].sum() < tol
    return below


def _power_iteration(batch, damping, tol, max_iter):
    """PageRank of every block of `batch`, each with no degree-0 node.

    A block stops at the first step whose L1 change drops below `tol`;
    stopped blocks leave the batch once they hold most of it.  Raises
    ConvergenceError when a block is still going after `max_iter` steps.
    """
    rank = np.repeat(1.0 / batch.sizes, batch.sizes)
    teleport = np.repeat((1.0 - damping) / batch.sizes, batch.sizes)
    out = np.empty_like(rank)
    where = np.arange(rank.size)  # each node's position in `out`
    going = np.ones(batch.sizes.size, dtype=bool)
    for _ in range(max_iter):
        new = teleport + damping * batch.neighbour_sum(rank / batch.degree)
        diff = np.abs(new - rank)
        rank = new
        stopped = going & _below_tol(diff, batch.starts, batch.sizes, tol)
        if stopped.any():
            done = stopped[batch.block]
            out[where[done]] = rank[done]
            going &= ~stopped
            if not going.any():
                return out
            if 2 * np.count_nonzero(going) < going.size:
                keep = going[batch.block]
                batch = batch.induced(keep)
                rank, teleport, where, diff = rank[keep], teleport[keep], where[keep], diff[keep]
                going = np.ones(batch.sizes.size, dtype=bool)
    first = np.flatnonzero(going)[0]
    start = batch.starts[first]
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations",
        residual=float(diff[start : start + batch.sizes[first]].sum()),
    )


def pagerank_centralisations(indexes, damping=0.85, tol=1e-10, max_iter=1000):
    """Per index, the mean absolute deviation of its LCC's PageRank from
    uniform over the LCC size (0 for an LCC of at most one node), from one
    power iteration over all of their LCCs."""
    _check_damping(damping)
    if not indexes:
        return []
    label_components(indexes)
    batch = GraphBatch.of(indexes)
    lcc = np.concatenate([index.component for index in indexes]) == 0
    ranked = np.bincount(batch.block[lcc], minlength=len(indexes)) > 1
    out = np.zeros(len(indexes))
    if ranked.any():
        lccs = batch.induced(lcc & ranked[batch.block])
        del batch, lcc  # only the LCCs are iterated
        rank = _power_iteration(lccs, damping, tol, max_iter)
        deviation = np.abs(rank - np.repeat(1.0 / lccs.sizes, lccs.sizes))
        out[ranked] = _sums_in_order(deviation, lccs) / lccs.sizes
    return out.tolist()


def _sums_in_order(values, batch):
    """Per block, its values added one at a time from the first, as a plain
    loop adds them (the built-in `sum` compensates from Python 3.12 on)."""
    total = np.zeros(batch.sizes.size)
    for i in range(int(batch.sizes.max())):
        longer = batch.sizes > i
        total[longer] += values[batch.starts[longer] + i]
    return total


def pagerank(net, damping=0.85, tol=1e-10, max_iter=1000):
    """Power iteration on the degree-normalised walk with uniform teleport.

    The walker follows an incident edge with probability `damping` and
    teleports uniformly otherwise.  Expects a connected graph (callers
    pass the LCC subgraph); stops when the L1 change drops below `tol`.
    """
    _check_damping(damping)
    index = net.index
    n = len(index.nodes)
    if n == 0:
        return {}
    if n == 1:
        return {index.nodes[0]: 1.0}
    if np.any(index.degree == 0):
        raise ValueError("pagerank expects a connected graph; pass the LCC subgraph")
    rank = _power_iteration(GraphBatch.of([index]), damping, tol, max_iter)
    return dict(zip(index.nodes, rank.tolist()))


def structural_features(net, centralisation):
    """The network's descriptors; `centralisation` is its PageRank
    centralisation, from `pagerank_centralisations` over a batch."""
    return StructuralFeatures(
        n_nodes=float(net.n_nodes),
        n_edges=float(net.n_edges),
        density=density(net),
        avg_local_clustering=avg_local_clustering(net),
        aspl_lcc=aspl_lcc(net),
        diameter_lcc=float(diameter_lcc(net)),
        pagerank_centralisation=float(centralisation),
        n_components=float(net.index.n_components),
    )


def feature_rows(features_by_story_builder):
    """Header, then one features row per (story, builder)."""
    yield ("story_id", "builder") + FEATURE_COLUMNS
    for (story_id, builder), feats in features_by_story_builder.items():
        yield (story_id, builder, *feats)


def histogram_rows(values):
    """Header, then the 20 equal-width bins' edges and counts for one
    feature/builder distribution."""
    yield ("bin_left", "bin_right", "count")
    arr = np.asarray(values, dtype=float)
    if arr.size:
        counts, edges = np.histogram(arr, bins=20)
        yield from zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
