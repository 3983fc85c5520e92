"""Structural descriptors of a lexical network.

Everything is computed with exact algorithms (breadth-first distances,
triangle counting, power iteration) over the network's shared
`GraphIndex`; path-based measures operate on the largest connected
component, and graphs too degenerate for a measure yield 0 so feature
rows stay complete.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

STRUCTURAL_FEATURE_NAMES = (
    "n_nodes",
    "n_edges",
    "density",
    "avg_local_clustering",
    "aspl_lcc",
    "diameter_lcc",
    "pagerank_centralisation",
)


@dataclass(frozen=True)
class StructuralFeatures:
    n_nodes: int
    n_edges: int
    density: float
    avg_local_clustering: float
    aspl_lcc: float
    diameter_lcc: int
    pagerank_centralisation: float
    n_components: int

    def as_feature_dict(self):
        """The seven descriptors used as regression predictors."""
        return {name: float(getattr(self, name)) for name in STRUCTURAL_FEATURE_NAMES}

    def as_dict(self):
        d = self.as_feature_dict()
        d["n_components"] = float(self.n_components)
        return d


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

    Summed in sorted-node order, so the result does not depend on hashing.
    """
    adj = net.index.dense_adjacency()
    links = ((adj @ adj) * adj).sum(axis=1).astype(np.int64) // 2
    k = net.index.degree
    values = (2.0 * links[k >= 2] / (k[k >= 2] * (k[k >= 2] - 1))).tolist()
    return sum(values) / len(values) if values else 0.0


def aspl_lcc(net):
    """Mean shortest-path distance over ordered node pairs of the LCC; 0 when |LCC| <= 1."""
    n = net.index.members(0).size
    total, _ = net.index.lcc_path_lengths
    return total / (n * (n - 1)) if n > 1 else 0.0


def diameter_lcc(net):
    return net.index.lcc_path_lengths[1]


def _pagerank_rows(index, rows, damping, tol, max_iter):
    """Power iteration on the graph induced by `rows`, a union of components."""
    n = rows.size
    deg = index.degree[rows].astype(float)
    contrib = np.zeros(len(index.nodes))
    rank = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        contrib[rows] = rank / deg
        new = teleport + damping * index.neighbour_sum(contrib)[rows]
        residual = np.abs(new - rank).sum()
        rank = new
        if residual < tol:
            return rank
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations", residual=residual
    )


def pagerank(net, damping=0.85, tol=1e-10, max_iter=1000):
    """Power iteration on the degree-normalised walk with uniform teleport.

    The walker follows an incident edge with probability `damping` and
    teleports uniformly otherwise.  Expects a connected graph (callers
    pass the LCC subgraph); stops when the L1 change drops below `tol`.
    """
    if not 0 < damping < 1:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    index = net.index
    n = len(index.nodes)
    if n == 0:
        return {}
    if n == 1:
        return {index.nodes[0]: 1.0}
    if np.any(index.degree == 0):
        raise ValueError("pagerank expects a connected graph; pass the LCC subgraph")
    rank = _pagerank_rows(index, np.arange(n), damping, tol, max_iter)
    return dict(zip(index.nodes, rank.tolist()))


def pagerank_centralisation(net, damping=0.85, tol=1e-10, max_iter=1000):
    """Mean absolute deviation of LCC PageRank from uniform, over LCC size."""
    if not 0 < damping < 1:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    lcc = net.index.members(0)
    n = lcc.size
    if n <= 1:
        return 0.0
    ranks = _pagerank_rows(net.index, lcc, damping, tol, max_iter)
    u = 1.0 / n
    s = sum(abs(r - u) for r in ranks.tolist())
    return s / n


def structural_features(net, damping=0.85):
    return StructuralFeatures(
        n_nodes=net.n_nodes,
        n_edges=net.n_edges,
        density=density(net),
        avg_local_clustering=avg_local_clustering(net),
        aspl_lcc=aspl_lcc(net),
        diameter_lcc=diameter_lcc(net),
        pagerank_centralisation=pagerank_centralisation(net, damping=damping),
        n_components=net.index.n_components,
    )


def features_csv_rows(features_by_story_builder):
    """Rows for the features CSV: one per (story, builder)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["story_id", "builder"] + list(STRUCTURAL_FEATURE_NAMES) + ["n_components"]
    writer.writerow(header)
    for (story_id, builder), feats in features_by_story_builder.items():
        d = feats.as_dict()
        writer.writerow(
            [story_id, builder]
            + [repr(d[name]) for name in STRUCTURAL_FEATURE_NAMES]
            + [repr(d["n_components"])]
        )
    return out.getvalue()


def histogram_csv(values, bins=20):
    """Bin edges and counts for one feature/builder distribution."""
    arr = np.asarray(list(values), dtype=float)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bin_left", "bin_right", "count"])
    if arr.size == 0:
        return out.getvalue()
    counts, edges = np.histogram(arr, bins=bins)
    for i, count in enumerate(counts):
        writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(count)])
    return out.getvalue()
