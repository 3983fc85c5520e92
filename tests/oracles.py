"""Slow reference implementations kept as test oracles.

`wilcoxon_exact_enumeration` checks the exact Wilcoxon path by brute
force over all 2^n sign assignments; `parse_graphml` reads back the
GraphML export for round-trip tests; `induced_subgraph` and `edge_hash`
cut and fingerprint networks for graph tests.
"""

import hashlib
import itertools
import xml.etree.ElementTree as ET

import numpy as np

from storynets.netbuild import LexicalNetwork, make_network
from storynets.stats import TestResult, _average_ranks


def wilcoxon_exact_enumeration(x, y, alternative="two-sided"):
    """Brute-force 2^n reference for the exact path (test oracle)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    d = d[d != 0]
    n = d.size
    if n == 0:
        return TestResult(0.0, 1.0, 0, "wilcoxon-enumeration", alternative)
    ranks = _average_ranks(np.abs(d))
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
    return TestResult(statistic, p, int(n), "wilcoxon-enumeration", alternative)


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
    return make_network(nodes, edges, valence=valence)


def induced_subgraph(net, keep):
    """The network restricted to the nodes in `keep`."""
    keep = frozenset(keep)
    return LexicalNetwork(
        nodes=keep & net.nodes,
        edges=frozenset(e for e in net.edges if e[0] in keep and e[1] in keep),
        builder_tag=net.builder_tag,
        valence={n: v for n, v in net.valence.items() if n in keep},
    )


def edge_hash(net):
    """Digest of the sorted edge list; equal graphs hash equally."""
    blob = "\n".join(f"{a},{b}" for a, b in sorted(net.edges))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
