import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import storynets
from storynets import graphmetrics
from storynets.errors import ConvergenceError
from storynets.graphmetrics import (
    aspl_lcc,
    avg_local_clustering,
    components,
    density,
    diameter_lcc,
    pagerank,
    pagerank_centralisation,
    structural_features,
)
from storynets.netbuild import build_all_variants, build_cooccurrence, make_network

from conftest import make_sentence
from oracles import induced_subgraph


def path_graph(*labels):
    return make_network(labels, list(zip(labels, labels[1:])))


def complete_graph(*labels):
    return make_network(labels, list(itertools.combinations(labels, 2)))


def star_graph(hub, leaves):
    return make_network([hub, *leaves], [(hub, leaf) for leaf in leaves])


def cycle_graph(*labels):
    edges = list(zip(labels, labels[1:])) + [(labels[-1], labels[0])]
    return make_network(labels, edges)


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    labels = [f"n{i:02d}" for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return make_network(labels, edges)


# -- independent oracles ------------------------------------------------------


def floyd_warshall(net):
    nodes = sorted(net.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b in net.edges:
        dist[index[a], index[b]] = 1.0
        dist[index[b], index[a]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return nodes, dist


def oracle_lcc_metrics(net):
    """ASPL and diameter of the LCC from an all-pairs distance matrix."""
    nodes, dist = floyd_warshall(net)
    if not nodes:
        return 0.0, 0
    finite = dist < np.inf
    comp_sizes = finite.sum(axis=1)
    best = int(np.argmax(comp_sizes))
    members = np.nonzero(finite[best])[0]
    if len(members) <= 1:
        # fall back to the true LCC: any row whose component is largest
        order = np.argsort(-comp_sizes)
        members = np.nonzero(finite[order[0]])[0]
    if len(members) <= 1:
        return 0.0, 0
    sub = dist[np.ix_(members, members)]
    total = sub.sum()
    n = len(members)
    return float(total / (n * (n - 1))), int(sub.max())


def oracle_clustering(net):
    adj = net.adjacency()
    values = []
    for node, neigh in adj.items():
        k = len(neigh)
        if k < 2:
            continue
        triangles = sum(
            1 for u, v in itertools.combinations(sorted(neigh), 2) if v in adj[u]
        )
        values.append(2.0 * triangles / (k * (k - 1)))
    return sum(values) / len(values) if values else 0.0


def oracle_pagerank(net, damping=0.85, iterations=10_000):
    nodes = sorted(net.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    P = np.zeros((n, n))
    for a, b in net.edges:
        P[index[b], index[a]] = 1.0
        P[index[a], index[b]] = 1.0
    P /= P.sum(axis=0, keepdims=True)
    r = np.full(n, 1.0 / n)
    for _ in range(iterations):
        r = (1 - damping) / n + damping * P @ r
    return {node: r[index[node]] for node in nodes}


# -- examples -----------------------------------------------------------------


class TestDensity:
    def test_complete_graph(self):
        assert density(complete_graph("a", "b", "c", "d")) == pytest.approx(1.0)

    def test_path(self):
        assert density(path_graph("a", "b", "c")) == pytest.approx(2 * 2 / (3 * 2))

    def test_single_node(self):
        assert density(make_network({"a"}, [])) == 0.0


class TestClustering:
    def test_triangle(self):
        assert avg_local_clustering(complete_graph("a", "b", "c")) == pytest.approx(1.0)

    def test_path_is_zero(self):
        assert avg_local_clustering(path_graph("a", "b", "c")) == 0.0

    def test_k4_minus_edge(self):
        net = make_network(
            "abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
        )
        assert avg_local_clustering(net) == pytest.approx(5 / 6)


class TestPaths:
    def test_aspl_path_three(self):
        assert aspl_lcc(path_graph("a", "b", "c")) == pytest.approx(8 / 6)

    def test_aspl_complete(self):
        assert aspl_lcc(complete_graph(*"abcde")) == pytest.approx(1.0)

    def test_aspl_on_lcc_only(self):
        net = make_network("abcd", [("a", "b"), ("c", "d")])
        assert aspl_lcc(net) == pytest.approx(1.0)

    def test_diameter_path_five(self):
        assert diameter_lcc(path_graph(*"abcde")) == 4

    def test_diameter_star(self):
        assert diameter_lcc(star_graph("h", "abc")) == 2

    def test_degenerate_zero(self):
        assert aspl_lcc(make_network({"a"}, [])) == 0.0
        assert diameter_lcc(make_network(set(), [])) == 0


class TestComponents:
    def test_empty(self):
        assert components(make_network(set(), [])) == []

    def test_two_disjoint_edges(self):
        comps = components(make_network("abcd", [("a", "b"), ("c", "d")]))
        assert [len(c) for c in comps] == [2, 2]
        assert comps[0] == {"a", "b"}  # tie broken by smallest lemma

    def test_pronoun_variant_less_fragmented(self, demo_story):
        nets = build_all_variants(demo_story)
        plain = len(components(nets["coocc_WS2"]))
        with_p = len(components(nets["coocc_p_WS2"]))
        assert plain > with_p


class TestPagerank:
    def test_cycle_uniform(self):
        ranks = pagerank(cycle_graph(*"abcdef"))
        assert all(r == pytest.approx(1 / 6, abs=1e-9) for r in ranks.values())

    def test_single_node(self):
        assert pagerank(make_network({"a"}, [])) == {"a": 1.0}

    def test_star_matches_dense_oracle(self):
        net = star_graph("h", ["a", "b", "c"])
        mine = pagerank(net)
        reference = oracle_pagerank(net)
        for node in net.nodes:
            assert mine[node] == pytest.approx(reference[node], abs=1e-8)

    def test_sums_to_one(self):
        for seed in range(5):
            net = random_graph(12, 0.4, seed)
            lcc = components(net)[0]
            ranks = pagerank(induced_subgraph(net, lcc))
            assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-10)
            assert all(r >= 0 for r in ranks.values())

    def test_convergence_error_reports_residual(self):
        with pytest.raises(ConvergenceError) as excinfo:
            pagerank(star_graph("h", ["a", "b", "c"]), max_iter=1)
        assert excinfo.value.residual is not None

    def test_centralisation_cycle_zero(self):
        assert pagerank_centralisation(cycle_graph(*"abcde")) == pytest.approx(0.0, abs=1e-9)

    def test_centralisation_empty_zero(self):
        assert pagerank_centralisation(make_network(set(), [])) == 0.0

    def test_centralisation_star_from_oracle(self):
        net = star_graph("h", ["a", "b", "c"])
        reference = oracle_pagerank(net)
        expected = sum(abs(r - 0.25) for r in reference.values()) / 4
        assert pagerank_centralisation(net) == pytest.approx(expected, abs=1e-8)


class TestStructuralFeatures:
    def test_empty_graph_all_zero(self):
        f = structural_features(make_network(set(), []))
        assert (
            f.n_nodes,
            f.n_edges,
            f.density,
            f.avg_local_clustering,
            f.aspl_lcc,
            f.diameter_lcc,
            f.pagerank_centralisation,
            f.n_components,
        ) == (0, 0, 0.0, 0.0, 0.0, 0, 0.0, 0)

    def test_reference_sentence_ws3(self):
        net = build_cooccurrence(
            [make_sentence(["child", "play", "football", "game"])], 3, False
        )
        f = structural_features(net)
        assert f.n_nodes == 4
        assert f.n_edges == 5
        assert f.density == pytest.approx(5 / 6)
        assert f.diameter_lcc == 2
        assert f.n_components == 1

    def test_components_zero_iff_no_nodes(self):
        assert structural_features(make_network({"a"}, [])).n_components == 1


class TestOracleAgreement:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
    def test_metrics_match_brute_force(self, p):
        for seed in range(12):
            net = random_graph(int(5 + (seed * 7) % 26), p, seed + int(p * 100))
            aspl_ref, diam_ref = oracle_lcc_metrics(net)
            assert aspl_lcc(net) == pytest.approx(aspl_ref, abs=1e-12)
            assert diameter_lcc(net) == diam_ref
            assert avg_local_clustering(net) == pytest.approx(oracle_clustering(net), abs=1e-12)
            n, m = net.n_nodes, net.n_edges
            expected_density = 2 * m / (n * (n - 1)) if n >= 2 else 0.0
            assert density(net) == pytest.approx(expected_density, abs=1e-15)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_density_in_unit_interval(self, seed):
        net = random_graph(2 + seed % 14, (seed % 9 + 1) / 10, seed)
        assert 0.0 <= density(net) <= 1.0

    def test_adding_edge_never_increases_aspl(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            net = random_graph(10, 0.35, seed + 50)
            lcc = components(net)[0]
            if len(lcc) < 3:
                continue
            missing = [
                (a, b)
                for a, b in itertools.combinations(sorted(lcc), 2)
                if (a, b) not in net.edges
            ]
            if not missing:
                continue
            extra = missing[rng.integers(0, len(missing))]
            before = aspl_lcc(net)
            bigger = make_network(net.nodes, set(net.edges) | {extra})
            assert components(bigger)[0] == lcc
            assert aspl_lcc(bigger) <= before + 1e-12


_FEATURES_SCRIPT = """
import numpy as np
from storynets.graphmetrics import structural_features
from storynets.netbuild import make_network

rng = np.random.default_rng(17)
letters = list("abcdefghijklmnop")
for _ in range(40):
    n = int(rng.integers(6, 40))
    labels = sorted({"".join(rng.choice(letters, size=5)) for _ in range(n)})
    edges = [
        (a, b)
        for i, a in enumerate(labels)
        for b in labels[i + 1 :]
        if rng.random() < 0.2
    ]
    print(repr(structural_features(make_network(labels, edges))))
"""


class TestDeterminism:
    def test_features_independent_of_hash_seed(self):
        src = str(Path(storynets.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", _FEATURES_SCRIPT],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            outputs.append(run.stdout)
        assert outputs[0].count("StructuralFeatures") == 40
        assert outputs[0] == outputs[1]


class TestExports:
    def test_features_csv_shape(self, demo_story):
        nets = build_all_variants(demo_story)
        feats = {("demo1", tag): structural_features(net) for tag, net in nets.items()}
        lines = list(graphmetrics.feature_rows(feats))
        assert lines[0][:3] == ("story_id", "builder", "n_nodes")
        assert len(lines) == 1 + 7

    def test_histogram_csv(self):
        lines = list(graphmetrics.histogram_rows([1.0, 2.0, 2.5, 3.0], bins=4))
        assert lines[0] == ("bin_left", "bin_right", "count")
        counts = [row[2] for row in lines[1:]]
        assert sum(counts) == 4
        assert all(type(c) is int for c in counts)
