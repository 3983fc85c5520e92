import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storynets.activation import (
    TRACE_EXPORT_STEPS,
    ActivationTrace,
    MissingSeedError,
    init_activation,
    prompt_alphas,
    run_to_stationarity,
    stationary_oracle,
    step,
    trajectory_rows,
)
from storynets.netbuild import build_all_variants, make_network


def path_graph(*labels):
    return make_network(labels, list(zip(labels, labels[1:])))


def complete_graph(*labels):
    import itertools

    return make_network(labels, list(itertools.combinations(labels, 2)))


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


class TestInit:
    def test_seed_gets_full_mass(self):
        state = init_activation(complete_graph("a", "b", "c", "d"), "a")
        assert state.values["a"] == 4.0
        assert state.values["b"] == 0.0
        assert state.step == 0

    def test_single_node(self):
        state = init_activation(make_network({"a"}, []), "a")
        assert state.values == {"a": 1.0}

    def test_missing_seed_signals(self):
        with pytest.raises(MissingSeedError):
            init_activation(make_network({"a"}, []), "z")


class TestStep:
    def test_two_node_half_retention(self):
        net = make_network({"a", "b"}, [("a", "b")])
        state = init_activation(net, "a")
        # start a=2, b=0; a keeps 1, sends 1
        after = step(state, net, 0.5)
        assert after.values == {"a": 1.0, "b": 1.0}
        assert after.step == 1

    def test_isolated_node_retains_everything(self):
        net = make_network({"a", "b", "c"}, [("b", "c")])
        state = init_activation(net, "a")
        for r in (0.2, 0.5, 0.8):
            after = step(state, net, r)
            assert after.values["a"] == 3.0

    def test_uniform_state_on_regular_graph_is_fixed(self):
        net = complete_graph("a", "b", "c")
        from storynets.activation import ActivationState

        state = ActivationState({"a": 1.0, "b": 1.0, "c": 1.0}, 0)
        after = step(state, net, 0.5)
        assert after.values == pytest.approx({"a": 1.0, "b": 1.0, "c": 1.0})

    def test_retention_bounds(self):
        net = make_network({"a"}, [])
        state = init_activation(net, "a")
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                step(state, net, bad)


class TestStationarity:
    def test_path_seed_endpoint(self):
        net = path_graph("a", "b", "c")
        trace = run_to_stationarity(net, "a")
        assert trace.converged
        assert trace.stationary_alpha == pytest.approx(0.75, abs=1e-6)
        assert trace.seed_series[0] == 3.0

    def test_matches_oracle_values(self):
        net = path_graph("a", "b", "c")
        assert stationary_oracle(net, "a") == pytest.approx(3 * (1 / 4))
        assert stationary_oracle(net, "b") == pytest.approx(3 * (2 / 4))
        assert stationary_oracle(complete_graph(*"abcde"), "c") == pytest.approx(1.0)

    def test_mass_stays_in_seed_component(self):
        labels = [f"n{i}" for i in range(10)]
        edges = [("n0", "n1")] + [(labels[i], labels[i + 1]) for i in range(2, 9)]
        net = make_network(labels, edges)
        assert stationary_oracle(net, "n0") == pytest.approx(5.0)
        trace = run_to_stationarity(net, "n0")
        assert trace.stationary_alpha == pytest.approx(5.0, abs=1e-6)

    def test_degree_zero_seed_keeps_all(self):
        net = make_network({"a", "b", "c"}, [("b", "c")])
        trace = run_to_stationarity(net, "a")
        assert trace.stationary_alpha == pytest.approx(3.0)
        assert stationary_oracle(net, "a") == 3.0

    def test_retention_invariance_of_limit(self):
        net = random_graph(12, 0.3, 9)
        seed = sorted(net.nodes)[0]
        alphas = [
            run_to_stationarity(net, seed, retention=r).stationary_alpha
            for r in (0.2, 0.4, 0.5, 0.6, 0.8)
        ]
        assert max(alphas) - min(alphas) < 1e-6

    def test_non_convergence_flagged_not_raised(self):
        net = path_graph(*[f"n{i}" for i in range(30)])
        trace = run_to_stationarity(net, "n0", max_iter=3)
        assert not trace.converged
        assert trace.steps_taken == 3

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_conservation_and_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        net = random_graph(int(rng.integers(2, 20)), float(rng.uniform(0.1, 0.7)), seed)
        seed_node = sorted(net.nodes)[int(rng.integers(0, net.n_nodes))]
        retention = float(rng.uniform(0.1, 0.9))
        trace = run_to_stationarity(net, seed_node, retention=retention)
        assert trace.mass_drift <= 1e-9
        assert min(trace.seed_series) >= 0.0
        if trace.converged:
            assert trace.stationary_alpha == pytest.approx(
                stationary_oracle(net, seed_node), abs=1e-6
            )

    def test_stepwise_conservation_and_nonnegativity(self):
        net = random_graph(8, 0.4, 3)
        state = init_activation(net, sorted(net.nodes)[0])
        for _ in range(25):
            state = step(state, net, 0.3)
            assert state.total() == pytest.approx(net.n_nodes, abs=1e-9)
            assert all(v >= 0.0 for v in state.values.values())


class TestPromptAlphas:
    def test_connected_prompt_uses_dynamics(self, demo_story):
        nets = build_all_variants(demo_story)
        traces = prompt_alphas(demo_story, nets)
        assert set(traces) == set(nets)
        tfmn = traces["TFMN"]
        assert [t.seed for t in tfmn] == ["gloom", "payment", "exist"]
        for t in tfmn:
            assert t.seed_in_network and t.converged
            assert t.stationary_alpha == stationary_oracle(nets["TFMN"], t.seed)
            reference = run_to_stationarity(nets["TFMN"], t.seed)
            assert t.stationary_alpha == pytest.approx(reference.stationary_alpha, abs=1e-6)
            assert t.seed_series == reference.seed_series[: TRACE_EXPORT_STEPS + 1]

    def test_absent_prompt_gets_full_mass(self, demo_story):
        nets = {"coocc_WS2": build_all_variants(demo_story)["coocc_WS2"]}
        # drop the "exist" node to force the isolated-seed rule
        net = nets["coocc_WS2"]
        pruned = make_network(
            net.nodes - {"exist"},
            [e for e in net.edges if "exist" not in e],
            net.builder_tag,
        )
        traces = prompt_alphas(demo_story, {"coocc_WS2": pruned})
        trace = traces["coocc_WS2"][2]
        assert not trace.seed_in_network
        assert trace.stationary_alpha == pruned.n_nodes
        assert trace.converged


class TestExports:
    def test_csv_shapes(self, demo_story):
        nets = build_all_variants(demo_story)
        per_builder = prompt_alphas(demo_story, nets)
        traces = {("demo1", tag): triple for tag, triple in per_builder.items()}
        assert len(traces) == len(nets)
        assert all(len(triple) == 3 for triple in traces.values())
        traj = list(trajectory_rows(traces.items()))
        assert traj[0] == ("step", "story_id", "builder", "seed", "value")
        # at most 101 rows (steps 0..100) per (builder, seed) series
        assert len(traj) - 1 <= len(nets) * 3 * 101
        assert all(type(row[4]) is float for row in traj[1:])

    def test_trace_invariants(self):
        net = path_graph("a", "b", "c", "d")
        trace = run_to_stationarity(net, "b")
        assert trace.seed_series[0] == 4.0
        assert trace.stationary_alpha == trace.seed_series[-1]
        assert isinstance(trace, ActivationTrace)
