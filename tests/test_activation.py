import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storynets import cli
from storynets.activation import (
    TRACE_EXPORT_STEPS,
    ActivationTrace,
    MissingSeedError,
    prompt_alphas,
    run_to_stationarity,
    stationary_oracle,
)
from storynets.netbuild import LexicalNetwork, build_all_variants
from storynets.textpipe import Story

from conftest import make_sentence
from oracles import (
    ActivationState,
    init_activation,
    prompt_alphas_reference,
    run_to_stationarity_reference,
    step,
)


def path_graph(*labels):
    return LexicalNetwork(labels, list(zip(labels, labels[1:])))


def complete_graph(*labels):
    import itertools

    return LexicalNetwork(labels, list(itertools.combinations(labels, 2)))


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    labels = [f"n{i:02d}" for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return LexicalNetwork(labels, edges)


class TestInit:
    def test_seed_gets_full_mass(self):
        state = init_activation(complete_graph("a", "b", "c", "d"), "a")
        assert state.values["a"] == 4.0
        assert state.values["b"] == 0.0
        assert state.step == 0

    def test_single_node(self):
        state = init_activation(LexicalNetwork({"a"}, []), "a")
        assert state.values == {"a": 1.0}

    def test_missing_seed_signals(self):
        with pytest.raises(MissingSeedError):
            init_activation(LexicalNetwork({"a"}, []), "z")


class TestStep:
    def test_two_node_half_retention(self):
        net = LexicalNetwork({"a", "b"}, [("a", "b")])
        state = init_activation(net, "a")
        # start a=2, b=0; a keeps 1, sends 1
        after = step(state, net, 0.5)
        assert after.values == {"a": 1.0, "b": 1.0}
        assert after.step == 1

    def test_isolated_node_retains_everything(self):
        net = LexicalNetwork({"a", "b", "c"}, [("b", "c")])
        state = init_activation(net, "a")
        for r in (0.2, 0.5, 0.8):
            after = step(state, net, r)
            assert after.values["a"] == 3.0

    def test_uniform_state_on_regular_graph_is_fixed(self):
        net = complete_graph("a", "b", "c")
        state = ActivationState({"a": 1.0, "b": 1.0, "c": 1.0}, 0)
        after = step(state, net, 0.5)
        assert after.values == pytest.approx({"a": 1.0, "b": 1.0, "c": 1.0})

    def test_retention_bounds(self):
        net = LexicalNetwork({"a"}, [])
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
        net = LexicalNetwork(labels, edges)
        assert stationary_oracle(net, "n0") == pytest.approx(5.0)
        trace = run_to_stationarity(net, "n0")
        assert trace.stationary_alpha == pytest.approx(5.0, abs=1e-6)

    def test_degree_zero_seed_keeps_all(self):
        net = LexicalNetwork({"a", "b", "c"}, [("b", "c")])
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
        pruned = LexicalNetwork(
            net.nodes - {"exist"},
            [e for e in net.edges if "exist" not in e],
            net.builder_tag,
        )
        traces = prompt_alphas(demo_story, {"coocc_WS2": pruned})
        trace = traces["coocc_WS2"][2]
        assert not trace.seed_in_network
        assert trace.stationary_alpha == pruned.n_nodes
        assert trace.converged


def _batch_story():
    # "betx" is one edit from "beta", so two prompts match the same node
    return Story(
        id="batch",
        prompt_lemmas=("alpha", "beta", "betx"),
        text="Alpha beta gamma.",
        sentences=(make_sentence(["alpha", "beta", "gamma"]),),
        ratings={"H": 3},
    )


def _batch_nets():
    long_path = [f"p{i:02d}" for i in range(30)]
    nets = {
        # small dense graphs and stars stop early; long paths run all 100 steps
        "complete": complete_graph("alpha", "beta", "c", "d"),
        "star": LexicalNetwork(
            {"alpha", "beta", "c", "d", "e"}, [("alpha", x) for x in ("beta", "c", "d", "e")]
        ),
        "path": path_graph("alpha", *long_path, "beta"),
        "absent": path_graph("beta", "x", "y", "z"),
        "degree_zero": LexicalNetwork({"alpha", "beta", "c", "d"}, [("beta", "c"), ("c", "d")]),
        "outside_lcc": LexicalNetwork(
            {"alpha", "e", "beta", *long_path[:6]},
            [("alpha", "e"), ("beta", "p00")] + list(zip(long_path[:5], long_path[1:6])),
        ),
    }
    for i in range(4):
        net = random_graph(14, 0.25, 40 + i)
        labels = sorted(net.nodes)
        rename = {labels[0]: "alpha", labels[1]: "beta"}
        nets[f"random{i}"] = LexicalNetwork(
            [rename.get(n, n) for n in net.nodes],
            [(rename.get(a, a), rename.get(b, b)) for a, b in net.edges],
        )
    return nets


def _fields(trace):
    return (trace.seed, trace.seed_series, trace.steps_taken, trace.stationary_alpha,
            trace.converged, trace.seed_in_network)


class TestBatchedDiffusion:
    @pytest.mark.parametrize("retention", [0.2, 0.5, 0.8])
    def test_prompt_alphas_match_per_run_reference(self, retention):
        story, nets = _batch_story(), _batch_nets()
        batched = prompt_alphas(story, nets, retention=retention)
        reference = prompt_alphas_reference(story, nets, retention=retention)
        assert list(batched) == list(reference)
        for tag in nets:
            assert [_fields(t) for t in batched[tag]] == [_fields(t) for t in reference[tag]]
        traces = [t for triple in batched.values() for t in triple]
        steps = {t.steps_taken for t in traces if t.seed_in_network}
        assert min(steps) < TRACE_EXPORT_STEPS and max(steps) == TRACE_EXPORT_STEPS
        assert [t.seed for t in batched["complete"]] == ["alpha", "beta", "beta"]
        assert not batched["absent"][0].seed_in_network
        assert batched["degree_zero"][0].stationary_alpha == 4.0
        outside = nets["outside_lcc"].index
        assert outside.component[outside.position["alpha"]] > 0

    @pytest.mark.parametrize("seed_node", ["alpha", "beta"])
    def test_single_run_matches_reference(self, seed_node):
        for net in _batch_nets().values():
            if seed_node not in net.nodes:
                continue
            got = run_to_stationarity(net, seed_node, retention=0.3)
            want = run_to_stationarity_reference(net, seed_node, retention=0.3)
            assert _fields(got) == _fields(want)
            assert got.mass_drift == pytest.approx(want.mass_drift, abs=1e-12)

    def test_all_seeds_absent_runs_nothing(self):
        story = _batch_story()
        traces = prompt_alphas(story, {"absent": path_graph("x", "y")})
        assert [t.seed_in_network for t in traces["absent"]] == [False] * 3


class TestExports:
    def test_csv_shapes(self, demo_story, tmp_path):
        nets = build_all_variants(demo_story)
        per_builder = prompt_alphas(demo_story, nets)
        traces = {("demo1", tag): triple for tag, triple in per_builder.items()}
        assert len(traces) == len(nets)
        assert all(len(triple) == 3 for triple in traces.values())
        path = cli._write_trajectories(
            cli._Run(cli.RunConfig(out_dir=str(tmp_path))), "t.csv", traces.items()
        )
        with open(path, newline="", encoding="utf-8") as fh:
            traj = list(csv.reader(fh))
        assert traj[0] == ["step", "story_id", "builder", "seed", "value"]
        # at most 101 rows (steps 0..100) per (builder, seed) series
        assert len(traj) - 1 <= len(nets) * 3 * 101
        values = [v for triple in traces.values() for t in triple for v in t.seed_series]
        assert [row[4] for row in traj[1:]] == [repr(v) for v in values]

    def test_trace_invariants(self):
        net = path_graph("a", "b", "c", "d")
        trace = run_to_stationarity(net, "b")
        assert trace.seed_series[0] == 4.0
        assert trace.stationary_alpha == trace.seed_series[-1]
        assert isinstance(trace, ActivationTrace)
