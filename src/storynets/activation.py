"""Retention-parameterised spreading activation seeded at prompt words.

Each iteration a node keeps a fraction `retention` of its activation and
spreads the rest uniformly over its neighbours; degree-0 nodes keep
everything.  Total mass (initialised to the node count N at the seed) is
conserved, and on the seed's component the process converges to the
degree-proportional distribution: `stationary_oracle` gives that limit
in closed form, and `run_to_stationarity` iterates to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .textpipe import match_prompts

DEFAULT_RETENTION = 0.5
DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITER = 100_000
TRACE_EXPORT_STEPS = 100


class MissingSeedError(KeyError):
    """Seed lemma is not a node of the network."""


@dataclass(frozen=True)
class ActivationState:
    values: dict[str, float]
    step: int

    def total(self):
        return sum(self.values.values())


@dataclass(frozen=True)
class ActivationTrace:
    seed: str
    retention: float
    seed_series: tuple[float, ...]
    stationary_alpha: float
    converged: bool
    steps_taken: int
    seed_in_network: bool = True
    mass_drift: float = 0.0


def _check_retention(retention):
    if not 0.0 < retention < 1.0:
        raise ValueError(f"retention must lie in (0, 1), got {retention}")


def _advance(values, retention, index):
    moving = index.degree > 0
    outflow = np.divide(
        (1.0 - retention) * values, index.degree, out=np.zeros_like(values), where=moving
    )
    return np.where(moving, retention * values + index.neighbour_sum(outflow), values)


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


def run_to_stationarity(
    net,
    seed,
    retention=DEFAULT_RETENTION,
    tol=DEFAULT_TOLERANCE,
    max_iter=DEFAULT_MAX_ITER,
):
    """Iterate until the max per-node change drops below `tol`.

    Non-convergence is reported through the trace's `converged` flag, never
    silently.  `mass_drift` records the worst deviation of total mass from
    N seen while running.
    """
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
        retention=retention,
        seed_series=tuple(series),
        stationary_alpha=float(values[seed_idx]),
        converged=converged,
        steps_taken=steps,
        seed_in_network=True,
        mass_drift=drift,
    )


def stationary_oracle(net, seed):
    """Closed-form limit: N * deg(seed) / sum of degrees in seed's component.

    Degree-0 seeds keep the full mass N.
    """
    if seed not in net.nodes:
        raise MissingSeedError(seed)
    index = net.index
    i = index.position[seed]
    degree = int(index.degree[i])
    if not degree:
        return float(net.n_nodes)
    volume = int(index.degree[index.members(index.component[i])].sum())
    return net.n_nodes * degree / volume


def _isolated_seed_trace(seed, retention, n):
    return ActivationTrace(
        seed=seed,
        retention=retention,
        seed_series=(float(n),),
        stationary_alpha=float(n),
        converged=True,
        steps_taken=0,
        seed_in_network=False,
        mass_drift=0.0,
    )


def prompt_alphas(story, nets, retention=DEFAULT_RETENTION):
    """Per-builder activation traces for the three prompt seeds.

    Seeds are the matched prompt nodes; a prompt lemma absent from a
    given builder's network is assigned the full initial mass alpha = N
    (the isolated-seed rule).  Alphas are the exact, retention-free limit
    of `stationary_oracle`, so every trace counts as converged; the series
    holds at most TRACE_EXPORT_STEPS steps of the diffusion, the part that
    is exported.  Returns {builder_tag: (trace1, trace2, trace3)}.
    """
    matches = match_prompts(story)
    out = {}
    for tag, net in nets.items():
        traces = []
        for match in matches:
            seed = match.matched_node if match.matched else match.prompt_lemma
            if seed in net.nodes:
                trace = run_to_stationarity(
                    net, seed, retention=retention, max_iter=TRACE_EXPORT_STEPS
                )
                traces.append(
                    replace(trace, stationary_alpha=stationary_oracle(net, seed), converged=True)
                )
            else:
                traces.append(_isolated_seed_trace(seed, retention, net.n_nodes))
        out[tag] = tuple(traces)
    return out


def trajectory_rows(traces_by_story_builder):
    """Header, then the long-format seed-activation series of every trace;
    takes ((story_id, builder), traces) pairs, so they may be streamed."""
    yield ("step", "story_id", "builder", "seed", "value")
    for (story_id, builder), traces in traces_by_story_builder:
        for trace in traces:
            for step_no, value in enumerate(trace.seed_series):
                yield (step_no, story_id, builder, trace.seed, value)
