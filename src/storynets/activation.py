"""Retention-parameterised spreading activation seeded at prompt words.

Each iteration a node keeps a fraction `retention` of its activation and
spreads the rest uniformly over its neighbours; degree-0 nodes keep
everything.  Total mass (initialised to the node count N at the seed) is
conserved, and on the seed's component the process converges to the
degree-proportional distribution: `stationary_oracle` gives that limit
in closed form.

`_diffuse` is the one diffusion loop.  It lays several (network, seed)
runs out as one `netbuild.GraphBatch`, a block-diagonal graph with one
block per run, and advances every block at once, so `prompt_alphas` pays
numpy's per-call overhead once per step for a whole story instead of
once per run.  Each node's neighbour terms are summed in the same order
as in a lone run, so every value is bit-identical to it.  A run stops at
the first step whose largest change in its own block
(`np.maximum.reduceat`) drops below `tol`; the loop ends when every run
has stopped or `max_iter` is reached.  A maximum does not depend on the
order it is taken in, so this stop needs none of the residual guard that
PageRank's summed L1 change does (see `graphmetrics`).
`run_to_stationarity` is the one-run case.  The component labels that
`stationary_oracle` reads come from `netbuild.label_components`, which
`spread` runs once over all of its networks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .netbuild import GraphBatch
from .textpipe import match_prompts

DEFAULT_RETENTION = 0.5
DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITER = 100_000
TRACE_EXPORT_STEPS = 100


class MissingSeedError(KeyError):
    """Seed lemma is not a node of the network."""


@dataclass(frozen=True)
class ActivationTrace:
    seed: str
    seed_series: tuple[float, ...]
    stationary_alpha: float
    converged: bool
    steps_taken: int
    seed_in_network: bool = True
    mass_drift: float = 0.0


def _check_retention(retention):
    if not 0.0 < retention < 1.0:
        raise ValueError(f"retention must lie in (0, 1), got {retention}")


def _diffuse(runs, retention, tol, max_iter):
    """One ActivationTrace per (network, seed) in `runs`, all advanced together.

    The alpha of each trace is its seed's value at the step it stopped.
    """
    _check_retention(retention)
    if not runs:
        return []
    batch = GraphBatch.of([net.index for net, _ in runs])
    starts, degree = batch.starts, batch.degree
    seeds = starts + [net.index.position[seed] for net, seed in runs]
    mass = batch.sizes.astype(float)
    values = np.zeros(batch.n_nodes)
    values[seeds] = mass
    moving = degree > 0
    history = [values[seeds]]
    steps = np.full(len(runs), max_iter)
    drift = np.zeros(len(runs))
    active = np.ones(len(runs), dtype=bool)
    for step_no in range(1, max_iter + 1):
        outflow = np.divide(
            (1.0 - retention) * values, degree, out=np.zeros_like(values), where=moving
        )
        new = np.where(moving, retention * values + batch.neighbour_sum(outflow), values)
        delta = np.maximum.reduceat(np.abs(new - values), starts)
        block_drift = np.abs(np.add.reduceat(new, starts) - mass)
        drift[active] = np.maximum(drift[active], block_drift[active])
        values = new
        history.append(values[seeds])
        stopped = active & (delta < tol)
        steps[stopped] = step_no
        active &= ~stopped
        if not active.any():
            break
    history = np.array(history)
    return [
        ActivationTrace(
            seed=seed,
            seed_series=tuple(history[: k + 1, i].tolist()),
            stationary_alpha=float(history[k, i]),
            converged=not active[i],
            steps_taken=int(k),
            seed_in_network=True,
            mass_drift=float(drift[i]),
        )
        for i, ((_, seed), k) in enumerate(zip(runs, steps))
    ]


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
    if seed not in net.nodes:
        raise MissingSeedError(seed)
    (trace,) = _diffuse([(net, seed)], retention, tol, max_iter)
    return trace


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


def _isolated_seed_trace(seed, n):
    return ActivationTrace(
        seed=seed,
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
    seeds = [m.matched_node if m.matched else m.prompt_lemma for m in match_prompts(story)]
    runs = [(net, seed) for net in nets.values() for seed in seeds if seed in net.nodes]
    diffused = iter(_diffuse(runs, retention, DEFAULT_TOLERANCE, TRACE_EXPORT_STEPS))
    return {
        tag: tuple(
            replace(next(diffused), stationary_alpha=stationary_oracle(net, seed), converged=True)
            if seed in net.nodes
            else _isolated_seed_trace(seed, net.n_nodes)
            for seed in seeds
        )
        for tag, net in nets.items()
    }
