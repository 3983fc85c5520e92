#!/usr/bin/env python3
"""storynets benchmark: one seeded workload per call, self-checking.

    python3 perfbench/run.py --workload networks --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
the seed, whole timed rounds repeat while they fit in `--seconds` (at least
one), one round's outputs are checked against independent computations
and the last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 1` the program's public functions are
wrapped and the metrics are the per-layer ones instead of the end-to-end ones.
"""

import os

# Pin BLAS to one thread before numpy loads: the benchmark machine has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_SECONDS have passed
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25


def timed(fn):
    """(result, wall seconds) of one call."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seed, seconds, traced, work):
    """Set up, run timed rounds, check; returns the result object."""
    import probes

    errors = []
    setup_times, digests = [], []
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        target = work / f"inputs{len(setup_times)}"
        prepared, elapsed = timed(lambda: workload.setup(ROOT, seed, target))
        setup_times.append(elapsed)
        digests.append(workload.inputs_digest(prepared))
        if len(setup_times) == 1:
            inputs = prepared
    if len(set(digests)) != 1:
        errors.append("set-up gave different inputs for the same seed")

    tracer = None
    if traced:
        tracer = probes.Tracer()
        probes.install_probes(tracer)
    rounds = []
    first = None
    start = time.perf_counter()
    out = work / "out"  # the same path every round: manifests record it
    try:
        # as many whole rounds as fit in `seconds`, judged by the last round; at least one
        while not rounds or time.perf_counter() - start + rounds[-1][0] <= seconds:
            (outputs, digest, values), elapsed = timed(lambda: workload.run_round(inputs, out))
            if tracer:
                values.update(tracer.take())
            rounds.append((elapsed, values))
            if first is None:
                if outputs == out:
                    outputs = out.rename(work / "checked")
                first = (outputs, digest)
            else:
                if digest != first[1]:
                    errors.append(f"round {len(rounds)} outputs differ from round 1")
                shutil.rmtree(out, ignore_errors=True)
    finally:
        if tracer:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally = workload.check(ROOT, inputs, first[0])
    errors.extend(tally.errors)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)

    wall_s = statistics.median(t for t, _ in rounds)
    if traced:
        print(f"traced wall_s {wall_s:.4f} over {len(rounds)} round(s)", file=sys.stderr)
        per_round = [probes.finish_round(v) for _, v in rounds]
        metrics = {
            name: {"value": statistics.median(r[name] for r in per_round), "unit": probes.unit(name)}
            for name in probes.PER_LAYER
        }
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    return {
        "correct": not errors,
        "attempted": tally.attempted * len(rounds),
        "failed": tally.failed * len(rounds),
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "storynets" / "__init__.py").is_file():
        print(f"error: no storynets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import storynets.cli  # noqa: F401  (imports are not part of a timed round)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
