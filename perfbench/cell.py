"""Run one benchmark cell in this process and print its figures as JSON.

Usage (``run.py`` starts it, one process per cell)::

    python3 perfbench/cell.py --workload steady-hb --seed 1234 \
        --trace 0 --spawned <CLOCK_MONOTONIC seconds at spawn>

The process imports ``repro`` from the checkout's ``src``, builds the
cell, drives it with the studies' own drive loop and checks it:
every job completes and ``HadoopCluster.check_invariants()`` passes.
It prints one JSON line: set-up and cell host seconds, peak RSS, the
simulated outcome and, with ``--trace 1``, the per-layer counters.
"""

import time

_FIRST_STATEMENT = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def run_cell(workload: str, seed: int, trace: bool, spawned: float) -> dict:
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.experiments.drive import drive_to_completion
    from workloads import build_cell, outcome

    cluster, counter, num_jobs = build_cell(workload, seed, profile=trace)
    loaded = time.clock_gettime(time.CLOCK_MONOTONIC)
    start = time.perf_counter()
    drive_to_completion(
        cluster, counter, num_jobs, what=f"{workload} cell seed {seed}"
    )
    cell_s = time.perf_counter() - start
    result = {
        "setup_s": loaded - spawned,
        "cell_s": cell_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "outcome": outcome(cluster, counter),
        "errors": [],
    }
    if counter.count != num_jobs:
        result["errors"].append(
            f"{counter.count}/{num_jobs} jobs completed (deadlock)"
        )
    cluster.check_invariants()
    if tracer is not None:
        from repro.telemetry.profiling import collapse_labels

        result["layers"] = tracer.snapshot()
        result["labels"] = collapse_labels(cluster.sim.label_counts)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, default=_FIRST_STATEMENT)
    args = parser.parse_args()
    result = run_cell(args.workload, args.seed, bool(args.trace), args.spawned)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
