"""Host-cost benchmark of the replay simulator, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady-hb --seed 1 --seconds 40 --trace 0

A run measures one workload (see ``workloads.py``) for ``--seconds``
seconds of host time.  It starts one process per cell, one after the
other, with no pool: each process imports ``repro``, builds its cell,
drives it with the studies' drive loop and exits, so set-up (imports
included) and peak RSS are measured afresh for every cell.

* ``--trace 0`` cycles through the seed's sub-cells -- seeds derived
  from ``--seed``, so a run averages over several workload draws --
  and reports the mean of ``cell_s`` (host seconds from
  ``cluster.start()`` to the last job's completion) and the medians of
  ``setup_s`` (host seconds from spawning the process to a loaded
  cluster) and ``peak_rss_mb``.
* ``--trace 1`` repeats the seed's first sub-cell, alternating an
  untraced process and one with every layer's entry points wrapped
  (``layers.py``), and reports per-layer counts (which must repeat
  exactly), median self times and the tracing overhead.

Every cell is checked: all jobs complete, ``check_invariants()``
passes and, for the seeds in ``reference.json``, the simulated outcome
equals the recorded one (``events`` excepted).  A traced cell must
reproduce its untraced twin's outcome exactly.  A cell that fails any
check counts as failed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import layer_metrics  # noqa: E402

WORKLOADS = ("steady-hb", "shuffle-kill", "memscale-gated")

#: distinct cells per seed; a long run starts over at the first
SUBCELLS = 16
#: a run measures at least this many cells, however short ``--seconds``
MIN_CELLS = 3
#: host seconds one cell process may take before it counts as failed
CELL_TIMEOUT_S = 120.0

REFERENCE_PATH = os.path.join(HERE, "reference.json")

END_TO_END_UNITS = {"cell_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.step.self_s": "s",
    "sim.us_per_event": "us",
    "sim.fired.tt.actions": "count",
    "sim.fired.tt.heartbeat": "count",
    "trace.record.calls": "count",
    "trace.record.self_s": "s",
    "tasktracker.build_report.calls": "count",
    "tasktracker.build_report.self_s": "s",
    "tasktracker.statuses_per_report": "1/report",
    "jobtracker.heartbeat.calls": "count",
    "jobtracker.heartbeat.self_s": "s",
    "jobtracker.actionful_ratio": "ratio",
    "hfsp.assign_tasks.calls": "count",
    "hfsp.assign_tasks.self_s": "s",
    "hfsp.grant_ratio": "ratio",
    "osmodel.headroom.calls": "count",
    "osmodel.headroom.self_s": "s",
    "osmodel.make_room.calls": "count",
    "osmodel.fault_in.calls": "count",
    "resources.set_speed_factor.calls": "count",
    "resources.self_s": "s",
    "netmodel.start_flow.calls": "count",
    "netmodel.start_flow.self_s": "s",
    "netmodel.self_s": "s",
    "preemption.preempt.calls": "count",
    "preemption.restore.calls": "count",
    "preemption.self_s": "s",
    "admission.evaluate.calls": "count",
    "admission.admit_ratio": "ratio",
    "workloads.generate_s": "s",
    "drive.self_s": "s",
    "bench.tracing_overhead": "ratio",
}

#: per-layer metrics that are host times; every other one is a
#: deterministic count or ratio that must repeat exactly
TIMED_LAYER_METRICS = {
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("s", "us")
} | {"bench.tracing_overhead"}


def cell_seed(workload: str, seed: int, index: int) -> int:
    """The simulation seed of sub-cell ``index`` of a run's seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def spawn_cell(workload: str, seed: int,
               trace: bool) -> Tuple[Optional[dict], Optional[str]]:
    """Run one cell in a fresh process: ``(figures, None)`` or
    ``(None, error)``."""
    argv = [
        sys.executable, os.path.join(HERE, "cell.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if trace else "0",
        "--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True,
            timeout=CELL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"no result within {CELL_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["(no stderr)"]
        return None, f"exit code {proc.returncode}: {lines[-1]}"
    figures = json.loads(proc.stdout.strip().splitlines()[-1])
    if figures["errors"]:
        return None, "; ".join(figures["errors"])
    return figures, None


def outcome_mismatches(got: dict, want: dict) -> List[str]:
    """Fields of two simulated outcomes that differ (``events`` is
    never compared: dropping no-op events is a legal optimisation)."""
    return [
        f"{key} {got.get(key)!r} != {value!r}"
        for key, value in sorted(want.items())
        if key != "events" and got.get(key) != value
    ]


def load_reference() -> Dict[str, Dict[str, List[dict]]]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Run:
    """Counts the cells of one run and reports failures by name."""

    def __init__(self, workload: str, seed: int,
                 reference: Optional[List[dict]]):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def cell(self, index: int, trace: bool) -> Optional[dict]:
        """Run and check sub-cell ``index``; None when it failed."""
        self.attempted += 1
        figures, error = spawn_cell(
            self.workload, cell_seed(self.workload, self.seed, index), trace
        )
        if error is None and self.reference is not None:
            wrong = outcome_mismatches(
                figures["outcome"], self.reference[index]
            )
            if wrong:
                error = "outcome differs from reference: " + "; ".join(wrong)
        return figures if error is None else self.fail(index, trace, error)

    def fail(self, index: int, trace: bool, error: str) -> None:
        self.failed += 1
        kind = "traced" if trace else "untraced"
        print(f"FAILED {self.workload} seed {self.seed} sub-cell {index} "
              f"({kind}): {error}")
        return None


class Budget:
    """Host seconds left in a run: another round starts only while the
    rounds so far say it will end within ``seconds``."""

    def __init__(self, seconds: float, min_rounds: int):
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.start = time.perf_counter()
        self.rounds = 0

    def another(self) -> bool:
        if self.rounds >= self.min_rounds:
            elapsed = time.perf_counter() - self.start
            if elapsed * (self.rounds + 1) / self.rounds > self.seconds:
                return False
        self.rounds += 1
        return True


def measure_end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    """Figures over the sub-cells the run had time for.

    ``cell_s`` is the mean over the sub-cells, so a run reports what
    its whole set of workload draws cost; ``setup_s`` and
    ``peak_rss_mb`` are medians.
    """
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END_UNITS}
    budget = Budget(seconds, MIN_CELLS)
    while budget.another():
        index = run.attempted % SUBCELLS
        figures = run.cell(index, trace=False)
        if figures is not None:
            print(f"sub-cell {index}: cell_s {figures['cell_s']:.4f} "
                  f"setup_s {figures['setup_s']:.4f}")
            for name in samples:
                samples[name].append(figures[name])
    print(f"cells measured: {len(samples['cell_s'])}")
    if not samples["cell_s"]:
        return {}
    return {
        "cell_s": statistics.mean(samples["cell_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }


def measure_layers(run: Run, seconds: float) -> Dict[str, float]:
    """Per-layer metrics of sub-cell 0, traced and untraced in turn."""
    untraced: List[dict] = []
    traced: List[dict] = []
    budget = Budget(seconds, 2)
    while budget.another():
        for trace, into in ((False, untraced), (True, traced)):
            figures = run.cell(0, trace)
            if figures is None:
                return {}
            into.append(figures)
    baseline = untraced[0]
    for figures in untraced[1:] + traced:
        trace = "layers" in figures
        wrong = outcome_mismatches(figures["outcome"], baseline["outcome"])
        if figures["outcome"]["events"] != baseline["outcome"]["events"]:
            wrong.append("events differ")
        if wrong:
            run.fail(0, trace, "outcome differs from the untraced run: "
                     + "; ".join(wrong))
    per_cell = [
        layer_metrics(f["layers"], f["cell_s"], f["labels"],
                      f["outcome"]["events"])
        for f in traced
    ]
    for name in PER_LAYER_UNITS:
        if name in TIMED_LAYER_METRICS or name not in per_cell[0]:
            continue
        if any(m[name] != per_cell[0][name] for m in per_cell):
            run.fail(0, True, f"{name} did not repeat exactly: "
                     f"{[m[name] for m in per_cell]}")
    metrics = {
        name: (statistics.median(m[name] for m in per_cell)
               if name in TIMED_LAYER_METRICS else value)
        for name, value in per_cell[0].items()
    }
    untraced_s = statistics.median(f["cell_s"] for f in untraced)
    traced_s = statistics.median(f["cell_s"] for f in traced)
    metrics["sim.us_per_event"] = (
        untraced_s / baseline["outcome"]["events"] * 1e6
    )
    metrics["bench.tracing_overhead"] = traced_s / untraced_s
    print(f"cell pairs measured: {len(traced)} "
          f"(untraced {untraced_s:.4f} s, traced {traced_s:.4f} s)")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-cost benchmark of the replay simulator."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro package under {ROOT}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    reference = load_reference().get(args.workload, {}).get(str(args.seed))
    if reference is None:
        print(f"no reference outcome for seed {args.seed}: comparison "
              "skipped; completion and invariant checks still run")
    run = Run(args.workload, args.seed, reference)
    if args.trace:
        metrics, units = measure_layers(run, args.seconds), PER_LAYER_UNITS
    else:
        metrics = measure_end_to_end(run, args.seconds)
        units = END_TO_END_UNITS
    correct = run.failed == 0 and set(metrics) == set(units)
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
