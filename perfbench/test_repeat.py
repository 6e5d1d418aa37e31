"""Checks of the benchmark itself.

Run from the root of a checkout (takes about two minutes)::

    python3 -m pytest perfbench/test_repeat.py -q

* Two traced runs of one seed report exactly equal per-layer counts,
  ``sim.events`` and ratios, and every cell passes its checks.
* ``BENCHMARK.json`` names the workloads and metrics ``run.py``
  reports, with the same units.
* Without the program beside it, the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    TIMED_LAYER_METRICS,
    WORKLOADS,
)


def _run(root, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    reports = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for report in reports:
        assert report["correct"] and report["failed"] == 0
        assert set(report["metrics"]) == set(PER_LAYER_UNITS)
    first, second = (report["metrics"] for report in reports)
    for name in PER_LAYER_UNITS:
        if name not in TIMED_LAYER_METRICS:
            assert first[name] == second[name], name
    assert first["sim.events"]["value"] > 0


def test_benchmark_json_matches_run():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        PER_LAYER_UNITS
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
