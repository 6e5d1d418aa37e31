"""Record the reference outcomes the benchmark checks cells against.

Usage, from the root of a checkout::

    python3 perfbench/record.py

For every workload, runs all sub-cells of the default seed and of one
held-out seed (one process per cell, as the benchmark does) and
rewrites ``reference.json``.  Record again only when a change is meant
to alter simulated outcomes; a pure speed-up must leave them equal.
"""

import json
import sys

from run import REFERENCE_PATH, SUBCELLS, WORKLOADS, cell_seed, spawn_cell

#: the benchmark's default ``--seed`` and a seed kept out of tuning
SEEDS = (1, 90017)


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in SEEDS:
            outcomes = []
            for index in range(SUBCELLS):
                figures, error = spawn_cell(
                    workload, cell_seed(workload, seed, index), trace=False
                )
                if error is not None:
                    print(f"{workload} seed {seed} sub-cell {index}: {error}",
                          file=sys.stderr)
                    return 1
                outcomes.append(figures["outcome"])
                print(workload, seed, index, figures["outcome"], flush=True)
            reference[workload][str(seed)] = outcomes
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
