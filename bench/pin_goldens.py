#!/usr/bin/env python3
"""Re-pin bench/goldens.json from the current tree.

    python3 bench/pin_goldens.py

Records every golden of every workload at both scales on the pinned seeds.
Re-pin only for a deliberate model change: a speed-up must leave every
golden as it is.
"""

import json
import sys

import run as bench


def main():
    record = {}
    for scale in (bench.TOY, bench.FULL):
        for workload in bench.WORKLOADS:
            for seed in bench.PINNED_SEEDS:
                bench.run_workload(workload, seed, 0, False, scale=scale, record=record)
    with open(bench.GOLDENS, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(record)} goldens in {bench.GOLDENS}")


if __name__ == "__main__":
    sys.exit(main())
