#!/usr/bin/env python3
"""Run one workload on several seeds and summarise every metric.

    python3 bench/repeat.py --workload sat72 --seeds 1-10

Each seed is one untraced `bench/run.py` process with BENCHMARK.json's
run_seconds. Prints, per metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median that the
bounds in BENCHMARK.json are compared with.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds, help="first-last, e.g. 1-10")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values: dict[str, list] = {}
    failed = 0
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                         if n in ("setup_s", "wall_s", "peak_rss_mb")), flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, {failed} failed operations")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
