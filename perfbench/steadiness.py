#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload sharded_store --runs 10

For every metric of the final result line it prints the median and the
interquartile range as a share of the median (statistics.quantiles, n=4),
next to the metric's bound from BENCHMARK.json. Seeds run from 1. Exits
nonzero if any run fails or reports incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    ok = True
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above a third of its bound"
        print(f"{name:28s} median {med:<14.6g} spread {spread:7.4f}"
              f"  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
