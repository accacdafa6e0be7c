#!/usr/bin/env python3
"""Appends one point per workload to perfbench/trajectory.jsonl.

Usage, from the root of the repository:

    python3 perfbench/trajectory.py --label "<commit or change>" [--runs 10] [--first-seed 501]

Runs every workload of BENCHMARK.json `--runs` times with consecutive seeds
and tracing off, then once traced, through perfbench/run.py, and appends
for each workload the median, quartiles and spread (interquartile range
over median) of every end-to-end metric, plus the traced run's per-layer
values. Exits non-zero, appending nothing, if any run fails or reports an
incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{out.stdout}")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=501)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = range(args.first_seed, args.first_seed + args.runs)
    points = []
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in seeds:
            for name, m in run(workload, seed, bench["run_seconds"], 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        end_to_end = {}
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median}
        traced = run(workload, seeds[0], bench["run_seconds"], 1)["metrics"]
        points.append({
            "point": args.label,
            "workload": workload,
            "runs": args.runs,
            "seeds": f"{seeds[0]}-{seeds[-1]}",
            "run_seconds": bench["run_seconds"],
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced.items()},
        })
    with open(os.path.join(HERE, "trajectory.jsonl"), "a") as f:
        for p in points:
            f.write(json.dumps(p) + "\n")


if __name__ == "__main__":
    main()
