#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--out file.json]

For every workload and end-to-end metric (or per-layer metric with
--trace 1) it prints the median over the runs and the distance between
the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json. --out writes the raw values and every run's output lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    raw = {}
    logs = {}
    for workload in args.workloads.split(","):
        values = raw.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            logs.setdefault(workload, []).append(lines[:-1])
            if done.returncode != 0 or not result.get("correct"):
                print("%s seed %d: failed (exit %d)" % (workload, seed, done.returncode))
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("\n%s (%s runs)" % (workload, args.seeds))
        print("%-36s %16s %10s %8s" % ("metric", "median", "IQR/med", "bound"))
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(name)
            print("%-36s %16.6g %9.2f%% %8s" % (name, med, 100 * spread, bound if bound else ""))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"metrics": raw, "output": logs}, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())
