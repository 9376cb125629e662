#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs perfbench/run.py once per seed and prints, for every metric, the
median of the values and the distance between their first and third
quartiles as a share of that median (statistics.quantiles, n=4) next to
a third of the metric's bound from BENCHMARK.json:

    python3 perfbench/spread.py --workload mcb-wide --runs 10
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {result.returncode}\n{result.stdout}"
                 f"\n{result.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        report = run_once(args.workload, seed, seconds, args.trace)
        if not report["correct"] or report["failed"]:
            sys.exit(f"seed {seed}: incorrect result {report}")
        for name, metric in report["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} done", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = f"{bound / 3:.3f}" if bound else "-"
        flag = "" if not bound or spread < bound / 3 else "  <-- wide"
        print(f"  {name:40s} median {med:14.6g}  spread {spread:7.3f}"
              f"  bound/3 {limit}{flag}")
        print("      " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
