#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark.

Runs every workload rrbench knows (run.py's WORKLOADS, a superset of
BENCHMARK.json's) at --scale tiny, untraced and traced, and checks that each
run passes its correctness checks and prints exactly the metrics
BENCHMARK.json names, each with its unit and a finite value:

    python3 perfbench/selfcheck.py

Exits 0 when every check holds, 1 otherwise.
"""
import json
import math
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected):
    """Returns a list of problems with one tiny run."""
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return [f"exit {result.returncode}: {result.stderr[-500:]}"]
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        return [f"last line is not JSON ({error})"]
    problems = []
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(report)}")
    if report.get("correct") is not True:
        problems.append("correct is not true")
    if report.get("failed") != 0:
        problems.append(f"failed = {report.get('failed')}")
    attempted = report.get("attempted")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted = {attempted}")
    metrics = report.get("metrics", {})
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"unexpected metric {name}")
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')} != {unit}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value}")
        elif trace == 0 and value == 0:
            problems.append(f"{name}: end-to-end value is 0")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_run(workload, trace, expected[trace])
            status = "ok" if not problems else "FAIL"
            print(f"{workload:12s} trace={trace}: {status}")
            for problem in problems:
                print(f"    {problem}")
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
