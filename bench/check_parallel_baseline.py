#!/usr/bin/env python3
"""CI perf-smoke gate for the parallel simulator (BENCH_parallel.json).

Two kinds of checks, with very different strictness:

* Determinism — strict, on every host. The fig25 bench runs the same
  seeded 3,072-rank MCB workload at 1/2/4/8 workers and records an order
  digest per row (order-sensitive tally bits + the full counter set). The
  engine's contract is worker-count invariance, so ANY cross-row digest
  difference fails the gate, and the 12,288-rank large run must have
  completed. The bench also records that run once and replays it at
  1/2/4/8 workers: every replay row's receive-order digest must equal the
  recording's (and so each other's), and every replay must consume the
  whole record.

* Speedup — gated only where it is meaningful. Wall-clock scaling of the
  plain rows is checked only where the worker count fits the measuring
  host (workers <= host_cores): those rows must not fall below ~1x against
  the 1-worker row, the ordering must be monotone non-decreasing (within
  slack), and when the host has 8+ cores the 8-worker row must reach the
  3x acceptance bar. Rows beyond host_cores measure oversubscription, not
  the engine, and only warn. Replay speedup is informational only.
  Absolute timings are never gated.

Usage: check_parallel_baseline.py <BENCH_parallel.json>
"""

import json
import sys

SPEEDUP_SLACK = 0.15  # generous: CI timing noise, shared runners
EIGHT_WORKER_BAR = 3.0  # the acceptance bar, gated only on 8+ core hosts


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        bench = json.load(f)

    host_cores = int(bench.get("host_cores", 0))
    scaling = bench.get("scaling", [])
    if not scaling:
        print("FAIL: no scaling rows in", sys.argv[1])
        return 1

    failed = False

    # --- determinism: strict ------------------------------------------------
    digests = {row["workers"]: row.get("order_digest") for row in scaling}
    reference = scaling[0].get("order_digest")
    for workers, digest in digests.items():
        if digest != reference:
            print(f"FAIL: order digest at {workers} workers "
                  f"({digest}) differs from the 1-worker row ({reference}) "
                  f"— the engine is not worker-count-invariant")
            failed = True
    if not failed:
        print(f"determinism: {len(digests)} worker counts, "
              f"order digests identical")

    record = bench.get("record")
    replays = bench.get("replay", [])
    if record is None or not replays:
        print("FAIL: no record/replay rows in", sys.argv[1])
        failed = True
    else:
        replay_failed = False
        for row in replays:
            if row.get("order_digest") != record.get("order_digest"):
                print(f"FAIL: replay at {row['workers']} workers has order "
                      f"digest {row.get('order_digest')}, the recording "
                      f"{record.get('order_digest')} — replay diverged")
                replay_failed = True
            if row.get("order_digest") != replays[0].get("order_digest"):
                print(f"FAIL: replay order digest at {row['workers']} "
                      f"workers differs from {replays[0]['workers']} "
                      f"worker(s)")
                replay_failed = True
            if row.get("fully_replayed") is not True:
                print(f"FAIL: replay at {row['workers']} workers left "
                      f"record unconsumed")
                replay_failed = True
        failed = failed or replay_failed
        if not replay_failed:
            print(f"replay: {len(replays)} worker counts, order digests "
                  f"identical to the recording")
        for row in replays:
            print(f"  replay {row['workers']:>2} workers: "
                  f"{float(row['events_per_sec']):.0f} events/s, "
                  f"{float(row['speedup_vs_1']):.2f}x (informational)")

    large = bench.get("large_run")
    if large is not None:
        if large.get("completed") is not True:
            print(f"FAIL: {large.get('ranks')}-rank large run did not "
                  f"complete")
            failed = True
        else:
            print(f"large run: {large['ranks']} ranks completed in "
                  f"{large['seconds']:.2f}s")

    # --- speedup: only where workers fit the host ---------------------------
    gated = [row for row in scaling if row["workers"] <= host_cores]
    ungated = [row for row in scaling if row["workers"] > host_cores]
    previous = None
    for row in gated:
        speedup = float(row["speedup_vs_1"])
        verdict = "ok"
        if speedup < 1.0 - SPEEDUP_SLACK:
            verdict = "REGRESSED"
            failed = True
        if previous is not None and speedup < previous - SPEEDUP_SLACK:
            verdict = "NOT MONOTONE"
            failed = True
        print(f"  {row['workers']:>2} workers: {speedup:.2f}x {verdict}")
        previous = max(previous or 0.0, speedup)
        if row["workers"] == 8 and host_cores >= 8 and \
                speedup < EIGHT_WORKER_BAR:
            print(f"FAIL: 8-worker speedup {speedup:.2f}x is below the "
                  f"{EIGHT_WORKER_BAR}x bar on a {host_cores}-core host")
            failed = True
    for row in ungated:
        print(f"  {row['workers']:>2} workers: {float(row['speedup_vs_1']):.2f}x "
              f"(beyond {host_cores} host cores — informational)")

    print("parallel baseline:", "FAIL" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
