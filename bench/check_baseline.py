#!/usr/bin/env python3
"""CI gate: hold a figure bench's BENCH_*.json to its committed baseline.

Usage: check_baseline.py <BENCH_*.json> [baseline.json]

The JSON's own `bench` field picks the check; the baseline defaults to
bench/<name>_baseline.json next to this script (fig25 has none). Exit
status: 0 pass, 1 fail, 2 usage (no file given, or a bench with no check).
Deterministic fields (sizes, ratios, digests, record counts) are gated
strictly; timings only as ratios, generous floors and ceilings, or
speedups on worker counts that fit the host.
"""

import json
import os
import sys

SPEEDUP_SLACK = 0.15  # generous: CI timing noise, shared runners
EIGHT_WORKER_BAR = 3.0  # the acceptance bar, gated only on 8+ core hosts


def compare(failures, label, actual, expected, tolerance, better,
            gated=True):
    """`actual` may be worse than `expected` by at most `tolerance` (a
    fraction) in the `better` direction ("higher" or "lower"). A row that
    is not gated only warns, so an intended retuning shows in the log."""
    delta = (actual - expected) / expected
    worse = delta < -tolerance if better == "higher" else delta > tolerance
    verdict = "ok" if not worse else "REGRESSED" if gated else "warn"
    print(f"{label}: {round(actual, 4)} vs baseline {round(expected, 4)} "
          f"({delta:+.3%}, tolerance {tolerance:.0%}) {verdict}")
    if worse and gated:
        failures.append(f"{label} regressed beyond tolerance")


def config_matches(failures, bench, baseline, keys):
    """A baseline holds only for the configuration it was cut from."""
    for key in keys:
        if bench.get(key) != baseline.get(key):
            failures.append(f"config mismatch — bench ran {key}="
                            f"{bench.get(key)}, baseline expects "
                            f"{baseline.get(key)}; regenerate the baseline")
            return False
    return True


def check_compress(bench, baseline, failures):
    """fig13 DEFLATE-compresses a seeded corpus, so compressed sizes depend
    only on the code. The default level's size is gated (ratio loss; speed
    is too machine-dependent to gate on); fast and best only warn, and a
    level missing from the bench fails."""
    if not config_matches(failures, bench, baseline,
                          ("corpus_bytes", "corpus_seed")):
        return
    tolerance = float(baseline.get("tolerance", 0.02))
    measured = {row["level"]: int(row["compressed_bytes"])
                for row in bench.get("levels", [])}
    for level, expected in baseline["levels"].items():
        if level not in measured:
            failures.append(f"level '{level}' missing from the bench")
            continue
        compare(failures, f"{level:>8} compressed bytes", measured[level],
                expected, tolerance, "lower", gated=level == "default")


def check_corpus(bench, baseline, failures):
    """fig21 records a seeded MCB family through the corpus store, so its
    ratios are machine-independent. Both are gated: `vs_gzip` (the CDC
    corpus against independent gzip records) and the rows corpus's
    `dedup_ratio`, where the corpus machinery is the only compressor."""
    if not config_matches(failures, bench, baseline,
                          ("ranks", "members", "base_seed")):
        return
    tolerance = float(baseline.get("tolerance", 0.02))
    measured = {
        "vs_gzip": float(bench.get("vs_gzip", 0.0)),
        "rows_dedup_ratio": float(
            bench.get("rows_corpus", {}).get("dedup_ratio", 0.0)),
    }
    for metric, actual in measured.items():
        compare(failures, f"{metric:>18}", actual, float(baseline[metric]),
                tolerance, "higher")


def check_decode(bench, baseline, failures):
    """fig22 times the batched inflate loop against the deflate encoder on
    one seeded corpus. Absolute MB/s is machine-dependent, so the gated
    quantity is `inflate_vs_deflate`: the ratio cancels most machine
    variance, and losing the decode fast path collapses it by an order of
    magnitude. Every level must round-trip; only the default level's ratio
    is gated. The epoch-index seek spread (slowest over fastest window
    start) must stay in (0, max_seek_spread]: seek cost must not depend on
    where the window starts."""
    if not config_matches(failures, bench, baseline,
                          ("corpus_bytes", "corpus_seed")):
        return
    tolerance = float(baseline.get("tolerance", 0.05))
    measured = {row["level"]: row for row in bench.get("levels", [])}
    for level, expected in baseline["levels"].items():
        row = measured.get(level)
        if row is None:
            failures.append(f"level '{level}' missing from the bench")
        elif not row.get("decoded_ok", False):
            failures.append(f"level '{level}' did not round-trip")
        else:
            compare(failures, f"{level:>8} inflate/deflate",
                    float(row["inflate_vs_deflate"]), expected, tolerance,
                    "higher", gated=level == "default")
    spread = float(bench.get("seek", {}).get("seek_spread", 0.0))
    max_spread = float(baseline.get("max_seek_spread", 2.0))
    print(f"    seek: spread {spread:.2f}x across window starts "
          f"(bound {max_spread:.2f}x)")
    if spread <= 0.0 or spread > max_spread:
        failures.append(f"seek spread {spread:.2f}x is outside (0, "
                        f"{max_spread:.2f}x]: window-read cost depends on "
                        f"where the window starts")


def check_service(bench, baseline, failures):
    """fig23 runs a clean and a faulted phase of seeded many-client load
    against an in-process server and byte-compares every surviving record
    with a local rebuild. Strict: no unexpected client failure or verify
    failure in either phase, every sealed record verified, every clean
    client sealed, the fault plan fired, and backpressure engaged (else the
    slow-reader path went untested). Throughput floors and the ack p99
    ceiling are generous: they catch pathological serialization."""
    clients = bench.get("clients", 0)
    if clients < baseline.get("min_clients", 0):
        failures.append(f"ran {clients} clients, baseline requires "
                        f">= {baseline['min_clients']}")
    clean = bench.get("clean", {})
    faulted = bench.get("faulted", {})
    server = bench.get("server", {})
    for name, phase in (("clean", clean), ("faulted", faulted)):
        for field in ("unexpected_failures", "verify_failures"):
            if phase.get(field, 1) != 0:
                failures.append(f"{name} phase had {phase.get(field)} "
                                f"{field}")
        if phase.get("verified", 0) != phase.get("sealed", -1):
            failures.append(f"{name} phase verified {phase.get('verified')} "
                            f"of {phase.get('sealed')} sealed records")
    if clean.get("sealed", 0) != clients:
        failures.append(f"clean phase sealed {clean.get('sealed')} of "
                        f"{clients} records")
    if faulted.get("expected_failures", 0) <= 0:
        failures.append("faulted phase: the fault plan never fired")
    if baseline.get("require_backpressure", False) and \
            server.get("backpressure_suspensions", 0) <= 0:
        failures.append("backpressure never engaged")
    for field, floor in (("frames_per_s", "min_clean_frames_per_s"),
                         ("mb_per_s", "min_clean_mb_per_s")):
        if clean.get(field, 0.0) < baseline.get(floor, 0.0):
            failures.append(f"clean {field} {clean.get(field)} below floor "
                            f"{baseline.get(floor)}")
    ceiling = baseline.get("max_ack_p99_ms")
    if ceiling is not None and clean.get("ack_p99_ms", 0.0) > ceiling:
        failures.append(f"clean ack p99 {clean.get('ack_p99_ms')} ms above "
                        f"ceiling {ceiling} ms")
    print(f"{clients} clients — clean {clean.get('frames_per_s', 0):.0f} "
          f"frames/s, {clean.get('verified')} verified; faulted "
          f"{faulted.get('sealed')} sealed / "
          f"{faulted.get('expected_failures')} planned failures; "
          f"{server.get('backpressure_suspensions')} suspensions")


def check_recovery(bench, baseline, failures):
    """fig24 SIGKILLs a real daemon at each armed protocol state (and
    SIGTERMs it under load), restarts it, and byte-compares every resumed
    record with a local rebuild. Strict: every expected kill point ran and
    passed with every client sealed, every sealed record verified and no
    errors, and every SIGKILL point forced a reconnect (else the kill came
    too late to test anything). Restart and per-point wall-time ceilings
    are generous: they catch recovery stalls."""
    clients = bench.get("clients", 0)
    if clients < baseline.get("min_clients", 0):
        failures.append(f"ran {clients} clients, baseline requires "
                        f">= {baseline['min_clients']}")
    points = {p.get("name"): p for p in bench.get("points", [])}
    for name in baseline.get("expected_points", []):
        if name not in points:
            failures.append(f"kill point '{name}' missing from the sweep")
    for name, p in points.items():
        if not p.get("passed", False):
            failures.append(f"{name}: point failed")
        if p.get("sealed", 0) != clients:
            failures.append(f"{name}: sealed {p.get('sealed')} of {clients} "
                            f"records")
        if p.get("verified", 0) != p.get("sealed", -1):
            failures.append(f"{name}: verified {p.get('verified')} of "
                            f"{p.get('sealed')} sealed records")
        if p.get("errors", 1) != 0:
            failures.append(f"{name}: {p.get('errors')} errors")
        if (baseline.get("require_reconnects_on_kill_points", False)
                and name != "sigterm-under-load"
                and p.get("reconnects", 0) <= 0):
            failures.append(f"{name}: no client ever reconnected — the kill "
                            f"fired too late to exercise recovery")
        for field, ceiling in (("restart_ms", "max_restart_ms"),
                               ("wall_ms", "max_point_wall_ms")):
            if baseline.get(ceiling) is not None and \
                    p.get(field, 0.0) > baseline[ceiling]:
                failures.append(f"{name}: {field} {p.get(field)} above "
                                f"ceiling {baseline[ceiling]}")
    if not bench.get("all_passed", False):
        failures.append("sweep reported all_passed = false")
    print(f"{len(points)} kill points x {clients} clients; "
          f"{sum(p.get('reconnects', 0) for p in points.values())} "
          f"reconnects, "
          f"{sum(p.get('resent_batches', 0) for p in points.values())} "
          f"batches re-sent")


def check_parallel(bench, baseline, failures):
    """fig25 runs one seeded MCB workload at 1/2/4/8 workers, records it
    once and replays it at each count. Determinism is strict on every
    host: the engine's contract is worker-count invariance, so every plain
    row's order digest must equal the first row's, every replay must equal
    the recording and consume the whole record, and the large run must
    complete. Plain-run speedup is gated only on rows whose workers fit
    `host_cores`: at least 1 - SPEEDUP_SLACK, monotone within the slack,
    and EIGHT_WORKER_BAR at 8 workers on an 8+ core host. Other rows,
    replay speedup and absolute timings only print."""
    host_cores = int(bench.get("host_cores", 0))
    scaling = bench.get("scaling", [])
    if not scaling:
        failures.append("no scaling rows")
        return
    reference = scaling[0].get("order_digest")
    digests = {row["workers"]: row.get("order_digest") for row in scaling}
    for workers, digest in digests.items():
        if digest != reference:
            failures.append(f"order digest at {workers} workers ({digest}) "
                            f"differs from the first row ({reference}) — "
                            f"the engine is not worker-count-invariant")
    record = bench.get("record")
    replays = bench.get("replay", [])
    if record is None or not replays:
        failures.append("no record/replay rows")
        replays = []
    for row in replays:
        if row.get("order_digest") != record.get("order_digest"):
            failures.append(f"replay at {row['workers']} workers has order "
                            f"digest {row.get('order_digest')}, the "
                            f"recording {record.get('order_digest')}")
        if row.get("fully_replayed") is not True:
            failures.append(f"replay at {row['workers']} workers left the "
                            f"record unconsumed")
        print(f"  replay {row['workers']:>2} workers: "
              f"{float(row['events_per_sec']):.0f} events/s, "
              f"{float(row['speedup_vs_1']):.2f}x (informational)")
    large = bench.get("large_run")
    if large is not None and large.get("completed") is not True:
        failures.append(f"{large.get('ranks')}-rank large run did not "
                        f"complete")
    elif large is not None:
        print(f"large run: {large['ranks']} ranks completed in "
              f"{large['seconds']:.2f}s")
    previous = None
    for row in scaling:
        workers, speedup = row["workers"], float(row["speedup_vs_1"])
        if workers > host_cores:
            print(f"  {workers:>2} workers: {speedup:.2f}x (beyond "
                  f"{host_cores} host cores — informational)")
            continue
        print(f"  {workers:>2} workers: {speedup:.2f}x")
        if speedup < 1.0 - SPEEDUP_SLACK:
            failures.append(f"{workers}-worker speedup {speedup:.2f}x is "
                            f"below {1.0 - SPEEDUP_SLACK:.2f}x")
        if previous is not None and speedup < previous - SPEEDUP_SLACK:
            failures.append(f"{workers}-worker speedup {speedup:.2f}x is "
                            f"not monotone (best so far {previous:.2f}x)")
        previous = max(previous or 0.0, speedup)
        if workers == 8 and host_cores >= 8 and speedup < EIGHT_WORKER_BAR:
            failures.append(f"8-worker speedup {speedup:.2f}x is below the "
                            f"{EIGHT_WORKER_BAR}x bar on a {host_cores}-core "
                            f"host")


# `bench` field -> (baseline name, check). fig25 has no baseline file.
CHECKS = {
    "fig13_compression_levels": ("compress", check_compress),
    "fig21_corpus_dedup": ("corpus", check_corpus),
    "fig22_decode_seek": ("decode", check_decode),
    "fig23_service_load": ("service", check_service),
    "fig24_recovery": ("recovery", check_recovery),
    "fig25_parallel_sim": (None, check_parallel),
}


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    name, check = CHECKS.get(bench.get("bench"), (None, None))
    if check is None:
        print(f"{sys.argv[1]}: no check for bench {bench.get('bench')!r}")
        print(__doc__)
        return 2
    baseline = {}
    if name is not None:
        path = sys.argv[2] if len(sys.argv) > 2 else os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            f"{name}_baseline.json")
        with open(path) as f:
            baseline = json.load(f)
    failures = []
    check(bench, baseline, failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        print(f"{bench['bench']}: baseline check failed; if the change is "
              f"intended, regenerate the baseline")
        return 1
    print(f"{bench['bench']}: baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
