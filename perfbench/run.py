#!/usr/bin/env python3
"""The repository benchmark: host cost of the MTM simulator, end to end and
layer by layer.

    python3 perfbench/run.py --workload gups-replay --seed 42 --seconds 20 --trace 0

Run from the repository root. It builds perfbench/ (a CMake project over the
simulator's sources) in Release into .bench_build/, then runs repetitions of
the workload, one process at a time and one process per repetition, until
--seconds have passed. Each repetition builds the workload and the mtm
Solution (set-up) and runs it once.

--trace 0 runs RunSimulation untimed inside and prints the end-to-end metrics.
--trace 1 alternates untraced repetitions with runs of the traced replica
(perfbench/traced_run.cc) and prints the per-layer metrics.

Every repetition is checked: its output checks must pass and its simulated
fingerprint must equal every other repetition's, traced or not. A repetition
that fails a check, differs, or crashes counts as failed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mtm_perfbench")

WORKLOADS = ("gups-replay", "voltdb-daemon", "bfs-readonly")
MIN_REPETITIONS = 3
# A run may take 180 s after the build; repetitions stop, or are killed and
# count as failed, once this much has passed.
RUN_LIMIT_S = 170

# Layer stems reported by the traced replica, with the unit each layer's time
# is normalised to and the work it is divided by.
LAYERS = (
    ("workloads.next_batch", "ns_per_access"),
    ("sim.apply", "ns_per_access"),
    ("sim.prefault", "ms"),
    ("sim.tracker_reset", "us_per_interval"),
    ("profiling.interval_start", "us_per_interval"),
    ("profiling.scan_tick", "us_per_interval"),
    ("profiling.interval_end", "us_per_interval"),
    ("migration.decide", "us_per_interval"),
    ("migration.begin_interval", "us_per_interval"),
    ("migration.submit", "us_per_interval"),
    ("migration.poll", "ns_per_batch"),
    ("migration.flush", "ms"),
)
UNITS = {"ns_per_access": "ns", "ns_per_batch": "ns", "us_per_interval": "us", "ms": "ms"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds the benchmark binary; exits 1 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mtm_perfbench", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build failed: {' '.join(step)}")


def repetition(workload, seed, traced, timeout_s):
    """Runs one repetition; returns its record, or None if it crashed or
    timed out."""
    command = [BINARY, "run", "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s, check=False)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def median(records, value):
    return statistics.median(value(r) for r in records)


def end_to_end(records):
    return {
        "host_ns_per_access": (median(records, lambda r: r["run_s"] * 1e9 / r["accesses"]),
                               "ns"),
        "setup_s": (median(records, lambda r: r["setup_s"]), "s"),
        "peak_rss_mib": (median(records, lambda r: r["peak_rss_kib"] / 1024), "MiB"),
        "sim_s": (records[0]["sim_s"], "s"),
        "fast_tier_share": (records[0]["fast_tier_share"], "ratio"),
    }


def per_layer(traced, untraced):
    def per_work(r, stem, kind):
        ns = r["layer_ns"][stem]
        if kind == "ns_per_access":
            return ns / r["accesses"]
        if kind == "ns_per_batch":
            return ns / r["batches"]
        if kind == "us_per_interval":
            return ns / 1e3 / r["intervals"]
        return ns / 1e6

    metrics = {}
    for stem, kind in LAYERS:
        metrics[f"{stem}_{kind}"] = (median(traced, lambda r: per_work(r, stem, kind)),
                                     UNITS[kind])
    metrics["core.setup_s"] = (median(traced, lambda r: r["setup_s"]), "s")
    for stem, _ in LAYERS:
        metrics[f"{stem}.share"] = (median(traced, lambda r: r["layer_ns"][stem] / r["wall_ns"]),
                                    "ratio")
    metrics["core.unattributed_share"] = (
        median(traced, lambda r: 1 - sum(r["layer_ns"].values()) / r["wall_ns"]), "ratio")
    # Each traced repetition runs right after an untraced one; comparing
    # neighbours cancels slow drifts in machine load.
    metrics["trace_overhead"] = (
        statistics.median(t["run_s"] / u["run_s"] for u, t in zip(untraced, traced)) - 1,
        "ratio")
    counts = traced[0]["counts"]
    for name, value in counts.items():
        metrics[name] = (value, "MiB" if name.endswith("_mib") else "count")
    metrics["migration.commit_ratio"] = (
        counts["migration.regions_migrated"] / max(1, counts["migration.orders"]), "ratio")
    copies = counts["migration.async_copies"] + counts["migration.sync_fallbacks"]
    metrics["migration.async_commit_ratio"] = (
        counts["migration.async_copies"] / max(1, copies), "ratio")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()

    start = time.monotonic()
    untraced, traced = [], []
    attempted = failed = 0
    while True:
        elapsed = time.monotonic() - start
        enough = attempted >= MIN_REPETITIONS * (1 + args.trace) and elapsed >= args.seconds
        if enough or elapsed >= RUN_LIMIT_S:
            break
        is_traced = args.trace == 1 and attempted % 2 == 1
        record = repetition(args.workload, args.seed, is_traced, RUN_LIMIT_S - elapsed)
        attempted += 1
        if record is None or record["error"]:
            failed += 1
            reason = "crashed" if record is None else record["error"]
            print(f"repetition {attempted} failed: {reason}", file=sys.stderr)
            continue
        (traced if is_traced else untraced).append(record)

    # Every repetition of one seed must simulate the same thing, and the
    # traced replica the same thing as RunSimulation.
    records = untraced + traced
    fingerprints = sorted({r["fingerprint"] for r in records})
    for r in records:
        if r["fingerprint"] != records[0]["fingerprint"]:
            failed += 1
    correct = failed == 0 and bool(untraced) and (args.trace == 0 or bool(traced))
    print(f"fingerprint {args.workload} seed={args.seed}: {' '.join(fingerprints) or 'none'}")

    metrics = {}
    if untraced and (args.trace == 0 or traced):
        metrics = end_to_end(untraced) if args.trace == 0 else per_layer(traced, untraced)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
