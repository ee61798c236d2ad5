#!/usr/bin/env python3
"""Run one workload of the CM-stack benchmark and print its metrics.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The script builds the `cm-benchmark`
binary (a package of its own in this directory) with cargo, then runs it
in fresh processes, one measurement each, for about `--seconds`: each
process replays the same seeded input, and the script reports medians
across them. Every process checks the simulated output; the script also
checks that every simulated-time result repeats exactly across them.

With `--trace 0` it reports the end-to-end metrics, measured with
tracing off. With `--trace 1` it times every call the benchmark makes
into a layer (medians across processes), then makes one extra traced
run (telemetry and cm-obs on, the benchmark's spans logged) and writes
its Chrome trace and `cm-obs/v1` report to
`benchmark/out/<workload>-seed<N>/`.

Every metric is printed as a table, then the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The exit code is non-zero when a check failed, and when the
build or a run failed (then no JSON is printed).
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

WORKLOADS = ["city_churn", "city_sharded", "lip_sync"]

# End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics (--trace 1): name -> unit. A metric a workload does
# not exercise reads 0 there; README.md lists where each applies.
PER_LAYER = {
    "testkit.schedule_gen_ms": "ms",
    "platform.world_build_ms": "ms",
    "netsim.events": "count",
    "engine.self_ms": "ms",
    "engine.ns_per_event": "ns",
    "engine.events_per_s": "1/s",
    "netsim.pkts_submitted": "count",
    "netsim.pkts_delivered": "count",
    "netsim.pkts_dropped": "count",
    "netsim.link_bytes": "bytes",
    "netsim.slab_slots": "count",
    "netsim.reservations_open_end": "count",
    "transport.write_osdu_calls": "count",
    "transport.write_osdu_ns_p50": "ns",
    "transport.write_osdu_ns_p99": "ns",
    "transport.write_ms_total": "ms",
    "transport.write_full_ratio": "ratio",
    "session.create_room_us_p50": "us",
    "session.create_room_us_p99": "us",
    "session.join_us_p50": "us",
    "session.join_us_p99": "us",
    "session.publish_us_p50": "us",
    "session.publish_us_p99": "us",
    "session.leave_us_p50": "us",
    "session.leave_us_p99": "us",
    "session.api_ms_total": "ms",
    "session.joins_ok": "count",
    "session.joins_denied": "count",
    "session.on_media_calls": "count",
    "member.callback_ms": "ms",
    "orch.start_us_p50": "us",
    "orch.regulations": "count",
    "orch.drops": "count",
    "orch.run_ms": "ms",
    "cluster.rounds": "count",
    "cluster.busy_ms": "ms",
    "cluster.sync_ms": "ms",
    "cluster.critical_path_ms": "ms",
    "cluster.parallel_bound": "ratio",
    "cluster.worker_imbalance": "ratio",
    "cluster.envelopes_routed": "count",
    "cluster.envelope_allocs": "count",
    "cluster.wan_msgs": "count",
    "cluster.wan_dropped": "count",
    "heap.peak_mb": "MB",
    "heap.allocs_per_event": "ratio",
    "heap.live_after_drop_mb": "MB",
    "osdu_latency_p50_ms": "sim_ms",
    "osdu_latency_p99_ms": "sim_ms",
    "join_admit_p50_ms": "sim_ms",
    "join_admit_p99_ms": "sim_ms",
    "lip_sync_skew_p99_ms": "sim_ms",
    "op_failure_ratio": "ratio",
    "sim.delivery_fnv": "hash",
    "sim.end_ms": "sim_ms",
    "trace.overhead_ratio": "ratio",
    "trace.bench_spans": "count",
    "obs.spans": "count",
    "obs.misses": "count",
    "obs.breaches": "count",
    "obs.telemetry_overflow": "count",
    "obs.span_mean_ms": "sim_ms",
    "obs.seg.pacing_ms": "sim_ms",
    "obs.seg.credit_stall_ms": "sim_ms",
    "obs.seg.queueing_ms": "sim_ms",
    "obs.seg.propagation_ms": "sim_ms",
    "obs.seg.repair_ms": "sim_ms",
    "obs.seg.mirror_relay_ms": "sim_ms",
    "obs.seg.playout_hold_ms": "sim_ms",
    "tel.net.pkt.delivered": "count",
    "tel.net.pkt.drop": "count",
    "tel.vc.connect.admit": "count",
    "tel.vc.credit.stall": "count",
    "tel.vc.rto": "count",
    "tel.hlo.miss": "count",
    "tel.hlo.escalate": "count",
    "tel.engine.events_drained": "count",
}

# Taken from the one traced run; every other per-layer metric is a
# median over the untraced, timed runs.
TRACED_ONLY = ("obs.", "tel.", "trace.")

# Simulated results: a fixed seed must reproduce them exactly in every
# process (sim_ms metrics, fingerprints and simulation counts).
EXACT = [m for m, u in PER_LAYER.items() if u in ("sim_ms", "hash")] + [
    "netsim.events",
    "netsim.pkts_delivered",
    "netsim.link_bytes",
    "session.joins_ok",
    "session.on_media_calls",
    "transport.write_osdu_calls",
    "orch.regulations",
    "cluster.rounds",
    "cluster.wan_msgs",
]
EXACT = [m for m in EXACT if not m.startswith(TRACED_ONLY)]

# Fewest measurement processes per run, whatever --seconds says.
MIN_PROCESSES = 3
# Per-process limit; one city process takes a few seconds.
PROCESS_TIMEOUT_S = 150


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark binary; return its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("no crates/ beside benchmark/: run from a full checkout of the repository")
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    except FileNotFoundError:
        fail("cargo not found")
    if proc.returncode != 0:
        fail(f"build failed (cargo exit {proc.returncode})", 1)
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg.get("target", {}).get("name") == "cm-benchmark":
            exe = msg["executable"]
    if not exe or not os.path.isfile(exe):
        fail("build produced no cm-benchmark executable", 1)
    return exe


def run_once(exe, workload, seed, mode, out):
    """Run one measurement process; return its parsed report."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--mode", mode, "--out", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} ({mode}) exceeded {PROCESS_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} ({mode}) exited {proc.returncode} without a report", 1)
    return json.loads(lines[-1])


def measure(exe, workload, seed, mode, seconds, out):
    """Fresh processes, one after another, while the next one is expected
    to finish within `seconds` (at least MIN_PROCESSES)."""
    reports = []
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(reports) >= MIN_PROCESSES and elapsed + last > seconds:
            break
        t0 = time.monotonic()
        r = run_once(exe, workload, seed, mode, out)
        last = time.monotonic() - t0
        m = r["metrics"]
        print(f"run.py: {workload} {mode} process {len(reports) + 1}: wall_s {m['wall_s']:.4f}"
              f" setup_s {m['setup_s']:.4f}", file=sys.stderr)
        reports.append(r)
    return reports


def median(reports, name):
    vals = [r["metrics"][name] for r in reports if name in r["metrics"]]
    return statistics.median(vals) if vals else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    exe = build()
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    if args.trace:
        # Most of the budget for the timed runs, the rest for the traced one.
        reports = measure(exe, args.workload, args.seed, "layers", args.seconds * 0.7, out)
        traced = run_once(exe, args.workload, args.seed, "traced", out)
        runs = reports + [traced]
    else:
        reports = measure(exe, args.workload, args.seed, "plain", args.seconds, out)
        traced = None
        runs = reports

    failed_checks = []
    for r in runs:
        failed_checks += [f"{r['mode']}: {c['name']}: {c['detail']}"
                          for c in r["checks"] if not c["ok"]]
    unrepeated = []
    for name in EXACT:
        seen = {r["metrics"][name] for r in runs if name in r["metrics"]}
        if len(seen) > 1:
            unrepeated.append(f"determinism: {name} differs across runs: {sorted(seen)}")
    failed_checks += unrepeated
    # Each exact-repeat check counts as one more checked operation.
    attempted = sum(r["attempted"] for r in runs) + len(EXACT)
    failed = sum(r["failed"] for r in runs) + len(unrepeated)
    correct = not failed_checks

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_ratio":
                value = traced["metrics"]["wall_s"] / median(reports, "wall_s")
            elif name.startswith(TRACED_ONLY):
                value = traced["metrics"].get(name, 0.0)
            else:
                value = median(reports, name)
            metrics[name] = {"value": value, "unit": unit}
        metrics["op_failure_ratio"]["value"] = failed / max(attempted, 1)
    else:
        metrics = {name: {"value": median(reports, name), "unit": unit}
                   for name, unit in END_TO_END.items()}

    kind = "per-layer" if args.trace else "end-to-end"
    print(f"# {args.workload} seed {args.seed}: {len(reports)} measured processes"
          + (", 1 traced" if traced else "") + f"; {kind} metrics")
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>20.6g} {m['unit']}")
    for msg in failed_checks:
        print(f"CHECK FAILED {msg}")
    if traced:
        print(f"# traced artifacts: {os.path.relpath(out, ROOT)}/trace.json, obs.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
