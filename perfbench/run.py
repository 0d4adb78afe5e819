#!/usr/bin/env python3
"""ActiveDR benchmark: one workload per invocation, each in its own process.

    python3 perfbench/run.py --workload purge_steady --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run builds the workload
program (perfbench/CMakeLists.txt, which compiles ../src) into .bench_build/.
Each run then:

  1. generates the seeded inputs once per input-shaping parameter set
     (workload, seed, users, span, ...) into .bench_build/inputs/ (untimed,
     outside the measured process);
  2. computes the reference digests once per input with the plain
     configuration (full evaluation, walk scans, one shard, no residency
     budget) into .bench_build/ref/ (untimed, its own process);
  3. replays the workload in a fresh process and checks every trigger's
     victims and ranks, the final ranks and the purge index against them.

--trace 0 prints the end-to-end metrics. --trace 1 runs the replay once
untraced and once traced, and prints the per-layer metrics plus the tracing
overhead; the spans go to .bench_build/traces/. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
PROGRAM = CMAKE_DIR / "adr_perfbench"
WORKLOADS = ("purge_steady", "rank_refresh", "serve_wal")
# Seconds a run may take once the program is built.
RUN_BUDGET_S = 170.0
# The measured replay runs on one thread: on a shared 4-core host the
# default pool (one thread per core) let other tenants' CPU steal swing the
# figures by 20-45 % between runs. Input generation and the untimed
# reference keep the default pool.
MEASURED_ENV = dict(os.environ, ACTIVEDR_THREADS="1")

# name, unit — every workload prints all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("trigger_p50_ms", "ms"),
    ("trigger_p90_ms", "ms"),
    ("refresh_p50_ms", "ms"),
    ("refresh_p90_ms", "ms"),
    ("rss_peak_mib", "MiB"),
)

# Counts that must repeat exactly at a fixed seed and shard count.
DETERMINISTIC_COUNTS = {
    "victims": "victims",
    "purged_bytes": "purged_bytes",
    "users_reevaluated": "incremental.users_reevaluated",
    "evictions": "vfs.evictions",
    "faults": "vfs.faults",
    "checkpoints": "service.checkpoints",
}


class BenchError(Exception):
    pass


class Deadline:
    def __init__(self):
        self.end = time.monotonic() + RUN_BUDGET_S

    def restart(self):
        self.end = time.monotonic() + RUN_BUDGET_S

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run budget of %.0f s exhausted" % RUN_BUDGET_S)
        return left


def call(cmd, deadline, log=None, env=None):
    """Run a child to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=deadline.left(), env=env)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: %s" % " ".join(map(str, cmd)))
    if log is not None:
        log.write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-20:]
        raise BenchError("failed (%d): %s\n%s" % (
            proc.returncode, " ".join(map(str, cmd)), "\n".join(tail)))
    return proc.stdout


def build(deadline):
    BUILD.mkdir(exist_ok=True)
    needs_build = not PROGRAM.exists()
    if needs_build:
        # The first run of a checkout may build for up to 900 s.
        deadline.end = time.monotonic() + 880.0
        call(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], deadline,
             BUILD / "configure.log")
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", str(CMAKE_DIR), "--target", "adr_perfbench",
          "-j", jobs], deadline, BUILD / "build.log")
    if needs_build:
        deadline.restart()


def spec_args(args):
    return ["--workload", args.workload, "--size", args.size,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]


def ensure_inputs(args, deadline):
    key = call([str(PROGRAM), "key", *spec_args(args)], deadline).strip()
    inputs = BUILD / "inputs" / (key + ".bin")
    ref = BUILD / "ref" / (key + ".digests")
    for d in (inputs.parent, ref.parent):
        d.mkdir(parents=True, exist_ok=True)
    if not inputs.exists():
        call([str(PROGRAM), "gen", *spec_args(args), "--out", str(inputs)],
             deadline)
    if not ref.exists():
        call([str(PROGRAM), "reference", *spec_args(args),
              "--input", str(inputs), "--out", str(ref)], deadline)
    return inputs, ref


def replay(args, inputs, ref, trace, deadline):
    run_dir = BUILD / "run" / args.workload
    cmd = [str(PROGRAM), "run", *spec_args(args), "--input", str(inputs),
           "--expected", str(ref), "--trace", "1" if trace else "0",
           "--run-dir", str(run_dir)]
    if trace:
        spans = BUILD / "traces" / (args.workload + ".csv")
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        out = call(cmd, deadline, env=MEASURED_ENV)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, p):
    """Nearest rank: the smallest sample with at least p of them at or below."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(r):
    return {
        "setup_s": (statistics.median(r["setup_s"]), len(r["setup_s"])),
        "events_per_s": (r["live_events"] / r["replay_s"], r["live_events"]),
        "trigger_p50_ms": (percentile(r["trigger_ms"], 0.5),
                           len(r["trigger_ms"])),
        "trigger_p90_ms": (percentile(r["trigger_ms"], 0.9),
                           len(r["trigger_ms"])),
        "refresh_p50_ms": (percentile(r["refresh_ms"], 0.5),
                           len(r["refresh_ms"])),
        "refresh_p90_ms": (percentile(r["refresh_ms"], 0.9),
                           len(r["refresh_ms"])),
        "rss_peak_mib": (r["rss_peak_bytes"] / 2**20, 1),
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(traced, untraced):
    layers = traced["layers"]
    counts = traced["counts"]
    state = traced["state"]

    def layer(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0, "p50_ms": 0.0})

    m = {}
    for name in ("core.apply_activity", "core.apply_file",
                 "trace.wal_append"):
        s = layer(name)
        m[name + ".calls"] = (s["calls"], "count")
        m[name + ".busy_s"] = (s["self_s"], "s")
        m[name + ".ns_per_op"] = (ratio(s["self_s"] * 1e9, s["calls"]), "ns")
    for name in ("activeness.evaluate", "retention.purge"):
        s = layer(name)
        m[name + ".calls"] = (s["calls"], "count")
        m[name + ".busy_s"] = (s["self_s"], "s")
        m[name + ".p50_ms"] = (s["p50_ms"], "ms")

    dirty = counts["incremental.users_dirty"]
    reevaluated = counts["incremental.users_reevaluated"]
    m["activeness.users_dirty"] = (dirty, "count")
    m["activeness.users_reevaluated"] = (reevaluated, "count")
    m["activeness.reeval_per_dirty"] = (ratio(reevaluated, dirty), "ratio")
    m["activeness.full_rebuilds"] = (counts["incremental.full_rebuilds"],
                                     "count")
    m["activeness.shards"] = (traced["shards"], "count")

    candidates = counts["policy.victims_considered"]
    victims = counts["policy.victims_purged"]
    m["retention.candidates"] = (candidates, "count")
    m["retention.victims"] = (victims, "count")
    m["retention.victims_per_candidate"] = (ratio(victims, candidates),
                                            "ratio")
    m["retention.target_reached_share"] = (
        ratio(counts.get("targets_reached", 0), counts.get("triggers", 0)),
        "ratio")

    m["fs.files"] = (state["files"], "count")
    m["fs.evictions"] = (counts["vfs.evictions"], "count")
    m["fs.faults"] = (counts["vfs.faults"], "count")
    m["fs.faults_per_file_event"] = (
        ratio(counts["vfs.faults"], counts["file_events"]), "ratio")
    m["fs.resident_mib"] = (state["resident_bytes"] / 2**20, "MiB")
    m["fs.spilled_mib"] = (state["spilled_bytes"] / 2**20, "MiB")
    m["fs.purge_index_bytes_per_entry"] = (
        ratio(state["purge_index_bytes"], state["files"]), "B")

    m["trace.wal_bytes_per_event"] = (
        ratio(state.get("wal_bytes", 0), state.get("wal_records", 0)), "B")

    ticks = [layer(n) for n in ("serve.tick_poll", "serve.tick_checkpoint",
                                "serve.tick_trigger", "serve.tick_refresh")]
    m["serve.tick.calls"] = (sum(t["calls"] for t in ticks), "count")
    m["serve.tick.busy_s"] = (sum(t["self_s"] for t in ticks), "s")
    m["serve.tick_checkpoint.calls"] = (ticks[1]["calls"], "count")
    m["serve.tick_checkpoint.busy_s"] = (ticks[1]["self_s"], "s")
    m["serve.tick_trigger.busy_s"] = (ticks[2]["self_s"], "s")
    m["serve.tick_refresh.busy_s"] = (ticks[3]["self_s"], "s")
    m["serve.ctl_client.busy_s"] = (layer("serve.ctl_client")["self_s"], "s")
    m["serve.checkpoint_mib"] = (state.get("checkpoint_bytes", 0) / 2**20,
                                 "MiB")

    traced_rate = traced["live_events"] / traced["replay_s"]
    untraced_rate = untraced["live_events"] / untraced["replay_s"]
    m["bench.trace_overhead_share"] = (1.0 - traced_rate / untraced_rate,
                                       "ratio")
    m["bench.layer_share"] = (
        ratio(sum(s["self_s"] for s in layers.values()), traced["replay_s"]),
        "ratio")
    m["bench.replay_s"] = (traced["replay_s"], "s")
    return m


def print_layer_table(traced):
    print("per-layer self time, traced replay of %.3f s (%s, %d shards):"
          % (traced["replay_s"], traced["workload"], traced["shards"]))
    print("  %-24s %10s %10s %8s" % ("layer", "calls", "self_s", "share"))
    rows = sorted(traced["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, s in rows:
        print("  %-24s %10d %10.4f %7.1f%%" % (
            name, s["calls"], s["self_s"],
            100.0 * s["self_s"] / traced["replay_s"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the benchmark's own test size")
    args = parser.parse_args()

    deadline = Deadline()
    try:
        build(deadline)
        inputs, ref = ensure_inputs(args, deadline)
        untraced = replay(args, inputs, ref, False, deadline)
        runs = [untraced]
        if args.trace:
            runs.append(replay(args, inputs, ref, True, deadline))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    result = runs[-1]
    print("workload %s: seed %d, %d users, %d simulated days, "
          "ACTIVEDR_THREADS=%s, %d shards"
          % (result["workload"], result["seed"], result["users"],
             result["span_days"], MEASURED_ENV["ACTIVEDR_THREADS"],
             result["shards"]))
    problems = [p for r in runs for p in r["problems"]]
    for p in problems:
        print("  problem: %s" % p)
    print("counts %s" % json.dumps(
        {k: result["counts"].get(v, 0)
         for k, v in DETERMINISTIC_COUNTS.items()}, sort_keys=True))

    if args.trace:
        print_layer_table(result)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer(result,
                                                        untraced).items()}
    else:
        e2e = end_to_end(result)
        print("  %-16s %14s %-9s %s" % ("metric", "value", "unit",
                                          "samples"))
        for name, unit in END_TO_END:
            value, n = e2e[name]
            print("  %-16s %14.4f %-9s %d" % (name, value, unit, n))
        print("  %-16s %14.6f %-9s %d" % (
            "failed_share", ratio(result["failed"], result["attempted"]),
            "ratio", result["attempted"]))
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END}

    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
