#!/usr/bin/env python3
"""End-to-end maintenance benchmark.

Builds the driver (perfbench/driver.cc, linked against the repository's own
libraries, Release) on first use, runs one workload, checks the maintained
views, and prints every metric. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).

  python3 perfbench/run.py --workload ptf25-scan --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --all            # every workload, one table
  python3 perfbench/selftest.py             # the benchmark's own tests

Build output and run artifacts go to $CARGO_TARGET_DIR (default
.bench_build) under the checkout root. Exit status: 0 when every check
passed, 1 on a correctness failure, 2 when the benchmark cannot run.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import summarize  # noqa: E402

WORKLOADS = ["ptf25-scan", "geo-churn", "ptf-serve", "ptf-spill"]
# Rounds per 30 s of --seconds, sized so an untraced run of the bench scale
# (set-up, batches and correctness gate of every round) takes 20-30 s on a
# shared 4-vCPU x86 VM whose speed drifts by up to 40%. The round count is
# fixed by (workload, --seconds), never by elapsed time, so a given seed
# always covers the same data and batches.
ROUNDS_PER_30S = {"ptf25-scan": 6, "geo-churn": 11, "ptf-serve": 9,
                  "ptf-spill": 11}
DRIVER_TIMEOUT_S = 170
TAIL_PERCENTILES = [50, 75, 90, 95, 99, 99.9]
MIB = 1024.0 * 1024.0


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def ensure_built():
    """Configures once, then builds incrementally; returns the driver path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no repository sources under {ROOT}; nothing to build")
    cmake_dir = build_dir() / "perfbench-cmake"
    log = build_dir() / "perfbench-build.log"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "avm_perfbench", "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                tail = log.read_text().splitlines()[-30:]
                die("build failed:\n" + "\n".join(tail))
    return cmake_dir / "avm_perfbench"


def rounds_for(workload, seconds):
    return max(1, round(ROUNDS_PER_30S[workload] * seconds / 30.0))


def run_driver(driver, workload, seed, out_dir, extra):
    if out_dir.exists():
        shutil.rmtree(out_dir)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--out", str(out_dir)] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die(f"driver timed out on {workload}")
    result_path = out_dir / "result.json"
    if not result_path.is_file():
        die(f"driver exited {proc.returncode} without a result:\n{output}")
    with open(result_path) as f:
        return proc.returncode, json.load(f)


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced run).

def tail(values):
    """Highest listed percentile with at least ten samples above it."""
    n = len(values)
    mid = summarize.median(values)
    chosen = (50, mid, sum(1 for v in values if v > mid))
    for q in TAIL_PERCENTILES[1:]:
        value = summarize.percentile(values, q)
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10:
            chosen = (q, value, beyond)
    return {"value": chosen[1], "percentile": chosen[0],
            "samples_beyond": chosen[2], "samples": n}


def hist_percentile(hist, q):
    """Nearest-rank percentile of the driver's log-bucket histogram, read
    as the bucket's geometric midpoint (1% resolution)."""
    total = sum(count for _, count in hist["buckets"])
    rank = max(1, math.ceil(total * q / 100.0))
    seen = 0
    for index, count in hist["buckets"]:
        seen += count
        if seen >= rank:
            return hist["base"] ** (index + 0.5)
    return 0.0


def peak_rss(result):
    """Highest per-round peak RSS at the end of a timed phase. The driver
    restarts the high-water mark after each round's gate; if the kernel
    refused, only round 0 (before any gate) is clean."""
    peaks = result["round_peak_rss_mib"]
    if not result["peak_rss_reset"]:
        peaks = peaks[:1]
    return max(peaks, default=0.0)


def end_to_end(result):
    batches = [b["wall_s"] for b in result["batches"]]
    timed = sum(result["round_timed_wall_s"])
    metrics = {
        "setup_s": (summarize.median([s["total_s"] for s in result["setups"]]),
                    "s"),
        "batch_p50_s": (summarize.median(batches), "s"),
        "batch_tail_s": (tail(batches)["value"], "s"),
        "cells_per_s": (result["delta_cells"] / timed if timed else 0.0,
                        "cells/s"),
        "sim_makespan_s": (statistics.mean(result["round_sim_s"] or [0.0]),
                           "sim_s"),
        "peak_rss_mb": (peak_rss(result), "MiB"),
    }
    # Reported beside the gated metrics where the operation exists (they are
    # not in BENCHMARK.json because every gated metric must exist, nonzero,
    # on every workload).
    extra = {}
    deletes = [d["wall_s"] for d in result["deletes"]]
    if deletes:
        extra["delete_p50_s"] = (summarize.median(deletes), "s")
        extra["delete_tail_s"] = (tail(deletes)["value"], "s")
    if result["queries"]:
        extra["simquery_p50_s"] = (
            summarize.median([q["wall_s"] for q in result["queries"]]), "s")
    hist = result["read_latency_hist"]
    reads = sum(count for _, count in hist["buckets"])
    if reads:
        extra["query_p50_ms"] = (hist_percentile(hist, 50) / 1e6, "ms")
        extra["query_p99_ms"] = (hist_percentile(hist, 99) / 1e6, "ms")
        extra["queries_per_s"] = (
            reads / result["serve"]["read_window_s"], "q/s")
    extra["failed_frac"] = (
        result["failed"] / result["attempted"] if result["attempted"] else 1.0,
        "ratio")
    details = {"batch_tail": tail(batches), "batches": len(batches),
               "rounds": len(result["setups"])}
    if deletes:
        details["delete_tail"] = tail(deletes)
    return metrics, extra, details


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run).

def load_counters(path):
    with open(path) as f:
        return json.load(f)["counters"]


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(result, out_dir, overhead):
    n_batches = len(result["batches"])
    batches = result["batches"]
    bc = load_counters(out_dir / "metrics_batch.json")
    spans = summarize.load_spans(out_dir / "trace.json")
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    batch_spans = sorted(by_name.get("bench.batch", []), key=lambda s: s.start)
    control_tid = batch_spans[0].tid if batch_spans else None
    batch_wall = sum(s.dur for s in batch_spans) * 1e-6
    layer_totals = {}
    join_per_batch, exec_self_per_batch, publish_per_batch = [], [], []
    imbalance, waits, queue_depths = [], [], []
    node_join_us = 0.0
    for b in batch_spans:
        for layer, sec in summarize.layer_self_seconds(b).items():
            layer_totals[layer] = layer_totals.get(layer, 0.0) + sec
        inner = summarize.descendants(b)
        join_per_batch.append(sum(s.self_us for s in inner
                                  if summarize.layer_of(s.name) == "join")
                              * 1e-6)
        exec_self_per_batch.append(sum(s.self_us for s in inner
                                       if s.name == "exec.batch") * 1e-6)
        publish_per_batch.append(sum(s.dur for s in inner
                                     if s.name == "serve.publish") * 1e-6)
        nodes = [s for s in by_name.get("exec.node_joins", [])
                 if b.start <= s.start < b.end]
        node_join_us += sum(s.dur for s in nodes)
        if nodes:
            durs = [s.dur for s in nodes]
            mean = statistics.mean(durs)
            imbalance.append(max(durs) / mean if mean else 1.0)
        for phase in (s for s in inner if s.name == "exec.joins"):
            tasks = [s for s in nodes if phase.start <= s.start < phase.end]
            # Node tasks that had to wait for a busy thread.
            queue_depths.append(len(tasks) - len({t.tid for t in tasks}))
            first = {}
            for t in tasks:
                if t.tid != phase.tid:
                    first[t.tid] = min(first.get(t.tid, t.start), t.start)
            waits.extend(start - phase.start for start in first.values())
    layer_shares = {k: ratio(v, batch_wall) for k, v in layer_totals.items()}

    def med(key):
        return summarize.median([b[key] for b in batches])

    def mean_per_batch(counter):
        return ratio(bc.get(counter, 0), n_batches)

    unattributed = [
        s.dur * 1e-6 - b["triple_gen_s"] - b["plan_s"] - b["exec_s"]
        for s, b in zip(batch_spans, batches)]
    interior = bc.get("join.interior_cells", 0)
    boundary = bc.get("join.boundary_cells", 0)
    scan_pairs = bc.get("join.scan_pairs", 0)
    probe_pairs = bc.get("join.probe_pairs", 0)
    hits = bc.get("shape_cache.hits", 0)
    misses = bc.get("shape_cache.misses", 0)
    deletes, queries, serve = result["deletes"], result["queries"], \
        result["serve"]
    reads = [s.dur for s in by_name.get("serve.query", [])]
    opens = [s.dur for s in by_name.get("serve.open", [])]
    candidates = sum(b["plan_candidates"] for b in batches)
    accepts = sum(b["plan_accepts"] for b in batches)

    m = {
        "workload.generate_s": (summarize.median(
            [s["generate_s"] for s in result["setups"]]), "s"),
        "cluster.ingest_s": (summarize.median(
            [s["ingest_s"] for s in result["setups"]]), "s"),
        "view.materialize_s": (summarize.median(
            [s["materialize_s"] for s in result["setups"]]), "s"),
        "maintenance.triple_gen_s": (med("triple_gen_s"), "s"),
        "maintenance.plan_s": (med("plan_s"), "s"),
        "maintenance.plan_accept_ratio": (ratio(accepts, candidates), "ratio"),
        "maintenance.plan_share": (ratio(sum(b["plan_s"] for b in batches),
                                         batch_wall), "ratio"),
        "maintenance.exec_s": (med("exec_s"), "s"),
        "maintenance.exec_self_s": (summarize.median(exec_self_per_batch),
                                    "s"),
        "maintenance.unattributed_s": (summarize.median(unattributed), "s"),
        "maintenance.triples": (ratio(sum(b["triples"] for b in batches),
                                      n_batches), "count"),
        "maintenance.pairs": (ratio(sum(b["pairs"] for b in batches),
                                    n_batches), "count"),
        "maintenance.bytes_transferred_mb": (ratio(
            sum(b["bytes_transferred"] for b in batches), n_batches) / MIB,
            "MiB"),
        "maintenance.bytes_joined_mb": (ratio(
            sum(b["bytes_joined"] for b in batches), n_batches) / MIB, "MiB"),
        "maintenance.delete_s": (summarize.median(
            [d["wall_s"] for d in deletes]), "s"),
        "maintenance.retraction_joins": (ratio(
            sum(d["retraction_joins"] for d in deletes), len(deletes)),
            "count"),
        "maintenance.view_cells_removed": (ratio(
            sum(d["view_cells_removed"] for d in deletes), len(deletes)),
            "count"),
        "join.s": (summarize.median(join_per_batch), "s"),
        "join.share": (ratio(sum(join_per_batch), batch_wall), "ratio"),
        "join.scan_pair_frac": (ratio(scan_pairs, scan_pairs + probe_pairs),
                                "ratio"),
        "join.scanned_cells": (mean_per_batch("join.scanned_cells"), "count"),
        "join.ns_per_scanned_cell": (ratio(
            node_join_us * 1e3, bc.get("join.scanned_cells", 0)), "ns"),
        "join.node_imbalance": (summarize.median(imbalance), "ratio"),
        "join.boundary_frac": (ratio(boundary, interior + boundary), "ratio"),
        "join.probe_pairs": (mean_per_batch("join.probe_pairs"), "count"),
        "join.multiview_shared_pairs": (
            mean_per_batch("join.multiview_shared_pairs"), "count"),
        "shape_cache.hit_rate": (ratio(hits, hits + misses), "ratio"),
        "pool.task_wait_us_p50": (summarize.median(waits), "us"),
        "pool.queue_depth_max": (max(queue_depths, default=0), "count"),
        "array.densified": (mean_per_batch("chunk.densified"), "count"),
        "array.sparsified": (mean_per_batch("chunk.sparsified"), "count"),
        "array.dense_resident_mb": (med("resident_dense_bytes") / MIB, "MiB"),
        "storage.cow_breaks": (mean_per_batch("store.cow_breaks"), "count"),
        "storage.deep_copies": (mean_per_batch("store.chunks_deep_copied"),
                                "count"),
        "storage.aliased": (mean_per_batch("store.chunks_aliased"), "count"),
        "storage.resident_mb": (summarize.median(
            [b["resident_sparse_bytes"] + b["resident_dense_bytes"]
             for b in batches]) / MIB, "MiB"),
        "buffer.evictions_per_batch": (mean_per_batch("buffer.evictions"),
                                       "count"),
        "buffer.reloads_per_batch": (mean_per_batch("buffer.reloads"),
                                     "count"),
        "buffer.reloaded_mb_per_batch": (
            mean_per_batch("buffer.reloaded_bytes") / MIB, "MiB"),
        "buffer.disk_mb": (med("buffer_disk_bytes") / MIB, "MiB"),
        "buffer.rebalance_s": (med("rebalance_s"), "s"),
        "serve.open_us_p50": (summarize.median(opens), "us"),
        "serve.eval_us_p50": (summarize.percentile(reads, 50), "us"),
        "serve.eval_us_p99": (summarize.percentile(reads, 99), "us"),
        "serve.publish_s": (summarize.median(publish_per_batch), "s"),
        "serve.epochs_live_max": (serve["epochs_live_max"], "count"),
        "serve.retire_lag_ms": (ratio(serve["total_lag_s"], serve["lagged"])
                                * 1e3, "ms"),
        "query.estimate_s": (summarize.median(
            [q["estimate_s"] for q in queries]), "s"),
        "query.execute_s": (summarize.median(
            [q["wall_s"] for q in queries]), "s"),
        "query.view_strategy_frac": (ratio(
            sum(1 for q in queries if q["used_view"]), len(queries)), "ratio"),
        "query.delta_ratio": (summarize.median(
            [q["delta_ratio"] for q in queries]), "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.events_dropped": (result["trace_events_dropped"], "count"),
    }
    bases = {
        "maintenance.plan_accept_ratio": [accepts, candidates],
        "join.scan_pair_frac": [scan_pairs, scan_pairs + probe_pairs],
        "join.boundary_frac": [boundary, interior + boundary],
        "shape_cache.hit_rate": [hits, hits + misses],
        "batch_wall_s": batch_wall,
        "batches": n_batches,
        "control_thread": control_tid,
    }
    return m, {"layer_shares": layer_shares, "bases": bases}


# ---------------------------------------------------------------------------

def metadata(result, driver):
    meta = {
        "workload": result["workload"], "seed": result["seed"],
        "config": result["config"],
        "experiment_scale": result["experiment_scale"],
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "host": platform.platform(),
    }
    cache = driver.parent / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            meta["build_type"] = line.split("=", 1)[1]
    try:
        meta["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        meta["git_commit"] = "unknown"
    return meta


def verdict(returncode, result):
    failed = result["failed"] + result["gate"]["mismatches"]
    correct = returncode == 0 and failed == 0
    return correct, max(1, result["attempted"]), failed


def print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6g} {unit}")


def explain_failures(result):
    for message in result["errors"] + result["gate"]["messages"]:
        print(f"  FAILED: {message}")


def run_one(driver, workload, seed, seconds, trace, driver_args):
    runs = build_dir() / "perfbench-runs"
    base = runs / f"{workload}-{seed}-{os.getpid()}"
    start_load = os.getloadavg()
    if not trace:
        code, result = run_driver(
            driver, workload, seed, base,
            ["--rounds", str(rounds_for(workload, seconds))] + driver_args)
        metrics, extra, details = end_to_end(result)
        shown = dict(metrics)
        shown.update(extra)
        print_table(f"{workload} (seed {seed}, {details['rounds']} rounds, "
                    f"{details['batches']} batches)", shown)
        print("  batch_tail_s is p%s over %d batches (%d beyond)" % (
            details["batch_tail"]["percentile"], details["batch_tail"]["samples"],
            details["batch_tail"]["samples_beyond"]))
        info = {"details": details}
    else:
        # Same rounds twice: untraced for the overhead base, then traced.
        rounds = rounds_for(workload, seconds / 2.0)
        code0, plain = run_driver(driver, workload, seed, base / "plain",
                                  ["--rounds", str(rounds)] + driver_args)
        code, result = run_driver(driver, workload, seed, base / "traced",
                                  ["--rounds", str(rounds), "--trace"] +
                                  driver_args)
        code = code or code0
        overhead = ratio(sum(result["round_timed_wall_s"]),
                         sum(plain["round_timed_wall_s"])) - 1.0
        metrics, info = per_layer(result, base / "traced", overhead)
        print_table(f"{workload} traced (seed {seed}, {rounds} rounds)",
                    metrics)
        print("  layer shares of batch wall: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(info["layer_shares"].items(),
                                             key=lambda kv: -kv[1])))
    correct, attempted, failed = verdict(code, result)
    if not correct:
        explain_failures(result)
    meta = metadata(result, driver)
    meta["loadavg_at_start"] = start_load
    meta.update(info)
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    shutil.rmtree(base, ignore_errors=True)
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, one table each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["bench", "tiny"],
                        default="bench",
                        help="dataset sizes (self-tests: tiny, the figure "
                        "benches' AVM_BENCH_SCALE=tiny)")
    parser.add_argument("--corrupt-view-cell", action="store_true",
                        help="self-test: corrupt one view cell before the "
                        "correctness gate, which must then fail")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")

    driver = ensure_built()
    driver_args = ["--scale", args.scale]
    if args.corrupt_view_cell:
        driver_args.append("--corrupt-view-cell")
    if args.all:
        ok = True
        for workload in WORKLOADS:
            correct, _, _, _ = run_one(driver, workload, args.seed,
                                       args.seconds, False, driver_args)
            ok = ok and correct
        return 0 if ok else 1

    correct, attempted, failed, metrics = run_one(
        driver, args.workload, args.seed, args.seconds, bool(args.trace),
        driver_args)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
