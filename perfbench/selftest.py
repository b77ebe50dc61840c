#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

  python3 perfbench/selftest.py

1. The trace summarizer on a hand-written trace with known self times.
2. A tiny-scale pass over every workload, untraced and traced, checking that
   each metric BENCHMARK.json declares is printed with its declared unit.
3. A deliberately corrupted view cell, which the correctness gate must
   catch (run.py then reports correct=false and exits 1).
4. ptf25-scan's simulated makespan equals fig3_maintenance_time's
   sim_total_s for the same dataset, method, scale and seed, so the driver
   builds the paper's experiment and not a look-alike.
5. Outside a checkout (only BENCHMARK.json and perfbench/), run.py exits
   non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import summarize  # noqa: E402

FAILURES = []


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def run_py(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, last, proc


def test_summarizer():
    def ev(name, tid, ts, dur):
        return {"name": name, "cat": "t", "ph": "X", "pid": 1, "tid": tid,
                "ts": ts, "dur": dur}
    events = [
        ev("bench.batch", 1, 0, 100),      # self 100 - 30 - 40 = 30
        ev("plan.triples", 1, 10, 30),     # self 30
        ev("exec.joins", 1, 50, 40),       # self 40 - 10 = 30
        ev("exec.node_joins", 1, 60, 10),  # self 10
        ev("exec.node_joins", 2, 20, 60),  # other thread: not a child
        ev("sim.cpu", 10003, 0, 500),      # simulated lane: ignored
    ]
    spans = summarize.build_spans(events)
    self_us = {(s.name, s.tid): s.self_us for s in spans}
    check(len(spans) == 5, "summarizer drops simulated-clock lanes")
    check(self_us == {("bench.batch", 1): 30, ("plan.triples", 1): 30,
                      ("exec.joins", 1): 30, ("exec.node_joins", 1): 10,
                      ("exec.node_joins", 2): 60},
          f"summarizer self times {self_us}")
    batch = [s for s in spans if s.name == "bench.batch"][0]
    layers = {k: round(v * 1e6, 6)
              for k, v in summarize.layer_self_seconds(batch).items()}
    check(layers == {"bench": 30, "maintenance": 30, "join": 40},
          f"summarizer per-layer self time {layers}")
    values = list(range(1, 41))
    check(summarize.percentile(values, 75) == 30, "nearest-rank p75")
    t = run.tail(values)
    check(t["percentile"] == 75 and t["samples_beyond"] == 10,
          f"tail picks the highest percentile with 10 samples beyond: {t}")


def declared():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def test_tiny_pass():
    e2e, layers, workloads = declared()
    check(workloads == run.WORKLOADS, "BENCHMARK.json lists run.py's workloads")
    for workload in workloads:
        for trace, want in (("0", e2e), ("1", layers)):
            code, last, proc = run_py("--workload", workload, "--seed", "5",
                                      "--seconds", "1", "--trace", trace,
                                      "--scale", "tiny")
            ok = code == 0 and last is not None and last["correct"]
            check(ok, f"{workload} trace={trace} tiny run is correct")
            if not ok:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            check(got == want,
                  f"{workload} trace={trace} emits every declared metric "
                  f"with its unit")
            if trace == "0":
                zero = [k for k, v in last["metrics"].items()
                        if not v["value"] > 0]
                check(not zero, f"{workload} end-to-end metrics nonzero "
                      f"{zero}")


def test_corruption():
    for workload in ("geo-churn", "ptf25-scan"):
        code, last, _ = run_py("--workload", workload, "--seed", "5",
                               "--seconds", "1", "--trace", "0",
                               "--scale", "tiny", "--corrupt-view-cell")
        check(code == 1 and last is not None and not last["correct"]
              and last["failed"] >= 1,
              f"{workload}: gate catches a corrupted view cell "
              f"(exit {code}, {last and last['failed']} failed)")


def test_fig3_equivalence():
    driver = run.ensure_built()
    cmake_dir = driver.parent
    with open(run.build_dir() / "perfbench-fig3-build.log", "w") as log:
        built = subprocess.run(
            ["cmake", "--build", str(cmake_dir), "--target",
             "fig3_maintenance_time", "-j", str(os.cpu_count() or 1)],
            stdout=log, stderr=subprocess.STDOUT).returncode == 0
    check(built, "fig3_maintenance_time builds")
    if not built:
        return
    fig3 = next(cmake_dir.rglob("fig3_maintenance_time"))
    work = run.build_dir() / "perfbench-selftest"
    work.mkdir(parents=True, exist_ok=True)
    out_json = work / "fig3.json"
    env = dict(os.environ, AVM_BENCH_SCALE="tiny")
    subprocess.run([str(fig3), "--benchmark_filter=^BM_Fig3/PTF-25/real/"
                    "reassign", "--threads", "4",
                    f"--benchmark_out={out_json}",
                    "--benchmark_out_format=json"],
                   env=env, capture_output=True, check=True)
    with open(out_json) as f:
        fig3_sim = json.load(f)["benchmarks"][0]["sim_total_s"]
    code, result = run.run_driver(driver, "ptf25-scan", 42, work / "driver",
                                  ["--rounds", "1", "--scale", "tiny"])
    ours = result["round_sim_s"][0]
    check(code == 0 and ours == fig3_sim,
          f"ptf25-scan sim makespan {ours!r} == fig3 sim_total_s "
          f"{fig3_sim!r} (PTF-25, real, reassign, tiny, seed 42)")


def test_outside_checkout():
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "geo-churn",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        check(proc.returncode != 0 and "{" not in proc.stdout,
              f"without the sources run.py exits {proc.returncode} and "
              f"prints no result")


def main():
    run.build_dir().mkdir(parents=True, exist_ok=True)
    test_summarizer()
    test_outside_checkout()
    test_fig3_equivalence()
    test_corruption()
    test_tiny_pass()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
