#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (bench_pipeline.cpp).

Run from the root of a checkout:

    python3 pipebench/run.py --workload debug_cycle --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --smoke
    python3 pipebench/run.py --snapshot bench/baselines/pipeline --seconds 35

Every run configures and builds the benchmark and the library it links
(RelWithDebInfo, the repository default) under .bench_build/pipebench; only
the first run compiles anything. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""
import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pipebench"
BINARY = BUILD / "bench_pipeline"
RUN_TIMEOUT_S = 170


def step(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        sys.exit(f"run.py: failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build():
    if shutil.which("cmake") is None:
        sys.exit("run.py: cmake not found")
    step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "--target", "bench_pipeline", "-j", jobs], 840)


def run_benchmark(cmd):
    """Runs bench_pipeline; returns (exit code, stdout)."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def applied_metrics(stdout):
    """Metric name -> value from the `metric` lines, without the n/a ones."""
    values = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] == "metric" and fields[3] != "n/a":
            values[fields[1]] = float(fields[3])
    return values


def snapshot(args, base_cmd):
    """Writes one predctrl-bench-v1 file (the schema of bench/) for all workloads.

    Per workload, an untraced and a traced run of --seconds each give one
    result: e2e_us is the untraced op_ms_p50 in microseconds, the traced run
    gives unattributed_pct, trace_overhead_pct and one layer_<layer>_<name>
    counter per per-layer time the workload exercises. real_time_ns is the
    same median op time; cpu_time_ns is the untraced run's process CPU time
    over its ops, so it includes set-up and warm-up.
    """
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    results, config = [], {}
    for workload in workloads:
        runs = {}
        for trace in (0, 1):
            cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
            code, stdout = run_benchmark(base_cmd + ["--workload", workload, "--seconds",
                                                     str(args.seconds), "--trace", str(trace)])
            cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
            result = json.loads(stdout.splitlines()[-1]) if code == 0 and stdout else None
            if result is None or not result["correct"]:
                sys.stderr.write(stdout)
                sys.exit(f"run.py: {workload} --trace {trace} failed; no snapshot written")
            cpu_s = (cpu_after.ru_utime - cpu_before.ru_utime
                     + cpu_after.ru_stime - cpu_before.ru_stime)
            runs[trace] = (result, applied_metrics(stdout), cpu_s)
            for line in stdout.splitlines():
                if line.startswith("config "):
                    config = json.loads(line[len("config "):])
        untraced, untraced_metrics, cpu_s = runs[0]
        traced_metrics = runs[1][1]
        e2e_us = untraced_metrics["op_ms_p50"] * 1e3
        counters = {"e2e_us": e2e_us, "e2e_p95_us": untraced_metrics["op_ms_p95"] * 1e3}
        for name in ("unattributed_pct", "trace_overhead_pct"):
            counters[name] = traced_metrics[name]
        for name, value in sorted(traced_metrics.items()):
            if "." in name and name.endswith("_us"):
                counters["layer_" + name.replace(".", "_")] = value
        results.append({
            "name": f"pipeline/{workload}",
            "run_type": "iteration",
            "iterations": untraced["attempted"],
            "real_time_ns": e2e_us * 1e3,
            "cpu_time_ns": cpu_s * 1e9 / untraced["attempted"],
            "error": False,
            "counters": counters,
        })
    doc = {"schema": "predctrl-bench-v1", "bench": "bench_pipeline", "smoke": False,
           "threads": config.get("threads", 1), "engine": config.get("engine", "conservative"),
           "results": results}
    out = Path(args.snapshot) / "BENCH_bench_pipeline.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="Chrome trace_event JSON of a --trace 1 run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools, each workload once; checks oracles and fingerprint")
    parser.add_argument("--snapshot", metavar="DIR",
                        help="run every workload untraced and traced and write "
                             "DIR/BENCH_bench_pipeline.json")
    args = parser.parse_args()
    if not args.smoke and not args.snapshot and not args.workload:
        parser.error("--workload is required")

    build()
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    cmd = [BINARY, "--work-dir", work, "--seed", str(args.seed)]
    if args.snapshot:
        return snapshot(args, cmd)
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.trace_out:
            cmd += ["--trace-out", args.trace_out]
    code, stdout = run_benchmark(cmd)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
