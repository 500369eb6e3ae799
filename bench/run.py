#!/usr/bin/env python3
"""Benchmark of spectralbvp: certified Sturm solves, separable-series
sessions and one-shot CLI calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/``.  This launcher uses the standard library only.  It pins the BLAS
pool to one thread for every process it starts, runs the workload in one
worker process (closed loop, one operation in flight, with set-up probes in
fresh interpreters spread over the run) and prints a report followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sturm_eigen", "series_expand", "cli_oneshot")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 175.0
TAIL_BEYOND = 10
# A seed not used while the benchmark was built, kept for later claims.
HOLDOUT_SEED = 90417
# Gated end-to-end metrics, as listed in BENCHMARK.json.  ops_per_s,
# op_p50_s, op_tail_s and failed_ratio are printed too but not gated: see
# "Why these estimators" in bench/README.md.
END_TO_END = {
    "setup_s": "s",
    "op_cost_ref": "ref",
    "peak_rss_mb": "MB",
}
REPORTED = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s"}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **PIN)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish before the deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; the maximum (percentile 100) when there are ten or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def report_env(env: dict, args) -> None:
    pins = ", ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# python={env['python']} numpy={env['numpy']} blas={env['blas']} nproc={env['nproc']} cpu={env['cpu']!r}")
    print(f"# blas pin: {pins}; commit={git_commit()}")
    print(f"# holdout seed for later claims: {HOLDOUT_SEED} (not used while building the benchmark)")


def end_to_end(args, deadline: float) -> dict:
    res = run_worker(["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", "0"], deadline)
    report_env(res["env"], args)
    times, setup, reference = res["times"], res["setup_times"], res["reference_times"]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": min(setup),
        "op_cost_ref": statistics.fmean(times) / statistics.fmean(reference),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
    }
    warmup = " + one warm-up operation" if args.workload == "series_expand" else ""
    what = {
        "setup_s": f"fastest of {len(setup)} fresh interpreters spread over the run "
                   f"(median {statistics.median(setup):.6g} s): import spectralbvp{warmup}",
        "op_cost_ref": f"mean operation time over the mean of {len(reference)} reference loops "
                       f"({statistics.fmean(reference):.6g} s) timed while the operations ran",
        "ops_per_s": f"{len(times)} operations in {sum(times):.2f} s of timed wall time",
        "peak_rss_mb": "child processes" if args.workload == "cli_oneshot" else "worker process",
        "op_p50_s": f"median of {len(times)} operations",
        "op_tail_s": f"p{tail_pct:.1f} of {len(times)} operations"
                     + (" (ten or fewer: maximum)" if tail_pct == 100.0 else ", ten beyond it"),
    }
    for name, unit in {**END_TO_END, **REPORTED}.items():
        gated = "" if name in END_TO_END else " (reported, not gated)"
        print(f"{name:12s} {metrics[name]:12.6g} {unit:4s} {what[name]}{gated}")
    print(f"{'failed_ratio':12s} {res['failed'] / len(times):12.6g} {'':4s} {res['failed']} of {len(times)} operations"
          " (reported, not gated)")
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": res["failed"] == 0,
        "attempted": len(times),
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def per_layer(args, deadline: float) -> dict:
    res = run_worker(["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", "1"], deadline)
    report_env(res["env"], args)
    traced, plain = res["times"], res["untraced_times"]
    print(f"tracing overhead: op_p50_s {statistics.median(traced):.6g} s traced - "
          f"{statistics.median(plain):.6g} s untraced = {res['metrics']['trace.op_p50_overhead_s']['value']:.6g} s "
          f"over the same {len(plain)} operations, each run both ways back to back")
    for name, m in sorted(res["metrics"].items()):
        calls = res["calls"].get(name)
        print(f"{name:45s} {m['value']:12.6g} {m['unit']:6s} {'' if calls is None else f'{calls} calls'}")
    for name, reason in res["missing"].items():
        print(f"{name:45s} not measured: {reason}")
    for name, note in res["notes"].items():
        print(f"# {name}: {note}")
    print(f"self time per layer over the {len(traced)} traced {args.workload} operations:")
    total = sum(res["self_time_s"].values())
    for layer, secs in sorted(res["self_time_s"].items(), key=lambda kv: -kv[1]):
        print(f"self time {layer:10s} {secs:10.4f} s {100.0 * secs / total:5.1f}%")
    print(f"# spans written to {res['trace_file']}")
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check that perturbed references register as failures")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "spectralbvp", "__init__.py")):
        print(f"error: no spectralbvp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.self_test:
            res = run_worker(["--self-test"], deadline)["self_test"]
            for name, r in res.items():
                print(f"{name}: true references missed {len(r['true_reference_misses'])}; perturbed references: "
                      f"failed_ratio {r['perturbed_failed_ratio']:g}, {r['perturbed_numeric_missed']} of "
                      f"{r['perturbed_numeric_checks']} numeric checks missed -> {'ok' if r['ok'] else 'NOT OK'}")
                for miss in r["true_reference_misses"]:
                    print(f"  {miss}")
            return 0 if all(r["ok"] for r in res.values()) else 1
        if args.workload is None:
            ap.error("--workload is required")
        result = per_layer(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
