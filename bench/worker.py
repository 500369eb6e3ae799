"""Runs one workload in the process the launcher started with the BLAS pool
pinned, and prints its result as one JSON object on the last stdout line.

Modes:
  --trace 0       timed operations for --seconds, untraced, with reference
                  loops timed in a background thread while they run and
                  set-up probes (setup_probe.py) spread evenly between them
  --trace 1       each operation untraced and traced, back to back, for
                  --seconds in all, then one traced pass over every other
                  layer
  --self-test     check each workload's first operation against true and
                  perturbed references

Start it through run.py, which sets the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import numpy as np

import layers
import probes
import workloads
from tracing import NullTracer, Tracer

ROOT = os.path.dirname(workloads.BENCH_DIR)
SELF_TEST_PERTURB = 1e-3
SETUP_PROBES = 10
REFERENCE_INTERVAL_S = 0.05
MAX_FAILURE_REPORTS = 5


def first_index(wl) -> int:
    """Operation 0 is the warm-up of a workload that has one."""
    return 1 if wl.warmup else 0


def one_op(wl, seed: int, i: int, tr, workdir: str, *checkers) -> float:
    """Run operation i and check it with each checker; return its wall
    time.  An operation that raises misses on every checker."""
    inp = wl.inputs(seed, i, workdir)
    tr.op_id = f"{wl.name}/{i}"
    start = time.perf_counter()
    try:
        with tr.span(f"op.{wl.name}", layer="bench"):
            out = wl.run(inp, tr)
    except Exception:
        elapsed = time.perf_counter() - start
        for chk in checkers:
            chk.misses.append(f"raised:\n{traceback.format_exc()}")
        return elapsed
    elapsed = time.perf_counter() - start
    if tr.enabled and wl.probe is not None:
        try:
            wl.probe(inp, out, tr)
        except Exception:
            for chk in checkers:
                chk.misses.append(f"probe raised:\n{traceback.format_exc()}")
    for chk in checkers:
        try:
            wl.check(inp, out, chk)
        except Exception:
            chk.misses.append(f"check raised:\n{traceback.format_exc()}")
    return elapsed


def layer_pass_indices(wl) -> range:
    """One operation, or one per registered kind for cli_oneshot."""
    n_ops = len(workloads.KINDS) if wl.name == "cli_oneshot" else 1
    return range(first_index(wl), first_index(wl) + n_ops)


class Run:
    """Operation times and failures of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.reports: list[str] = []

    def record(self, i: int, elapsed: float, chk) -> None:
        self.times.append(elapsed)
        if chk.misses:
            self.failed += 1
            if len(self.reports) < MAX_FAILURE_REPORTS:
                self.reports.extend(f"op {i}: {m}" for m in chk.misses[:3])


def timed_ops(wl, seed: int, tr, workdir: str, run: Run, seconds: float | None = None,
              indices: range | None = None, after_op=None) -> range:
    """Closed loop, one operation in flight: run operations until their
    summed wall time reaches ``seconds``, or exactly ``indices``.
    ``after_op(busy)`` runs after each operation, outside its time."""
    i = first_index(wl) if indices is None else indices.start
    start_i, busy = i, 0.0
    while (busy < seconds) if indices is None else (i < indices.stop):
        chk = workloads.Checker()
        elapsed = one_op(wl, seed, i, tr, workdir, chk)
        run.record(i, elapsed, chk)
        busy += elapsed
        i += 1
        if after_op is not None:
            after_op(busy)
    return range(start_i, i)


def warm_up(wl, seed: int, workdir: str) -> None:
    if wl.warmup:
        one_op(wl, seed, 0, NullTracer(), workdir)


def setup_probe(wl, seed: int) -> float:
    """Wall time for a fresh interpreter to import spectralbvp, from spawn,
    plus its warm-up operation."""
    cmd = [sys.executable, os.path.join(workloads.BENCH_DIR, "setup_probe.py"), wl.name, str(seed),
           str(int(wl.warmup))]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    return res["imported_at"] - start + res["warmup_s"]


_REFERENCE_VALUES = [j * 1e-3 for j in range(4000)]


def reference_loop() -> float:
    """Wall time of a fixed piece of pure-Python work (about 0.3 ms).  It
    never changes, so its mean over the samples taken while the operations
    run gauges how fast the machine ran them."""
    start = time.perf_counter()
    acc = 0.0
    for v in _REFERENCE_VALUES:
        acc += math.sin(v) * v + 1.0
    return time.perf_counter() - start


class ReferenceSampler(threading.Thread):
    """Times ``reference_loop`` every REFERENCE_INTERVAL_S while ``active``
    is set.  The machine's speed changes within a single operation, so
    samples taken between operations miss it; samples taken during them,
    in time with them, do not."""

    def __init__(self):
        super().__init__(daemon=True)
        self.active = threading.Event()
        self.stopped = threading.Event()
        self.times: list[float] = []

    def run(self) -> None:
        while not self.stopped.wait(REFERENCE_INTERVAL_S):
            if self.active.is_set():
                self.times.append(reference_loop())


def peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_untraced(wl, seed: int, seconds: float, workdir: str) -> dict:
    warm_up(wl, seed, workdir)
    run, setup, sampler = Run(), [], ReferenceSampler()

    def probes_due(busy: float) -> None:
        # Spread over the run, the probes meet the same machine speeds as
        # the operations do; the reference loops pause for them.
        sampler.active.clear()
        while len(setup) < SETUP_PROBES * min(1.0, busy / seconds):
            setup.append(setup_probe(wl, seed))
        sampler.active.set()

    sampler.start()
    sampler.active.set()
    try:
        timed_ops(wl, seed, NullTracer(), workdir, run, seconds=seconds, after_op=probes_due)
    finally:
        sampler.stopped.set()
        sampler.join()
    return {"times": run.times, "setup_times": setup, "reference_times": sampler.times,
            "attempted": len(run.times), "failed": run.failed, "failures": run.reports}


def run_traced(wl, seed: int, seconds: float, workdir: str) -> dict:
    warm_up(wl, seed, workdir)
    plain, traced = Run(), Run()
    tr = Tracer()
    # Each operation runs untraced and traced back to back, in alternating
    # order, so a drift in machine speed does not read as tracing overhead.
    i, busy = first_index(wl), 0.0
    while busy < seconds / 2.0:
        pair = [(NullTracer(), plain), (tr, traced)]
        for tracer, run in pair if i % 2 == 0 else pair[::-1]:
            chk = workloads.Checker()
            run.record(i, one_op(wl, seed, i, tracer, workdir, chk), chk)
        busy += plain.times[-1]
        i += 1
    overhead = statistics.median(traced.times) - statistics.median(plain.times)
    # One traced operation of every other workload, so every layer metric
    # is measured in every traced run.
    layer_pass = Run()
    for other in workloads.WORKLOADS.values():
        if other is wl:
            continue
        warm_up(other, seed, workdir)
        timed_ops(other, seed, tr, workdir, layer_pass, indices=layer_pass_indices(other))
    tr.op_id = None
    probes.run_probes(seed, tr)
    metrics, calls, missing = layers.compute(tr, overhead)
    trace_file = write_trace(tr, wl.name, seed)
    runs = (plain, traced, layer_pass)
    return {
        "times": traced.times,
        "untraced_times": plain.times,
        "attempted": sum(len(r.times) for r in runs),
        "failed": sum(r.failed for r in runs),
        "failures": [m for r in runs for m in r.reports][:MAX_FAILURE_REPORTS],
        "metrics": {k: {"value": v, "unit": layers.PER_LAYER_UNITS[k]} for k, v in metrics.items()},
        "calls": calls,
        "missing": missing,
        "notes": {**layers.NOTES, **{k: u[1] for k, u in layers.DERIVED.items()}},
        "self_time_s": layers.self_times(tr, wl.name),
        "trace_file": os.path.relpath(trace_file, ROOT),
    }


def write_trace(tr: Tracer, workload: str, seed: int) -> str:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace_{workload}_seed{seed}.json")
    fields = ["span_id", "parent", "op", "name", "layer", "start", "end"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": fields, "spans": tr.spans, "calls": tr.calls}, fh)
    return path


def self_test(workdir: str) -> dict:
    """The operations of a layer pass must meet their true references and
    miss every numeric one once the references are perturbed."""
    results = {}
    for wl in workloads.WORKLOADS.values():
        warm_up(wl, 1, workdir)
        misses, failed, numeric, missed = [], 0, 0, 0
        ops = layer_pass_indices(wl)
        for i in ops:
            true_ref, perturbed = workloads.Checker(), workloads.Checker(SELF_TEST_PERTURB)
            one_op(wl, 1, i, NullTracer(), workdir, true_ref, perturbed)
            misses += [f"op {i}: {m}" for m in true_ref.misses]
            failed += bool(perturbed.misses)
            numeric += perturbed.numeric
            missed += perturbed.numeric_missed
        results[wl.name] = {
            "true_reference_misses": misses,
            "perturbed_failed_ratio": failed / len(ops),
            "perturbed_numeric_missed": missed,
            "perturbed_numeric_checks": numeric,
            "ok": not misses and failed == len(ops) and numeric > 0 and missed == numeric,
        }
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        if args.self_test:
            result = {"self_test": self_test(workdir)}
        else:
            wl = workloads.WORKLOADS[args.workload]
            runner = run_traced if args.trace else run_untraced
            result = runner(wl, args.seed, args.seconds, workdir)
            result["peak_rss_mb"] = peak_rss_mb(wl.children_rss)
            result["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
