#!/usr/bin/env python3
"""Alternated parent/change runs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        [--workload W2 ...] --pairs N --seed0 S --out BENCH_<n>.json

DIR is the root of a source tree with ``bench/run.py`` and ``src/`` (for
example a ``git archive`` of a commit unpacked into a scratch directory).
Both trees are compiled with ``compileall`` first, so the two sides start
from the same bytecode state.  Pair i runs every workload on seed S + i,
once per tree, with the parent first on even i and the change first on odd
i; the run length is ``run_seconds`` from the change tree's
``BENCHMARK.json``, whose ``end_to_end`` list names the gated metrics.

The file holds each run's gated metrics, the ungated ``op_p50_s``,
``op_tail_s`` and ``ops_per_s`` it prints, the mean of the reference loop
that ``op_cost_ref`` divides by (``reference_mean_s``, read from its report
line), and its operation counts; and per workload and metric each side's
median and quartiles and the pairs the change wins (ties count for
neither).  After the pairs, each tree runs every workload ``TRACED_RUNS``
= 3 more times with ``--trace 1``, run k on seed S + k with the parent
first on even k; ``workloads[W]["traced"][side]`` keeps the runs and each
per-layer metric's median and quartiles over them.  Under ``machine`` it
records, once per tree and read by a child process of the interpreter that
runs it, what the last bits of a float result depend on besides the source:
numpy's version, the CPU baseline, dispatch targets and enabled features
of its build, its BLAS, and the environment variables that steer those.
It is rewritten after every pair and every traced run, so an interrupted
run keeps what it finished.  Last, it prints one line per workload and
gated metric, read back from the file it wrote: the parent's median
[q1, q3], the change's, and the pairs the change wins; then one line per
traced per-layer metric whose median moved by more than 10 % between the
two sides and whose quartile ranges do not overlap.  Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
# Printed by bench/run.py beside the gated metrics and summarized as a check
# on them; not gated.
REPORTED = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "op_p50_s", "unit": "s", "better": "lower"},
    {"name": "op_tail_s", "unit": "s", "better": "lower"},
    # the reference loop runs in a thread beside the operations, so its mean
    # moves with their GIL use as well as with machine speed
    {"name": "reference_mean_s", "unit": "s", "better": "lower"},
]
# Run by the benchmark's interpreter in a tree's root, so that this tool
# itself imports no numpy; prints one JSON object.
MACHINE_PROBE = """
import json, os, numpy
from numpy._core import _multiarray_umath as umath
print(json.dumps({
    "numpy": numpy.__version__,
    "cpu_baseline": umath.__cpu_baseline__,
    "cpu_dispatch": umath.__cpu_dispatch__,
    "cpu_features": [name for name, on in umath.__cpu_features__.items() if on],
    "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
    "env": {k: os.environ.get(k) for k in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")},
}))
"""
# Traced runs per tree and workload: the fewest that give quartiles.
TRACED_RUNS = 3
# A traced per-layer metric is printed when change/parent - 1 of its medians
# exceeds this in size and the two sides' quartile ranges are apart.
TRACED_MOVE = 0.10
# op_cost_ref's report line: "... the mean of N reference loops (X s) timed while the operations ran"
REFERENCE_MEAN = re.compile(r"^op_cost_ref\s.*\(([^ ]+) s\) timed while the operations ran")


def compile_tree(root: str) -> dict:
    """Byte-compile src/ and bench/ of a tree; the state both sides run in."""
    ok = all(compileall.compile_dir(os.path.join(root, d), quiet=1) for d in ("src", "bench"))
    if not ok:
        raise SystemExit(f"compileall failed under {root}")
    pyc = sum(name.endswith(".pyc") for _, _, names in os.walk(root) for name in names)
    return {"compiled": True, "cache_tag": sys.implementation.cache_tag, "pyc_files": pyc}


def machine(root: str) -> dict:
    """numpy's build, dispatch and BLAS as the benchmark sees them in a tree."""
    proc = subprocess.run([sys.executable, "-c", MACHINE_PROBE], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"machine probe in {root} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bench(root: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # a traced run reports per-layer metrics only, and no reference loop
        return result
    # the ungated metrics appear only in the report, one "name value unit ..." line each
    reported = {m["name"] for m in REPORTED}
    result["metrics"].update((words[0], float(words[1])) for words in map(str.split, lines)
                             if len(words) > 1 and words[0] in reported)
    means = [float(m.group(1)) for m in map(REFERENCE_MEAN.match, lines) if m]
    if len(means) != 1:
        raise SystemExit(f"{' '.join(cmd)} in {root}: no reference-loop mean on the op_cost_ref line")
    result["metrics"]["reference_mean_s"] = means[0]
    result["env"] = next((line[2:] for line in lines if line.startswith("# python=")), None)
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: quartiles(values[side]) for side in SIDES},
            "change_wins": wins,
            "pairs": len(pairs),
            "gated": metric not in REPORTED,
        }
    return out


def summarize_traced(runs: list[dict]) -> dict:
    """Median and quartiles of each per-layer metric that every run reports."""
    names = set.intersection(*(set(r["metrics"]) for r in runs))
    return {name: quartiles([r["metrics"][name] for r in runs]) for name in sorted(names)
            if all(r["metrics"][name] is not None for r in runs)}


def write(record: dict, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent tree")
    ap.add_argument("--change", required=True, help="root of the changed tree")
    ap.add_argument("--workload", required=True, action="append", help="a workload of bench/run.py; repeatable")
    ap.add_argument("--pairs", type=int, required=True, help="pairs of runs per workload, at least 2")
    ap.add_argument("--seed0", type=int, required=True, help="seed of pair 0; pair i runs seed0 + i")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    roots = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds, gated = benchmark["run_seconds"], benchmark["end_to_end"]

    record = {
        "bytecode": {side: compile_tree(root) for side, root in roots.items()},
        "machine": {side: machine(root) for side, root in roots.items()},
        "run_seconds": seconds,
        "seed0": args.seed0,
        "quartile_method": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {w: {"pairs": [], "summary": {}} for w in args.workload},
    }
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            pair = {"seed": args.seed0 + i, "first": order[0]}
            for side in order:
                start = time.monotonic()
                pair[side] = run_bench(roots[side], workload, args.seed0 + i, seconds)
                pair[side]["wall_s"] = time.monotonic() - start
            entry = record["workloads"][workload]
            entry["pairs"].append(pair)
            if len(entry["pairs"]) >= 2:
                entry["summary"] = summarize(entry["pairs"], gated + REPORTED)
            summary = entry["summary"].get("op_cost_ref")
            print(f"pair {i} {workload}: op_cost_ref parent {pair['parent']['metrics']['op_cost_ref']:.4g} "
                  f"change {pair['change']['metrics']['op_cost_ref']:.4g}"
                  + (f"; change wins {summary['change_wins']} of {summary['pairs']}" if summary else ""),
                  flush=True)
        write(record, args.out)
    for workload in args.workload:
        record["workloads"][workload]["traced"] = {side: {"runs": [], "summary": {}} for side in SIDES}
    for k in range(TRACED_RUNS):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            traced = record["workloads"][workload]["traced"]
            for side in order:
                traced[side]["runs"].append(run_bench(roots[side], workload, args.seed0 + k, seconds, trace=1))
                if len(traced[side]["runs"]) >= 2:
                    traced[side]["summary"] = summarize_traced(traced[side]["runs"])
            print(f"traced {workload}: seed {args.seed0 + k}, {order[0]} first", flush=True)
            write(record, args.out)
    with open(args.out, encoding="utf-8") as fh:
        written = json.load(fh)
    for workload, entry in written["workloads"].items():
        for name, s in entry["summary"].items():
            if s["gated"]:
                p, c = s["parent"], s["change"]
                print(f"{workload} {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
                      f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {s['unit']}; "
                      f"change wins {s['change_wins']} of {s['pairs']}")
    units = {m["name"]: m["unit"] for m in benchmark.get("per_layer", [])}
    for workload, entry in written["workloads"].items():
        traced = entry.get("traced", {})
        if set(traced) != set(SIDES):
            continue
        before, after = traced["parent"]["summary"], traced["change"]["summary"]
        for name in sorted(set(before) & set(after)):
            p, c = before[name], after[name]
            apart = c["q1"] > p["q3"] or c["q3"] < p["q1"]
            if p["median"] and apart and abs(c["median"] / p["median"] - 1.0) > TRACED_MOVE:
                print(f"{workload} traced {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
                      f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {units.get(name, '')} "
                      f"({c['median'] / p['median'] - 1.0:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
