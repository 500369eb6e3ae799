"""One set-up sample: a fresh interpreter imports spectralbvp and, for a
workload that has one, runs its warm-up operation.

    python3 bench/setup_probe.py WORKLOAD SEED WARMUP

It prints one JSON object: ``imported_at``, the ``time.perf_counter``
reading (a system-wide monotonic clock) right after the import, so the
process that started it can take the time from spawn to imported, and
``warmup_s``, the wall time of the warm-up operation (0 without one).  The
benchmark's own modules are loaded after ``imported_at``, outside the timed
warm-up, and only when WARMUP is 1, so a probe without a warm-up holds no
more than the package in memory.  The worker starts it with the environment
run.py set.
"""

import time

import spectralbvp  # noqa: F401  (the import being timed)

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    warmup_s = 0.0
    if sys.argv[3] == "1":
        import workloads
        from tracing import NullTracer

        wl = workloads.WORKLOADS[sys.argv[1]]
        inp = wl.inputs(int(sys.argv[2]), 0, "")
        start = time.perf_counter()
        wl.run(inp, NullTracer())
        warmup_s = time.perf_counter() - start
    print(json.dumps({"imported_at": IMPORTED_AT, "warmup_s": warmup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
