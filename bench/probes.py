"""Traced-run-only probes of layers the workloads reach only from inside the
package: scalar special-function calls in each evaluation regime, the two
``fixed_gauss`` paths, and zero tables built cold or found cached.

Each probe is one span over a batch of calls; the batch size is recorded
with ``Tracer.count`` so the per-call time is the span over the count.
"""

from __future__ import annotations

import math

import numpy as np

from spectralbvp import assoc_legendre, bessel_j, bessel_n, legendre, spherical_bessel, zero_table
from spectralbvp._quad import fixed_gauss

CALLS = 2000
GAUSS_REPS = 40
GAUSS_NODES = 128
ZERO_COLD = 8
ZERO_WARM = 2000
ZERO_ROOTS = 8


def _specfun_cases(r: np.random.Generator):
    n = CALLS
    return [
        # power series: orders 0, 1 at x <= 12
        ("specfun.bessel_j.series", bessel_j, zip(r.integers(0, 2, n), r.uniform(0.5, 12.0, n))),
        # Hankel asymptotics: orders 0, 1 beyond x = 12
        ("specfun.bessel_j.hankel", bessel_j, zip(r.integers(0, 2, n), r.uniform(12.5, 60.0, n))),
        # upward recurrence: orders >= 2 at x > max(12, m)
        ("specfun.bessel_j.recurrence", bessel_j, zip(r.integers(2, 7, n), r.uniform(13.0, 60.0, n))),
        ("specfun.bessel_n", bessel_n, zip(r.integers(0, 3, n), r.uniform(0.5, 30.0, n))),
        ("specfun.spherical_bessel", lambda k, x: spherical_bessel("j", k, x),
         zip(r.integers(0, 4, n), r.uniform(0.5, 20.0, n))),
        ("specfun.legendre", lambda k, x: legendre("P", k, x), zip(r.integers(2, 13, n), r.uniform(-1.0, 1.0, n))),
        ("specfun.assoc_legendre", assoc_legendre,
         ((k, int(r.integers(1, k + 1)), x) for k, x in zip(r.integers(2, 9, n), r.uniform(-1.0, 1.0, n)))),
    ]


def _scalar_integrand(x):
    return math.exp(-x) * math.cos(3.0 * x) * x  # raises TypeError on arrays


def _vector_integrand(x):
    return np.exp(-x) * np.cos(3.0 * x) * x


def run_probes(seed: int, tr) -> None:
    r = np.random.default_rng([seed, 7])
    for name, fn, args in _specfun_cases(r):
        args = [tuple(float(a) if isinstance(a, np.floating) else int(a) for a in row) for row in args]
        with tr.span(name):
            for row in args:
                fn(*row)
        tr.count(name, len(args))
    for name, f in (("quad.fixed_gauss.scalar", _scalar_integrand), ("quad.fixed_gauss.vector", _vector_integrand)):
        with tr.span(name):
            for _ in range(GAUSS_REPS):
                fixed_gauss(f, 0.0, 2.0, n=GAUSS_NODES)
        tr.count(name, GAUSS_REPS)
    # Robin radial family with fresh parameters: keys no earlier call built.
    for h in r.uniform(0.2, 5.0, ZERO_COLD):
        with tr.span("specfun.zero_table.cold"):
            zero_table("radial_robin", 0, ZERO_ROOTS, param=float(h))
    zero_table("bessel_j", 0, ZERO_ROOTS)
    with tr.span("specfun.zero_table.warm"):
        for _ in range(ZERO_WARM):
            zero_table("bessel_j", 0, ZERO_ROOTS)
    tr.count("specfun.zero_table.warm", ZERO_WARM)
