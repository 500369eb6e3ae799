"""Numerical integration helpers shared across the package.

Adaptive Simpson is the workhorse for one-dimensional integrals of
evaluation-callable integrands, float- or array-valued: the forced
amplitudes of a modal series are one array integral, sampling their source
once per node.  Non-finite values raise ``ValueError``.  Gauss-Legendre
panels are used where the integrand is smooth and the cost of adaptivity is
not warranted (tensorized quadrature over rectangles, spheres, disks).

Projections of initial data on a family of modes sample the data with
``sample`` once per Gauss rung and reuse the samples for every mode: a
one-dimensional coefficient is ``gauss_sum(data * shape, a, b)``, a
two-dimensional one a weighted contraction of the sampled grid with the
``gauss_rule`` weights.  ``gauss_ladder`` sizes the rules to the data: it
refines a rung at a time up to the solver's cap and stops once two rungs
agree, so smooth data is sampled on a fraction of the cap's grid.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._vec import any_

__all__ = [
    "adaptive_simpson",
    "gauss_legendre_nodes",
    "gauss_rule",
    "gauss_sum",
    "gauss_ladder",
    "sample",
    "fixed_gauss",
    "composite_simpson",
    "cumulative_simpson",
]


def _finite(f, x):
    v = f(x)  # a NaN or inf would defeat the stop test and bisect to full depth
    if not (np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(v)):
        raise ValueError(f"integrand is not finite at x = {x!r}")
    return v


def _simpson_step(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _finite(f, lm)
    frm = _finite(f, rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or not any_(abs(delta) > 15.0 * tol):
        return left + right + delta / 15.0
    return _simpson_step(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1) + _simpson_step(
        f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1
    )


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 48,
) -> float:
    """Integrate f over [a, b] to the requested absolute tolerance.

    Classic adaptive Simpson with Richardson correction; recursion stops when
    the local error estimate is below the (bisected) tolerance budget, for
    every component of an array-valued f.  Non-finite f raises ValueError.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    # Seed with two panels so an unlucky symmetric integrand does not
    # terminate on a spurious zero estimate.
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    fa, flm, fm, frm, fb = (_finite(f, x) for x in (a, lm, m, rm, b))
    whole_l = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    whole_r = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    total = _simpson_step(f, a, fa, m, fm, lm, flm, whole_l, 0.5 * tol, max_depth) + _simpson_step(
        f, m, fm, b, fb, rm, frm, whole_r, 0.5 * tol, max_depth
    )
    return sign * total


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Newton steps on P_n from the starting guesses of _legendre_rule: a guess is
# off by at most 1e-2 (n = 2), and the fourth step moves no node by more than
# 2e-15 at any n up to 400, so four steps end below rounding.
_NEWTON_STEPS = 4


def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], cached."""
    got = _GL_CACHE.get(n)
    if got is None:
        got = _GL_CACHE[n] = _legendre_rule(n)
    return got


def _legendre_and_derivative(n: int, x: np.ndarray):
    """P_n(x) by the three-term recurrence, and P_n'(x) = n (P_{n-1} - x P_n)
    / ((1 - x)(1 + x)) for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The positive roots of P_n by a fixed number of Newton steps from
    cos(pi (k - 1/4)/(n + 1/2)), k = 1 .. n//2, the root 0 for odd n, and
    the weights 2/((1 - x)(1 + x) P_n'(x)^2), mirrored into the whole rule:
    O(n^2) work, every node and weight good to a few ulp."""
    if n < 1:
        raise ValueError("a Gauss rule needs at least one node")
    x = np.cos(np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre_and_derivative(n, x)
        x = x - p / dp
    if n % 2:
        x = np.append(x, 0.0)
    dp = _legendre_and_derivative(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    half = n // 2
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


def gauss_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule scaled to [a, b]."""
    x, w = gauss_legendre_nodes(n)
    half = 0.5 * (b - a)
    return 0.5 * (b + a) + half * x, half * w


def gauss_sum(values: np.ndarray, a: float, b: float) -> float:
    """Integral over [a, b] of a function given by its values at the nodes of
    ``gauss_rule(a, b, len(values))``."""
    _, w = gauss_legendre_nodes(len(values))
    return 0.5 * (b - a) * float(np.dot(w, values))


def sample(f, *axes: np.ndarray) -> np.ndarray:
    """Values of f on the tensor grid of the given node arrays.

    One vectorised call on the ``ij``-indexed mesh is tried first; if it
    raises ``TypeError``/``ValueError`` or returns anything but one value per
    grid point (a scalar-only or constant-returning callable), f is called
    once per point with Python floats instead.
    """
    grids = np.meshgrid(*axes, indexing="ij") if len(axes) > 1 else list(axes)
    shape = grids[0].shape
    try:
        vals = np.asarray(f(*grids), dtype=float)
        if vals.shape == shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array(list(map(f, *(g.ravel().tolist() for g in grids))), dtype=float).reshape(shape)


# Rungs of gauss_ladder as divisors of the cap, coarsest first: every axis is
# halved together, and the last rung is the cap itself.
_RUNG_DIVISORS = (8, 4, 2, 1)
# Two rungs agree when no coefficient moves by more than this fraction of the
# largest |coefficient|.
_RUNG_AGREEMENT = 1e-12


def gauss_ladder(coeffs: Callable, cap, modes):
    """Coefficients from the first Gauss rung that reproduces the rung before
    it, and an estimate of their quadrature error.

    ``coeffs(sizes)`` projects the data on Gauss rules of the given sizes,
    one per axis: an int when ``cap`` is an int, a tuple shaped like ``cap``
    otherwise.  The rungs are cap/8, cap/4, cap/2 and cap, every axis halved
    together; a rung with fewer nodes on an axis than twice that axis's mode
    count (``modes``, shaped like ``cap``) is skipped, the cap never.  The
    first rung whose coefficients agree with the previous rung's to
    ``_RUNG_AGREEMENT`` of its largest |coefficient| is returned, else the
    cap's, which is the fixed-grid projection bit for bit.

    The estimate is the largest difference between the last two rungs
    compared, relative to the largest |coefficient| of the later one; NaN
    when only the cap ran.
    """
    one = isinstance(cap, int)
    caps, floors = ((cap,), (modes,)) if one else (tuple(cap), tuple(modes))
    rungs = [tuple(c // d for c in caps) for d in _RUNG_DIVISORS]
    rungs = [s for s in rungs[:-1] if all(n >= 2 * m for n, m in zip(s, floors))] + rungs[-1:]
    prev, estimate = None, math.nan
    for sizes in rungs:
        cur = np.asarray(coeffs(sizes[0] if one else sizes), dtype=float)
        if prev is not None:
            diff = float(np.max(np.abs(cur - prev), initial=0.0))
            scale = float(np.max(np.abs(cur), initial=0.0))
            estimate = 0.0 if diff == 0.0 else diff / scale if scale else math.inf
            if diff <= _RUNG_AGREEMENT * scale:
                break
        prev = cur
    return cur, estimate


def fixed_gauss(f, a: float, b: float, n: int = 64) -> float:
    """n-point Gauss-Legendre integral of a scalar or vectorized callable."""
    x, _ = gauss_rule(a, b, n)
    return gauss_sum(sample(f, x), a, b)


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Simpson rule over uniformly sampled values (odd count required)."""
    n = len(values) - 1
    if n % 2 != 0:
        raise ValueError("composite_simpson needs an even number of intervals")
    s = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    return float(s * h / 3.0)


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral at every grid node of uniformly sampled values.

    Interior odd nodes are filled with the three-point Newton-Cotes split so
    the result is O(h^4) accurate at every node, not only the even ones.
    """
    n = len(values)
    out = np.zeros(n)
    if n == 1:
        return out
    v = np.asarray(values, dtype=float)
    # Pairwise Simpson increments over [x_{2k}, x_{2k+2}].
    out[2::2] = np.cumsum(h / 3.0 * (v[0:-2:2] + 4.0 * v[1:-1:2] + v[2::2]))
    # Odd nodes: integrate over [x_{i-1}, x_i] with the quadratic through
    # (i-1, i, i+1) when available, else through (i-2, i-1, i).
    m = (n - 1) // 2  # odd nodes with a right neighbour
    out[1 : 2 * m : 2] = out[0 : 2 * m - 1 : 2] + h / 12.0 * (
        5.0 * v[0 : 2 * m - 1 : 2] + 8.0 * v[1 : 2 * m : 2] - v[2 : 2 * m + 1 : 2]
    )
    if n % 2 == 0:
        out[n - 1] = out[n - 2] + h / 12.0 * (-v[n - 3] + 8.0 * v[n - 2] + 5.0 * v[n - 1])
    return out


def erfcx(z: float) -> float:
    """Scaled complementary error function exp(z^2) * erfc(z) for z >= 0."""
    if z < 0.0:
        return 2.0 * math.exp(z * z) - erfcx(-z)
    if z < 25.0:
        return math.exp(z * z) * math.erfc(z)
    # Asymptotic series; first omitted term is far below double precision here.
    inv2 = 1.0 / (2.0 * z * z)
    series = 1.0 - inv2 * (1.0 - 3.0 * inv2 * (1.0 - 5.0 * inv2))
    return series / (z * math.sqrt(math.pi))
