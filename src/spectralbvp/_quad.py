"""Numerical integration helpers shared across the package.

Adaptive Simpson is the workhorse for one-dimensional integrals of
evaluation-callable integrands, float- or array-valued: the forced
amplitudes of a modal series are one array integral, sampling their source
once per node.  Non-finite values raise ``ValueError``.  Gauss-Legendre
panels are used where the integrand is smooth and the cost of adaptivity is
not warranted (tensorized quadrature over rectangles, spheres, disks).

Projections of initial data on a family of modes sample the data with
``sample`` (``sample_rows`` for several data, zeros for absent ones) once
per Gauss rung and reuse the samples for every mode: each coefficient is a
contraction of the modes, the ``gauss_rule`` weights and the samples.
``gauss_ladder`` sizes the rules to the data: a rung hands it that
contraction and its operands, and it refines a rung at a time up to the
solver's cap and stops once two rungs agree on the scale of the summands,
which it forms from the same operands; so smooth data is sampled on a
fraction of the cap's grid.  Every integral of a user callable against
modes, the Sturm coefficients and Rayleigh quotients included, takes that
path.  A separable solver's rung takes its modes from ``mode_table``: the
family on the reference interval [0, 1] (or [-1, 1]) at the rung's Gauss
nodes, which depends only on integers (the family's order or end kinds,
its mode count, the rung size), evaluated once per process and kept in one
cache whose retained bytes ``_TABLE_BYTES`` bounds; the physical scale
(1/R, 1/sqrt(l), ...) is a positive factor on the rung's weights.
``composite_simpson`` and ``cumulative_simpson`` serve data that
already sits on a uniform grid: the Sturm norm constants over stored node
values, and the Picard cross-check.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from functools import cache
from typing import Callable

from ._vec import any_, is_array, np

__all__ = [
    "adaptive_simpson",
    "gauss_legendre_nodes",
    "mode_table",
    "cached",
    "gauss_rule",
    "gauss_sum",
    "gauss_ladder",
    "sample",
    "sample_rows",
    "fixed_gauss",
    "composite_simpson",
    "cumulative_simpson",
]


def _finite(f, x):
    v = f(x)  # a NaN or inf would defeat the stop test and bisect to full depth
    if not (np.isfinite(v).all() if is_array(v) else math.isfinite(v)):
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


# Bisections below a seed panel after which its estimate stands, whatever its error.
_MAX_DEPTH = 48


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
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
    total = _simpson_step(f, a, fa, m, fm, lm, flm, whole_l, 0.5 * tol, _MAX_DEPTH) + _simpson_step(
        f, m, fm, b, fb, rm, frm, whole_r, 0.5 * tol, _MAX_DEPTH
    )
    return sign * total


# Newton steps on P_n from the starting guesses of _legendre_rule: a guess is
# off by at most 1e-2 (n = 2), and the fourth step moves no node by more than
# 2e-15 at any n up to 400, so four steps end below rounding.
_NEWTON_STEPS = 4


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


@cache
def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], cached."""
    return _legendre_rule(n)


# Bytes of arrays that ``cached`` keeps, least recently used evicted first;
# bounded in bytes, not entries, since one 2000-mode table on the 256-point
# rule alone is 4 MB.  An array larger than this is returned, not kept.
_TABLE_BYTES = 16 * 2**20


class _ArrayCache:
    """Read-only arrays by key, at most ``_TABLE_BYTES`` of them in all."""

    def __init__(self):
        self._arrays: OrderedDict = OrderedDict()
        self.nbytes = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._arrays)

    def get(self, key, make: Callable):
        with self._lock:
            kept = self._arrays.get(key)
            if kept is not None:
                self._arrays.move_to_end(key)
                return kept
        # made outside the lock: make may itself read the cache
        value = make()
        value.setflags(write=False)
        with self._lock:
            if key not in self._arrays and value.nbytes <= _TABLE_BYTES:
                self._arrays[key] = value
                self.nbytes += value.nbytes
                while self.nbytes > _TABLE_BYTES:
                    self.nbytes -= self._arrays.popitem(last=False)[1].nbytes
        return value


_TABLES = _ArrayCache()


def cached(make: Callable, *key):
    """``make(*key)``, an array, evaluated once per process while it stays
    in the cache and returned read-only.  ``key`` holds integers and enums,
    never a float: whatever depends on a length, radius or Robin constant
    is computed outside."""
    return _TABLES.get((make, key), lambda: make(*key))


def _at_gauss_nodes(family: Callable, key: tuple, n: int, lo: int):
    x = gauss_legendre_nodes(n)[0]
    return family(*key, x if lo == -1 else 0.5 + 0.5 * x)


def mode_table(family: Callable, key: tuple, n: int, lo: int = 0):
    """``family(*key, x)`` at the nodes x of the n-point Gauss rule on
    [lo, 1], lo = 0 or -1 (the nodes of ``gauss_rule(lo, 1, n)`` bit for
    bit), through ``cached``: a mode family on the reference interval,
    one row per node."""
    return cached(_at_gauss_nodes, family, key, n, lo)


def gauss_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule scaled to [a, b]."""
    x, w = gauss_legendre_nodes(n)
    half = 0.5 * (b - a)
    return 0.5 * (b + a) + half * x, half * w


def gauss_sum(values: np.ndarray, a: float, b: float) -> float:
    """Integral over [a, b] of a function given by its values at the nodes of
    ``gauss_rule(a, b, len(values))``."""
    _, w = gauss_legendre_nodes(len(values))
    return 0.5 * (b - a) * float(np.einsum("n,n->", w, values))


def sample(f, *axes: np.ndarray) -> np.ndarray:
    """Values of f on the tensor grid of the given node arrays.

    One vectorised call on the ``ij``-indexed mesh is tried first; if it
    raises ``TypeError``/``ValueError`` or returns anything but one value per
    grid point (a scalar-only or constant-returning callable), f is called
    once per point with Python floats instead.  A NaN or inf value raises
    ``ValueError`` naming the first such point.
    """
    grids = np.meshgrid(*axes, indexing="ij") if len(axes) > 1 else list(axes)
    shape = grids[0].shape
    try:
        vals = np.asarray(f(*grids), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != shape:
        vals = np.array(list(map(f, *(g.ravel().tolist() for g in grids))), dtype=float).reshape(shape)
    finite = np.isfinite(vals)
    if not finite.all():
        point = tuple(float(g.flat[finite.argmin()]) for g in grids)
        raise ValueError(f"sampled function is not finite at x = {point[0] if len(point) == 1 else point!r}")
    return vals


def sample_rows(fs, x: np.ndarray) -> np.ndarray:
    """One row of ``sample(f, x)`` per f in fs, a row of zeros for None."""
    return np.array([np.zeros(len(x)) if f is None else sample(f, x) for f in fs])


# Rungs of gauss_ladder as divisors of the cap, coarsest first: every axis is
# halved together, and the last rung is the cap itself.
_RUNG_DIVISORS = (8, 4, 2, 1)
# Two rungs agree when no coefficient moves by more than this fraction of the
# largest sum of absolute summands of a coefficient.
_RUNG_AGREEMENT = 1e-12


def gauss_ladder(rung: Callable, cap, modes):
    """Coefficients from the first Gauss rung that reproduces the rung before
    it, and an estimate of their quadrature error.

    ``rung(sizes)`` samples the data on Gauss rules of the given sizes, one
    per axis (an int when ``cap`` is an int, a tuple shaped like ``cap``
    otherwise), and returns ``(contract, operands)``: the coefficients are
    ``contract(*operands)``.  Every operand enters the contraction linearly
    and every factor outside them is positive, so ``contract`` of the
    operands' absolute values gives, shaped like the coefficients, the sum of
    the absolute summands of each, the scale of its rounding error.  The
    ladder forms that scale only for a rung it compares with the one before,
    never for the first.  The rungs are cap/8, cap/4, cap/2 and cap, every
    axis halved together; a rung with fewer nodes on an axis than twice that
    axis's mode count (``modes``, shaped like ``cap``) is skipped, the cap
    never.  The first rung whose coefficients agree with the previous rung's
    to ``_RUNG_AGREEMENT`` of its largest summand scale is returned, else the
    cap's, which is the fixed-grid projection bit for bit.  A solver's rung
    takes its modes from ``mode_table``, evaluated on the reference interval
    once per process and rung size (the cache keeps at most
    ``_TABLE_BYTES``), and puts the positive physical scale (1/R,
    1/sqrt(l), ...) on its weights; it samples the data at the physical
    nodes.  Data orthogonal
    to every mode has coefficients of rounding noise, which agree on that
    scale although not relative to each other.

    The estimate is the largest difference between the last two rungs
    compared, relative to the largest summand scale of the later one; NaN
    when only the cap ran.
    """
    one = isinstance(cap, int)
    caps, floors = ((cap,), (modes,)) if one else (tuple(cap), tuple(modes))
    rungs = [tuple(c // d for c in caps) for d in _RUNG_DIVISORS]
    rungs = [s for s in rungs[:-1] if all(n >= 2 * m for n, m in zip(s, floors))] + rungs[-1:]
    prev, estimate = None, math.nan
    for sizes in rungs:
        contract, operands = rung(sizes[0] if one else sizes)
        cur = np.asarray(contract(*operands), dtype=float)
        if prev is not None:
            diff = float(np.max(np.abs(cur - prev), initial=0.0))
            scale = float(np.max(contract(*map(np.abs, operands)), initial=0.0))
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
