"""Bracketed scalar root finding: Brent's method.

All transcendental characteristic equations in the package are solved through
these helpers.  The contract is deliberately conservative: a root is only
reported from a sign-change bracket, and every iterate stays inside it.

Brent's iteration is written once, as a coroutine (``zeroin``) that yields the
points it needs and is sent their values.  ``refine_root`` drives one with a
scalar function; ``lockstep`` drives many together, so that a caller with a
batched function (``sturm.eigen_solve``) evaluates every pending point of
every coroutine in one call per round.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Generator, Iterator, Sequence

__all__ = ["refine_root", "scan_brackets", "nth_root_from_scan"]

# The length of a sign-change scan, in steps.
_MAX_STEPS = 2_000_000
# Brent iterations before refine_root returns its best bracket end.
_MAX_ITER = 200


def zeroin(a: float, b: float, ftol: float) -> Generator[tuple, list, float]:
    """Brent's zeroin on the sign-change bracket [a, b] as a coroutine of
    lockstep's protocol: it yields (a, b) and then one point per iteration,
    and returns the root that refine_root documents."""
    fa, fb = yield a, b
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError(f"no sign change on bracket [{a}, {b}]: f={fa}, {fb}")
    # b is the best estimate, c the other end of the bracket, a the previous b
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol = 2.0 * math.ulp(max(abs(b), abs(c), 1.0))
        half = 0.5 * (c - b)
        width = abs(c - b)
        if fb == 0.0 or abs(half) <= tol or abs(fb) <= ftol and width <= 1e-9 * max(1.0, abs(b)):
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * half * s
                q = 1.0 - s
            else:  # inverse quadratic through (a, fa), (b, fb), (c, fc)
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        (fb,) = yield (b,)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b if abs(fb) <= abs(fc) else c


def refine_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    ftol: float = 1e-10,
) -> float:
    """Root of f in the sign-change bracket [a, b].

    Brent's zeroin (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4): inverse quadratic or secant steps while they stay inside
    the bracket and at least halve the step before last, bisection
    otherwise.  Stops when |f| <= ftol on a bracket narrower than
    1e-9 * max(1, |x|), or when the bracket collapses to floating-point
    resolution.  Returns the bracket end with the smaller |f|, so the result
    lies in [a, b].  f is called once per point, f(a) first, then f(b).
    """
    brent = zeroin(a, b, ftol)
    points = next(brent)
    while True:
        try:
            points = brent.send([f(x) for x in points])
        except StopIteration as stop:
            return stop.value


def lockstep(coroutines: Sequence[Generator], evaluate: Callable[[list], Sequence]) -> list:
    """Results of the coroutines, driven together.  Each coroutine yields a
    tuple of points, is sent the list of their values in the same order, and
    returns its result.  Each round computes the values of every point that
    the live coroutines yielded by one call of evaluate on the list of those
    points (coroutines in order).  A coroutine that raises an Exception
    stops there, and the exception is its result; the others go on.  A
    coroutine's path is the one it takes alone when evaluate gives each
    point the value that a scalar function does."""
    results: list = [None] * len(coroutines)
    replies: dict = dict.fromkeys(range(len(coroutines)))
    while replies:
        asks = {}
        for i, reply in replies.items():
            try:
                asks[i] = coroutines[i].send(reply)
            except StopIteration as done:
                results[i] = done.value
            except Exception as error:
                results[i] = error
        if not asks:
            break
        values = evaluate([x for points in asks.values() for x in points])
        replies, start = {}, 0
        for i, points in asks.items():
            replies[i] = values[start : start + len(points)]
            start += len(points)
    return results


def scan_brackets(f: Callable[[float], float], start: float, step: float) -> Iterator[tuple[float, float]]:
    """Yield consecutive sign-change brackets of f walking right from start,
    for at most _MAX_STEPS steps."""
    x0 = start
    f0 = f(x0)
    for _ in range(_MAX_STEPS):
        x1 = x0 + step
        f1 = f(x1)
        if f0 == 0.0:
            # Nudge off an exact zero so the bracket logic stays simple.
            x0n = x0 + 1e-13 * max(1.0, abs(x0))
            f0 = f(x0n)
            x0 = x0n
        if f0 * f1 < 0.0:
            yield (x0, x1)
        x0, f0 = x1, f1


def nth_root_from_scan(
    f: Callable[[float], float],
    start: float,
    step: float,
    k: int,
    ftol: float = 1e-12,
) -> float:
    """k-th root of f to the right of start (k >= 1), by scan + refine;
    ValueError if the scan meets fewer than k sign changes in its steps."""
    if k < 1:
        raise ValueError("root index must be >= 1")
    bracket = next(islice(scan_brackets(f, start, step), k - 1, None), None)
    if bracket is None:
        raise ValueError(f"scan from {start} found no sign change for root {k} in {_MAX_STEPS} steps of {step}")
    return refine_root(f, *bracket, ftol=ftol)
