"""Special functions built from their defining series, recurrences and
large-argument asymptotics: integer-order Bessel and Neumann functions,
spherical Bessel functions, Legendre polynomials and functions of the second
kind, associated Legendre functions, the integral sine, and tables of roots
of the transcendental characteristic equations that accompany them.

Every function of x accepts a float or an ndarray through one code path and
returns a Python float for a float.  Everything here is pure and
deterministic; coefficient tables are built on first use, and they and the
zero tables are immutable once built and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Callable

import numpy as np

from ._quad import adaptive_simpson
from ._rootfind import nth_root_from_scan
from ._vec import any_, as_arg, full, inside, piecewise, where, xp as _xp

__all__ = [
    "SeriesEval",
    "bessel_j",
    "bessel_j_eval",
    "bessel_j_prime",
    "bessel_n",
    "bessel_n_prime",
    "bessel_zero",
    "zero_table",
    "ZeroFamily",
    "ZeroTable",
    "spherical_bessel",
    "spherical_bessel_zero",
    "legendre",
    "assoc_legendre",
    "legendre_norm2",
    "assoc_legendre_norm2",
    "integral_sine",
    "GIBBS_CONSTANT",
]


@dataclass(frozen=True)
class SeriesEval:
    """Value of a series/asymptotic evaluation together with a conservative
    bound on its absolute error (truncation plus rounding of the dominant
    term); argument, value and bound are arrays for an array argument."""

    argument: float
    order: int
    value: float
    abs_error_bound: float

_EULER_GAMMA = 0.5772156649015328606
_EPS = 2.220446049250313e-16
# J_0, J_1, N_0 and N_1 use their power series up to this argument and the
# Hankel asymptotics beyond it; J_m (m >= 2) uses its series up to max(12, m).
_SERIES_X = 12.0


# ----------------------------------------------------------------------
# Bessel functions of integer order
# ----------------------------------------------------------------------
#
# Every function of x below accepts a float or an ndarray (see ``_vec``).
# Each evaluation regime is one kernel ``kernel(x, xp, order)`` in plain
# arithmetic, where ``order`` carries the constants of one order, built on
# first use: the power series and the Hankel amplitudes are Horner sums
# over coefficients rounded once from exact integer ratios, with a term
# count fixed by the largest argument of the regime, and the recurrences
# run over precomputed float factors.  A float and an array element thus go
# through the same operations.

def _floats(start: int, stop: int, step: int = 1) -> tuple[float, ...]:
    return tuple(float(k) for k in range(start, stop, step))


def _horner(coeffs: tuple[float, ...], w):
    """sum_s c_s w^s for coefficients given from the highest power down."""
    p = 0.0
    for c in coeffs:
        p = p * w + c
    return p


def _negligible(term: float, biggest: float, s: int) -> bool:
    """Series cut: a term past the third that has fallen to 1e-17 of the
    largest one is the last one kept."""
    return s > 2 and abs(term) <= 1e-17 * biggest


class _BesselOrder:
    """Constants of J_m and N_m for one order m.

    ``reach`` ends the series regime of J_m.  The series is
    J_m(x) = (x/2)^m/m! * sum_s c_s w^s with w = (x/2)^2 / Y,
    Y = reach^2/4 and c_s = (-Y)^s m!/(s!(s+m)!), cut where its terms at
    w = 1 fall below 1e-17 of the largest.  ``lead`` holds the factors
    1..m of (x/2)^m/m! and ``steps`` the factors 2k of the upward recurrence
    f_{k+1} = (2k/x) f_k - f_{k-1}, k = 1..m-1.
    """

    __slots__ = ("m", "reach", "big_y", "coeffs", "lead", "steps")

    def __init__(self, m: int):
        self.m = m
        reach = max(int(_SERIES_X), m)
        self.reach = float(reach)
        self.big_y = 0.25 * reach * reach
        num, den = 1, 1
        terms = [1.0]
        for s in range(1, 400):
            num *= -reach * reach
            den *= 4 * s * (s + m)
            terms.append(num / den)
            if _negligible(terms[-1], max(map(abs, terms)), s):
                break
        self.coeffs = tuple(reversed(terms))
        self.lead = _floats(1, m + 1)
        self.steps = _floats(2, 2 * m, 2)


_BESSEL_ORDERS: dict[int, _BesselOrder] = {}


def _order(m: int) -> _BesselOrder:
    if m < 0:
        raise ValueError("order must be a non-negative integer")
    got = _BESSEL_ORDERS[m] = _BesselOrder(m)
    return got


def _j_series(x, xp, o: _BesselOrder):
    """Power-series regime, |x| <= max(12, m)."""
    half = 0.5 * x
    lead = 1.0
    for i in o.lead:
        lead *= half / i
    return lead * _horner(o.coeffs, half * half / o.big_y)


_HANKEL: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {}


def _hankel_table(m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients of the Hankel amplitudes (A&S 9.2.9-10) of order m:
    P = sum_k (-1)^k a_2k z^k and Q = t sum_k (-1)^k a_2k+1 z^k with
    t = 1/(8x), z = t^2 and a_j = prod_{i<=j} (4m^2 - (2i-1)^2) / i.

    The series is asymptotic, so it is cut at its smallest term at x = 12,
    where the regime starts; at larger x every kept term is smaller still.
    """
    got = _HANKEL.get(m)
    if got is None:
        num, den = 1, 1
        a = [1.0]
        for j in range(1, 80):
            num *= 4 * m * m - (2 * j - 1) ** 2
            den *= j
            if j > 2 and abs(num / den) >= abs(a[-1]) * 8.0 * _SERIES_X:
                break
            a.append(num / den)
        p = tuple(reversed([(-1.0) ** k * v for k, v in enumerate(a[0::2])]))
        q = tuple(reversed([(-1.0) ** k * v for k, v in enumerate(a[1::2])]))
        got = _HANKEL[m] = (p, q)
    return got


def _hankel(x, xp, m: int):
    """J_m(x) and N_m(x) for m in (0, 1) and x > 12 from the amplitudes:
    sqrt(2/(pi x)) (P cos chi - Q sin chi) and sqrt(2/(pi x)) (P sin chi +
    Q cos chi), chi = x - pi/4 - m pi/2."""
    pc, qc = _HANKEL.get(m) or _hankel_table(m)
    t = 1.0 / (8.0 * x)
    z = t * t
    p = _horner(pc, z)
    q = t * _horner(qc, z)
    chi = x - 0.25 * math.pi - 0.5 * math.pi * m
    amp = xp.sqrt(2.0 / (math.pi * x))
    c, s = xp.cos(chi), xp.sin(chi)
    return amp * (p * c - q * s), amp * (p * s + q * c)


def _upward(f0, f1, x, o: _BesselOrder):
    """Order m from orders 0 and 1 by f_{k+1} = (2k/x) f_k - f_{k-1}."""
    if o.m == 0:
        return f0
    for k2 in o.steps:
        f0, f1 = f1, k2 / x * f1 - f0
    return f1


def _j_hankel(x, xp, o: _BesselOrder):
    """Large-argument regime of J_0 and J_1."""
    return _hankel(x, xp, o.m)[0]


def _j_recurrence(x, xp, o: _BesselOrder):
    """J_m for m >= 2 and x > max(12, m): upward recurrence from the
    asymptotic J_0, J_1, stable because m < x."""
    return _upward(_hankel(x, xp, 0)[0], _hankel(x, xp, 1)[0], x, o)


_J_KERNELS = ((_j_series, _j_hankel), (_j_series, _j_recurrence))


def _finite(x):
    """x as ``as_arg`` returns it; ValueError unless every element is finite
    (the Bessel functions and their derivatives have no value at inf or NaN)."""
    if type(x) is not float:
        x = as_arg(x)
    if not inside(x, -math.inf, math.inf, closed=False):
        raise ValueError("x must be finite")
    return x


def bessel_j(m: int, x):
    """Bessel function J_m(x) for integer order m >= 0 and real x (a float or
    an array).

    Regime selection: the defining power series for |x| <= max(12, m), where
    its float64 cancellation stays below ~1e-10 up to about m = 30 and grows
    to about 1e-8 near x = m = 40; the large-argument asymptotic for orders
    0 and 1 beyond that, and the three-term upward recurrence (stable for
    m < x) for higher orders at large argument.  Non-finite x raises
    ValueError.
    """
    o = _BESSEL_ORDERS.get(m) or _order(m)
    x = _finite(x)
    ax = abs(x)
    v = piecewise(ax, (o.reach,), _J_KERNELS[m > 1], o)
    return where(x < 0.0, -v, v) if m % 2 else v


def _zero_bound(x, xp, o: _BesselOrder):
    return 0.0 * x


def _j_series_bound(ax, xp, o: _BesselOrder):
    """Rounding-dominated error bound of the power series: eps times the
    largest term (truncation is driven far below that)."""
    m = o.m
    half = 0.5 * ax
    term = 1.0
    for i in o.lead:
        term *= half / i
    biggest = term
    y = half * half
    # the terms rise while y > s (s + m), then fall
    for s in range(1, 400):
        term = term * (y / (s * (s + m)))
        rising = term > biggest
        if not any_(rising):
            break
        biggest = where(rising, term, biggest)
    return 4.0 * _EPS * where(biggest > 1.0, biggest, 1.0)


def _j_asymptotic_bound(ax, xp, o: _BesselOrder):
    """The amplitude series, cut at its smallest term at x = 12, leaves an
    error near e^{-2x} (smaller beyond x = 12 than the rounding); the
    eps*(4 + x) piece covers the trig argument reduction of chi, and the
    upward recurrence (applied only while m < x) grows seed errors about
    linearly in the order."""
    amp = xp.sqrt(2.0 / (math.pi * ax))
    base = amp * (xp.exp(-2.0 * ax) + (4.0 + ax) * _EPS)
    return base * (1.0 + o.m)


def bessel_j_eval(m: int, x) -> SeriesEval:
    """J_m(x) together with a conservative absolute-error bound (arrays of
    both for an array x).

    Series regime: eps times the largest (cancelling) term.  Asymptotic
    regime: the first omitted amplitude term plus rounding.  Recurrence
    regime: the seed bounds amplified by the mild upward growth factor.
    """
    x = as_arg(x)
    value = bessel_j(m, x)
    o = _BESSEL_ORDERS.get(m) or _order(m)
    bound = piecewise(abs(x), (0.0, o.reach), (_zero_bound, _j_series_bound, _j_asymptotic_bound), o)
    return SeriesEval(x, m, value, bound)


def bessel_j_prime(m: int, x):
    """Derivative J_m'(x); J_0' = -J_1, otherwise J_m' = (J_{m-1} - J_{m+1})/2,
    which needs no division by x."""
    if m == 0:
        return -bessel_j(1, x)
    if m < 0:
        raise ValueError("order must be a non-negative integer")
    return 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))


@cache
def _n_series_table() -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """(Y, c0, c1) for the logarithmic series of N_0 and its derivative:
    sum_{s>=1} (-1)^s H_s y^s/(s!)^2 = w sum_s c0_s w^s and
    sum_{s>=1} (-1)^s s H_s y^s/(s!)^2 = w sum_s c1_s w^s, with y = (x/2)^2,
    w = y/Y, Y = 36 the largest y of the regime and H_s the harmonic numbers.
    """
    reach = int(_SERIES_X)
    h = Fraction(0)
    fact2 = 1
    c0, c1 = [], []
    for s in range(1, 400):
        h += Fraction(1, s)
        fact2 *= s * s
        num = (-reach * reach) ** s * h.numerator
        den = 4**s * fact2 * h.denominator
        c0.append(num / den)
        c1.append(s * num / den)
        if _negligible(c0[-1], max(map(abs, c0)), s) and _negligible(c1[-1], max(map(abs, c1)), s):
            break
    return 0.25 * reach * reach, tuple(reversed(c0)), tuple(reversed(c1))


def _n_series(x, xp, o: _BesselOrder):
    """N_0 from its logarithmic series and N_1 = -N_0' from the series
    differentiated term by term, 0 < x <= 12, then upward to order m."""
    big_y, c0, c1 = _n_series_table()
    j0 = _j_series(x, xp, _BESSEL_ORDERS.get(0) or _order(0))
    j1 = _j_series(x, xp, _BESSEL_ORDERS.get(1) or _order(1))
    half = 0.5 * x
    w = half * half / big_y
    log_term = xp.log(half) + _EULER_GAMMA
    n0 = 2.0 / math.pi * (j0 * log_term - w * _horner(c0, w))
    dsum = 2.0 / x * (w * _horner(c1, w))
    n1 = -(2.0 / math.pi * (-j1 * log_term + j0 / x - dsum))
    return _upward(n0, n1, x, o)


def _n_hankel(x, xp, o: _BesselOrder):
    return _upward(_hankel(x, xp, 0)[1], _hankel(x, xp, 1)[1], x, o)


def bessel_n(m: int, x):
    """Neumann function N_m(x) for integer m >= 0; requires finite x > 0 (a
    float or an array).

    N_0 comes from its logarithmic series (asymptotic beyond x = 12), N_1
    from the differentiated series, and higher orders from the upward
    recurrence N_{m+1} = -N_{m-1} + (2m/x) N_m, which is stable because N
    is the growing solution.
    """
    o = _BESSEL_ORDERS.get(m) or _order(m)
    x = _finite(x)
    if any_(x <= 0.0):
        raise ValueError("Neumann function requires x > 0 (logarithmic singularity at 0)")
    return piecewise(x, (_SERIES_X,), (_n_series, _n_hankel), o)


def bessel_n_prime(m: int, x):
    """Derivative N_m'(x) via N_0' = -N_1 and the standard relation."""
    if m == 0:
        return -bessel_n(1, x)
    x = as_arg(x)
    return -bessel_n(m + 1, x) + m / x * bessel_n(m, x)


# ----------------------------------------------------------------------
# Zero tables
# ----------------------------------------------------------------------

class ZeroFamily(str, Enum):
    BESSEL_J = "bessel_j"
    BESSEL_J_PRIME = "bessel_j_prime"
    BEAM_CC = "beam_cc"
    BEAM_CF = "beam_cf"
    BEAM_CP = "beam_cp"
    RADIAL_TAN = "radial_tan"
    RADIAL_ROBIN = "radial_robin"


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive roots of a characteristic equation.

    Instances are immutable; request more roots through ``zero_table`` which
    returns a fresh, longer table.  ``param`` carries the real parameter of
    parametrized families (radial_robin), and is None otherwise.
    """

    family: ZeroFamily
    order: int
    roots: tuple[float, ...]
    tol: float = 1e-10
    param: float | None = None

    def root(self, k: int) -> float:
        if k < 1 or k > len(self.roots):
            raise IndexError(f"root index {k} outside table of length {len(self.roots)}")
        return self.roots[k - 1]


def _beam_cc_fn(mu: float) -> float:
    # cosh(mu) cos(mu) = 1, scaled by sech to stay bounded
    return math.cos(mu) - 1.0 / math.cosh(mu)


def _beam_cf_fn(mu: float) -> float:
    # cosh(mu) cos(mu) = -1
    return math.cos(mu) + 1.0 / math.cosh(mu)


def _beam_cp_fn(mu: float) -> float:
    # tan(mu) = tanh(mu), written pole-free and scaled by e^{-mu}
    em = math.exp(-2.0 * mu)
    return math.sin(mu) * (1.0 + em) * 0.5 - math.cos(mu) * (1.0 - em) * 0.5


def _radial_tan_fn(g: float) -> float:
    # tan(g) = g, pole-free form
    return math.sin(g) - g * math.cos(g)


def _characteristic(family: ZeroFamily, order: int, param: float | None) -> Callable[[float], float]:
    if family == ZeroFamily.BESSEL_J:
        return lambda x: bessel_j(order, x)
    if family == ZeroFamily.BESSEL_J_PRIME:
        return lambda x: bessel_j_prime(order, x)
    if family == ZeroFamily.BEAM_CC:
        return _beam_cc_fn
    if family == ZeroFamily.BEAM_CF:
        return _beam_cf_fn
    if family == ZeroFamily.BEAM_CP:
        return _beam_cp_fn
    if family == ZeroFamily.RADIAL_TAN:
        return _radial_tan_fn
    if family == ZeroFamily.RADIAL_ROBIN:
        if param is None:
            raise ValueError("radial_robin family needs the Robin constant h*R as param")
        c = param - 1.0  # equation: g cos g + (hR - 1) sin g = 0
        return lambda g: g * math.cos(g) + c * math.sin(g)
    raise ValueError(f"unknown family {family!r}")


def _scan_start_step(family: ZeroFamily, order: int) -> tuple[float, float]:
    if family == ZeroFamily.BESSEL_J:
        # J_m > 0 on (0, first zero); first zero > m, spacing eventually ~ pi
        return (1e-9 if order == 0 else 0.5 * order), math.pi / 8.0
    if family == ZeroFamily.BESSEL_J_PRIME:
        return max(1e-6, 0.4 * order), math.pi / 8.0
    if family in (ZeroFamily.BEAM_CC, ZeroFamily.BEAM_CF, ZeroFamily.BEAM_CP):
        # cos +- sech and sin*cosh - cos*sinh vanish to high order at 0;
        # start past the degenerate origin
        return 0.3, math.pi / 8.0
    if family in (ZeroFamily.RADIAL_TAN, ZeroFamily.RADIAL_ROBIN):
        return 1e-6, math.pi / 8.0
    raise ValueError(f"unknown family {family!r}")


_ZERO_CACHE: dict[tuple, ZeroTable] = {}


def zero_table(
    family: ZeroFamily | str,
    order: int = 0,
    count: int = 1,
    param: float | None = None,
) -> ZeroTable:
    """First ``count`` positive roots of the requested family, cached.

    Roots are located by a sign-change scan seeded near the origin and
    refined by Brent's method to |f| <= 1e-10 on the scaled characteristic.
    """
    family = ZeroFamily(family)
    key = (family, order, param)
    cached = _ZERO_CACHE.get(key)
    if cached is not None and len(cached.roots) >= count:
        return cached
    f = _characteristic(family, order, param)
    start, step = _scan_start_step(family, order)
    roots: list[float] = list(cached.roots) if cached is not None else []
    scan_from = roots[-1] + 1e-9 if roots else start
    while len(roots) < count:
        roots.append(nth_root_from_scan(f, scan_from, step, 1, ftol=1e-15))
        scan_from = roots[-1] + 0.25 * step
    table = ZeroTable(family=family, order=order, roots=tuple(roots), tol=1e-10, param=param)
    _ZERO_CACHE[key] = table
    return table


def bessel_zero(family: ZeroFamily | str, order: int, k: int, param: float | None = None) -> float:
    """k-th positive root (k >= 1) of the requested characteristic family."""
    if k < 1:
        raise ValueError("root index must be >= 1")
    return zero_table(family, order, k, param=param).root(k)


# ----------------------------------------------------------------------
# Spherical Bessel functions
# ----------------------------------------------------------------------

class _SphOrder:
    """Constants of j_n and y_n for one order n.

    j_n is taken in |x| from 0, the power series on (0, 0.5) for n <= 40,
    the downward recurrence on the rest of (0, n) and the upward recurrence
    on [max(0.5, n), inf): ``edges`` and ``kernels`` in the form of
    ``piecewise``.  ``up`` and ``down`` hold the factors 2k+1 of the two
    recurrences; the downward one starts at k = ``start``.
    """

    __slots__ = ("n", "edges", "kernels", "up", "down", "start", "dfact", "series")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("order must be non-negative")
        self.n = n
        below_half = math.nextafter(0.5, 0.0)
        self.edges = (0.0, below_half, max(below_half, math.nextafter(n, 0.0)))
        small = _sph_j_small if n <= 40 else _sph_j_downward
        self.kernels = (_sph_j_at_zero, small, _sph_j_downward, _sph_j_upward)
        self.up = _floats(3, 2 * n + 1, 2)
        self.start = n + int(2.0 * math.sqrt(max(n, 10))) + 20
        self.down = _floats(2 * self.start + 1, 1, -2)
        # series j_n(x) = x^n/(2n+1)!! * sum_s c_s v^s, v = x^2/2, with
        # c_s = (-1)^s / (s! prod_{i<=s} (2n+2i+1)), cut where its terms at
        # |x| = 0.5 fall below 1e-18
        self.dfact = 1.0
        for i in range(1, 2 * n + 2, 2):
            self.dfact *= i
        den = 1
        coeffs = [1.0]
        for s in range(1, 40):
            den *= -s * (2 * n + 2 * s + 1)
            coeffs.append(1 / den)
            if abs(coeffs[-1]) * 0.125**s < 1e-18:
                break
        self.series = tuple(reversed(coeffs))


_SPH_ORDERS: dict[int, _SphOrder] = {}


def _sph_order(n: int) -> _SphOrder:
    got = _SPH_ORDERS[n] = _SphOrder(n)
    return got


def _sph_j_at_zero(x, xp, o: _SphOrder):
    return (1.0 if o.n == 0 else 0.0) + 0.0 * x


def _sph_j_small(x, xp, o: _SphOrder):
    """Series regime, |x| < 0.5 and n <= 40."""
    lead = 1.0
    for _ in range(o.n):
        lead = lead * x
    return lead / o.dfact * _horner(o.series, 0.5 * x * x)


def _sph_j_downward(x, xp, o: _SphOrder):
    """Downward recurrence normalized by j_0; stable for n > x."""
    # |j| grows by at most 1 + (2k+1)/x per step: watch for overflow only
    # where the growth over the whole run could reach the rescaling level
    guard = any_(o.start * xp.log10(1.0 + o.down[0] / x) > 500.0)
    jp1 = 0.0
    j = 1e-290
    target = 0.0
    at_n = 2.0 * o.n + 3.0
    for c in o.down:  # c = 2k + 1, k = start .. 1
        jp1, j = j, c / x * j - jp1
        if c == at_n:  # j is now the recurred j_n
            target = j
        if guard and any_(abs(j) > 1e250):
            # rescale to avoid overflow
            scale = where(abs(j) > 1e250, 1e-250, 1.0)
            j, jp1, target = j * scale, jp1 * scale, target * scale
    # j now holds the recurred j_0 estimate
    return target * (xp.sin(x) / x) / j


def _sph_j_upward(x, xp, o: _SphOrder):
    """Upward recurrence from the closed forms of j_0 and j_1, for x >= n."""
    s = xp.sin(x)
    j0 = s / x
    if o.n == 0:
        return j0
    jm1, jm = j0, s / (x * x) - xp.cos(x) / x
    for c in o.up:
        jm1, jm = jm, c / x * jm - jm1
    return jm


def _sph_y(x, xp, o: _SphOrder):
    """Upward recurrence from the closed forms of y_0 and y_1 (x > 0).  Where
    y_n < -DBL_MAX it overflows to -inf and then meets inf - inf: that NaN
    reads as -inf, and numpy's warnings about it are off."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = xp.cos(x)
        ym = -c / x
        if o.n:
            ym1, ym = ym, -c / x / x - xp.sin(x) / x
            for k in o.up:
                ym1, ym = ym, k / x * ym - ym1
    return where(ym != ym, -math.inf, ym)


def spherical_bessel(kind: str, n: int, x):
    """Spherical Bessel functions j_n(x) and y_n(x) for integer n >= 0 and x
    a float or an array.

    j_n near 0 (|x| < 0.5, n <= 40) comes from its power series, and
    otherwise from the three-term recurrence: upward from the closed forms
    of j_0, j_1 when x >= n, downward (normalized by j_0) when n > x.  y_n
    always recurs upward from y_0, y_1.  Non-finite x raises ValueError.
    """
    o = _SPH_ORDERS.get(n) or _sph_order(n)
    x = _finite(x)
    ax = abs(x)
    if kind == "j":
        v = piecewise(ax, o.edges, o.kernels, o)
        return where(x < 0.0, -v, v) if n % 2 else v
    if kind == "y":
        if any_(x == 0.0):
            raise ValueError("y_n is singular at x = 0")
        # y_n(-x) = (-1)^{n+1} y_n(x)
        v = _sph_y(ax, _xp(ax), o)
        return v if n % 2 else where(x < 0.0, -v, v)
    raise ValueError("kind must be 'j' or 'y'")


_SPH_ZERO_CACHE: dict[int, list[float]] = {}


def spherical_bessel_zero(n: int, k: int) -> float:
    """k-th positive zero of j_n (equivalently of J_{n+1/2})."""
    if k < 1:
        raise ValueError("root index must be >= 1")
    roots = _SPH_ZERO_CACHE.setdefault(n, [])
    if len(roots) < k:
        f = lambda x: spherical_bessel("j", n, x)
        scan_from = roots[-1] + 1e-9 if roots else max(1e-6, 0.5 * n)
        while len(roots) < k:
            roots.append(nth_root_from_scan(f, scan_from, math.pi / 8.0, 1, ftol=1e-13))
            scan_from = roots[-1] + math.pi / 32.0
    return roots[k - 1]


# ----------------------------------------------------------------------
# Legendre polynomials and relatives
# ----------------------------------------------------------------------

def legendre(kind: str, n: int, x):
    """Legendre polynomial P_n(x) on [-1, 1] or second-kind Q_n(x) on (-1, 1),
    for x a float or an array.

    P uses the three-term recurrence seeded by P_0 = 1, P_1 = x.  Q is
    assembled from Q_0 = (1/2) ln((1+x)/(1-x)) and the finite P-sum
    Q_n = P_n Q_0 - sum_s (2n-4s-1)/((2s+1)(n-s)) P_{n-2s-1}.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if type(x) is not float:
        x = as_arg(x)
    if kind == "P":
        if not inside(x, -1.0, 1.0):
            raise ValueError("P_n evaluated only on [-1, 1]")
        return _legendre_p(n, x)
    if kind == "Q":
        if not inside(x, -1.0, 1.0, closed=False):
            raise ValueError("Q_n diverges logarithmically at |x| = 1")
        q0 = 0.5 * _xp(x).log((1.0 + x) / (1.0 - x))
        if n == 0:
            return q0
        total = _legendre_p(n, x) * q0
        for s in range(0, (n - 1) // 2 + 1):
            total -= (2 * n - 4 * s - 1) / ((2 * s + 1) * (n - s)) * _legendre_p(n - 2 * s - 1, x)
        return total
    raise ValueError("kind must be 'P' or 'Q'")


_LEGENDRE: dict[tuple[int, int], tuple[float, tuple[tuple[float, float, float], ...]]] = {}


def _legendre_table(m: int, n: int) -> tuple[float, tuple[tuple[float, float, float], ...]]:
    """(2m-1)!! and the factors (2k+1, k+m, k-m+1) of the degree recurrence
    P_{k+1}^m = ((2k+1) x P_k^m - (k+m) P_{k-1}^m)/(k-m+1), k = m .. n-1."""
    dfact = 1.0
    for i in range(1, 2 * m, 2):
        dfact *= i
    steps = tuple((float(2 * k + 1), float(k + m), float(k - m + 1)) for k in range(m, n))
    got = _LEGENDRE[m, n] = (dfact, steps)
    return got


def _raise_degree(pk, x, steps):
    """P_n^m from P_m^m = pk (and P_{m-1}^m = 0) by the degree recurrence."""
    pk1 = 0.0
    for a, b, c in steps:
        pk1, pk = pk, (a * x * pk - b * pk1) / c
    return pk


def _legendre_p(n: int, x):
    if n == 0:
        return full(x, 1.0)
    return _raise_degree(1.0, x, (_LEGENDRE.get((0, n)) or _legendre_table(0, n))[1])


def _legendre_columns(n_terms: int, x) -> np.ndarray:
    """P_0 .. P_{n_terms-1} at x (a float or an array on [-1, 1]), degrees
    last: the recurrence of ``legendre`` kept at every degree."""
    x = as_arg(x)
    if not inside(x, -1.0, 1.0):
        raise ValueError("P_n evaluated only on [-1, 1]")
    cols = [full(x, 1.0), x][:n_terms]
    for k in range(1, n_terms - 1):
        cols.append(((2 * k + 1) * x * cols[k] - k * cols[k - 1]) / (k + 1))
    return np.stack(cols, axis=-1)


def legendre_norm2(n: int) -> float:
    """Squared L2 norm of P_n on [-1, 1]: 2/(2n+1)."""
    return 2.0 / (2 * n + 1)


def assoc_legendre(n: int, m: int, x):
    """Associated Legendre function P_n^m(x) = (1-x^2)^{m/2} d^m P_n/dx^m, for
    x a float or an array.

    Seeded at P_m^m = (2m-1)!! (1-x^2)^{m/2} and raised in degree by the
    recurrence P_{k+1}^m = ((2k+1) x P_k^m - (k+m) P_{k-1}^m)/(k-m+1).
    Returns 0 for m > n (the m-th derivative of a degree-n polynomial).
    """
    if m < 0:
        raise ValueError("order m must be non-negative")
    if type(x) is not float:
        x = as_arg(x)
    if not inside(x, -1.0, 1.0):
        raise ValueError("P_n^m evaluated only on [-1, 1]")
    if m > n:
        return full(x, 0.0)
    if m == 0:
        return _legendre_p(n, x)
    dfact, steps = _LEGENDRE.get((m, n)) or _legendre_table(m, n)
    # (1-x^2)^{m/2} by products, so floats and arrays round alike
    s2 = 1.0 - x * x  # >= 0 for |x| <= 1
    pmm = dfact
    for _ in range(m // 2):
        pmm = pmm * s2
    if m % 2:
        pmm = pmm * _xp(x).sqrt(s2)
    return _raise_degree(pmm, x, steps)


def assoc_legendre_norm2(n: int, m: int) -> float:
    """Integral of [P_n^m]^2 over [-1, 1]: 2 (n+m)! / ((2n+1)(n-m)!)."""
    val = 2.0 / (2 * n + 1)
    for j in range(n - m + 1, n + m + 1):
        val *= j
    return val


# ----------------------------------------------------------------------
# Integral sine
# ----------------------------------------------------------------------

def _sinc(t: float) -> float:
    if abs(t) < 1e-8:
        return 1.0 - t * t / 6.0
    return math.sin(t) / t


def integral_sine(x: float) -> float:
    """Si(x) = integral of sin(t)/t from 0 to x, for x >= 0."""
    if x < 0.0:
        raise ValueError("integral_sine defined for x >= 0")
    if x == 0.0:
        return 0.0
    # Integrate lobe by lobe past the first few periods so the adaptive rule
    # is never handed an interval with many oscillations at once.
    total = 0.0
    a = 0.0
    while a < x:
        b = min(x, a + math.pi)
        total += adaptive_simpson(_sinc, a, b, tol=1e-12)
        a = b
    return total


#: Absolute maximum of Si over x > 0, attained at x = pi.
GIBBS_CONSTANT = 1.8519370519824661
