"""Special functions built from their three-term recurrences, leading
terms, defining sums and large-argument asymptotics: integer-order Bessel
and Neumann functions, spherical Bessel functions, Legendre polynomials and
functions of the second kind, associated Legendre functions, the integral
sine, and tables of roots of the transcendental characteristic equations
that accompany them.  One downward sweep (Miller's algorithm) serves J_m,
the seeds N_0 and N_1 and j_n below their turning points; no power series
is summed.

Every function of x accepts a float or an ndarray through one code path and
returns a Python float for a float.  Everything here is pure and
deterministic; coefficient tables are built on first use, and they and the
zero tables are immutable once built and safe to share between threads.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from enum import Enum
from functools import cache

from ._quad import adaptive_simpson
from ._record import dataclass
from ._rootfind import nth_root_from_scan
from ._vec import any_, as_arg, full, inside, is_array, np, piecewise, where, xp as _xp

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
# J_0, J_1, N_0 and N_1 take the downward sweep up to this argument and the
# Hankel asymptotics beyond it; J_m (m >= 2) takes the sweep up to max(20, m).
_HANKEL_X = 20.0
# At and below this |x| the Bessel functions take their leading terms: the
# next term is below eps relative (for N_1, the largest, x^2 |log(x/2)|/2 of
# the leading one), and a sweep's factors 2k/x would leave the float range.
_TINY = 1e-9


# ----------------------------------------------------------------------
# Bessel functions of integer order
# ----------------------------------------------------------------------
#
# Every function of x below accepts a float or an ndarray (see ``_vec``).
# Each evaluation regime is one kernel ``kernel(x, xp, order)`` in plain
# arithmetic, where ``order`` carries the constants of one order, built on
# first use: the Hankel amplitudes are Horner sums over coefficients rounded
# once from exact integer ratios, and the recurrences run over precomputed
# float factors.  A float and an array element thus go through the same
# operations.  The three-term recurrence runs in the direction in which the
# wanted solution grows: ``_upward`` from orders 0 and 1 for N, y, and J or
# j past their turning point; ``_downward`` (Miller's algorithm) towards
# order 0 for J and j below it.

def _floats(start: int, stop: int, step: int = 1) -> tuple[float, ...]:
    return tuple(float(k) for k in range(start, stop, step))


def _horner(coeffs: tuple[float, ...], w):
    """sum_s c_s w^s for coefficients given from the highest power down."""
    p = 0.0
    for c in coeffs:
        p = p * w + c
    return p


class _Order:
    """Constants of one order m of J_m and N_m (odd = 0) or of j_m and y_m
    (odd = 1), whose recurrences have the factors c_k = 2k + odd.

    ``lead`` holds c_1..c_m, so that the leading term near 0 is x^m/prod
    (lead): (x/2)^m/m! or x^m/(2m+1)!!.  ``steps`` holds c_1..c_{m-1}, the
    factors of the upward recurrence f_{k+1} = (c_k/x) f_k - f_{k-1} as
    ``_upward`` reads them.  ``edges`` splits J_m or j_m in |x| into the
    leading term, the downward sweep and the upward regime, in the form of
    ``piecewise``: the sweep of J_m ends at max(20, m), where the Hankel
    asymptotics take over, and that of j_m just below m.  Every sweep of the
    order starts at ``top``, ``_start`` of that end; ``down`` = c_top..c_1.
    """

    __slots__ = ("m", "edges", "lead", "steps", "top", "down")

    def __init__(self, m: int, odd: int):
        if m < 0:
            raise ValueError("order must be a non-negative integer")
        self.m = m
        self.lead = _floats(2 + odd, 2 * m + 1 + odd, 2)
        self.steps = self.lead[:-1]
        big = float(max(_HANKEL_X, m) if odd == 0 else m)
        self.edges = (_TINY, max(_TINY, big if odd == 0 else math.nextafter(big, 0.0)))
        self.top = int(_start(big, math))
        self.down = _floats(2 * self.top + odd, odd, -2)


_order = cache(_Order)


def _start(big, xp):
    """Start order 2 ceil((M + 16 + sqrt(40 M))/2) of a downward sweep that
    serves orders and arguments up to M (a float or an array)."""
    return 2.0 * xp.ceil(0.5 * (big + 16.0 + xp.sqrt(40.0 * big)))


def _downward(x, o: _Order) -> list:
    """Miller's sweep f_{k-1} = (c_k/x) f_k - f_{k+1}, c_k = 2k + odd, from
    f_{top+1} = 0 and f_top = 1e-290 down to f_0, as [f_0, .., f_top].

    The start order ``o.top`` and its factors ``o.down`` belong to the order,
    so an array element runs the operations it runs as a float.  Below top
    the sweep is, to rounding, a multiple of the solution that decays with
    the order, J_k for odd = 0 and j_k for odd = 1 (Gautschi, SIAM Rev. 9,
    1967).  |f| grows by at most 1 + c_k/x a step: where that could carry it
    past 1e250, every value of an element is scaled by 1e-250 whenever its
    newest one passes that level.
    """
    lo = x if type(x) is float else float(x.min())
    guard = o.top * math.log10(1.0 + o.down[0] / lo) > 500.0
    r = 1.0 / x
    # every step's factor c_k/x up front: one array product per step fewer
    steps = np.multiply.outer(o.down, r) if is_array(x) else [c * r for c in o.down]
    f1, f = 0.0, full(x, 1e-290)
    fs = [f]
    for cr in steps:
        f1, f = f, cr * f - f1
        fs.append(f)
        if guard and any_(abs(f) > 1e250):
            scale = where(abs(f) > 1e250, 1e-250, 1.0)
            fs = [v * scale for v in fs]
            f1, f = f1 * scale, fs[-1]
    fs.reverse()
    return fs


def _leading(x, xp, o: _Order):
    """|x| <= 1e-9: x^m/prod(lead), the leading term of J_m or j_m."""
    lead = 1.0
    for c in o.lead:
        lead *= x / c
    return lead


def _j_miller(x, xp, o: _Order):
    """1e-9 < |x| <= max(20, m): the sweep normalised by J_0 + 2 sum_k J_2k = 1
    (A&S 9.1.46)."""
    f = _downward(x, o)
    return f[o.m] / (f[0] + 2.0 * sum(f[2::2]))


@cache
def _hankel_table(m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients of the Hankel amplitudes (A&S 9.2.9-10) of order m:
    P = sum_k (-1)^k a_2k z^k and Q = t sum_k (-1)^k a_2k+1 z^k with
    t = 1/(8x), z = t^2 and a_j = prod_{i<=j} (4m^2 - (2i-1)^2) / i.

    The sum stops before its first term below eps/16 of the leading one at
    x = 20, where the regime starts (for m = 0, 1 that is before the
    smallest term); at larger x every dropped term is smaller still.
    """
    num, den = 1, 1
    a = [1.0]
    for j in range(1, 80):
        num *= 4 * m * m - (2 * j - 1) ** 2
        den *= j
        if abs(num / den) < _EPS / 16.0 * (8.0 * _HANKEL_X) ** j:
            break
        a.append(num / den)
    p = tuple(reversed([(-1.0) ** k * v for k, v in enumerate(a[0::2])]))
    q = tuple(reversed([(-1.0) ** k * v for k, v in enumerate(a[1::2])]))
    return p, q


def _hankel(x, xp, m: int):
    """J_m(x) and N_m(x) for m in (0, 1) and x > 20 from the amplitudes:
    sqrt(2/(pi x)) (P cos chi - Q sin chi) and sqrt(2/(pi x)) (P sin chi +
    Q cos chi), chi = x - pi/4 - m pi/2."""
    pc, qc = _hankel_table(m)
    t = 1.0 / (8.0 * x)
    z = t * t
    p = _horner(pc, z)
    q = t * _horner(qc, z)
    chi = x - 0.25 * math.pi - 0.5 * math.pi * m
    amp = xp.sqrt(2.0 / (math.pi * x))
    c, s = xp.cos(chi), xp.sin(chi)
    return amp * (p * c - q * s), amp * (p * s + q * c)


def _upward(f0, f1, x, o):
    """Order o.m from orders 0 and 1 by f_{k+1} = (c_k/x) f_k - f_{k-1}, the
    factors c_k in ``o.steps`` (2k for J and N, 2k+1 for j and y)."""
    if o.m == 0:
        return f0
    for c in o.steps:
        f0, f1 = f1, c / x * f1 - f0
    return f1


def _growing(f0, f1, x, o):
    """``_upward`` for the growing N_m and y_n, negative where large: past
    -DBL_MAX it overflows to -inf, then meets inf - inf; that NaN is -inf."""
    v = _upward(f0, f1, x, o)
    return where(v != v, -math.inf, v)


def _quiet(x):
    """No numpy warnings for an array x whose infinities are answers."""
    return nullcontext() if type(x) is float else np.errstate(over="ignore", invalid="ignore")


def _j_hankel(x, xp, o: _Order):
    """x > max(20, m): J_0 and J_1 from their asymptotics, higher orders by
    the upward recurrence from those, stable because m < x."""
    if o.m < 2:
        return _hankel(x, xp, o.m)[0]
    return _upward(_hankel(x, xp, 0)[0], _hankel(x, xp, 1)[0], x, o)


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

    Regime selection: the leading term (x/2)^m/m! for |x| <= 1e-9; Miller's
    downward recurrence, normalised by J_0 + 2 sum_k J_2k = 1, for |x| up to
    max(20, m); beyond that, the large-argument asymptotic for orders 0 and
    1 and the three-term upward recurrence from them (stable for m < x) for
    higher orders.  The sweep holds J_m to a few 1e-15 absolute at every
    order; ``bessel_j_eval`` bounds each regime.  Non-finite x raises
    ValueError.
    """
    o = _order(m, 0)
    x = _finite(x)
    ax = abs(x)
    v = piecewise(ax, o.edges, (_leading, _j_miller, _j_hankel), o)
    return where(x < 0.0, -v, v) if m % 2 else v


def _j_sweep_bound(ax, xp, o: _Order):
    """|J_k| <= 1, so the rounding of a sweep from order ``top`` and of its
    normalising sum stays below top eps, with ``top`` the start order for
    this element alone (the order's start may be larger, and adds only
    orders whose terms are negligible).  Also covers the leading term."""
    big = where(ax > o.m, ax, float(o.m))
    return _EPS * _start(big, xp)


def _j_asymptotic_bound(ax, xp, o: _Order):
    """The amplitude series, cut at its smallest term at x = 20, leaves an
    error near e^{-2x} (smaller beyond x = 20 than the rounding); the
    eps*(4 + x) piece covers the trig argument reduction of chi, and the
    upward recurrence (applied only while m < x) grows seed errors about
    linearly in the order."""
    amp = xp.sqrt(2.0 / (math.pi * ax))
    base = amp * (xp.exp(-2.0 * ax) + (4.0 + ax) * _EPS)
    return base * (1.0 + o.m)


def bessel_j_eval(m: int, x) -> SeriesEval:
    """J_m(x) together with a conservative absolute-error bound (arrays of
    both for an array x).

    Sweep regime (|x| <= max(20, m)): rounding over the sweep's length.
    Asymptotic regime: the first omitted amplitude term plus rounding.
    Recurrence regime: the seed bounds amplified by the mild upward growth
    factor.
    """
    x = as_arg(x)
    value = bessel_j(m, x)
    o = _order(m, 0)
    bound = piecewise(abs(x), o.edges[1:], (_j_sweep_bound, _j_asymptotic_bound), o)
    return SeriesEval(x, m, value, bound)


def bessel_j_prime(m: int, x):
    """Derivative J_m'(x); J_0' = -J_1, otherwise J_m' = (J_{m-1} - J_{m+1})/2,
    which needs no division by x."""
    if m == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))


def _n_leading(x, xp, o: _Order):
    """x <= 1e-9: N_0 = (2/pi)(log(x/2) + gamma) and N_1 = -2/(pi x) (log x
    - log 2, since x/2 drops digits of a subnormal x), then upward to order
    m."""
    n0 = 2.0 / math.pi * (xp.log(x) - math.log(2.0) + _EULER_GAMMA)
    return _growing(n0, -2.0 / math.pi / x, x, o)


# Weights of the Neumann sums over the J sweep of _order(1, 0), which starts
# at order _start(20) = 66: N_0 weighs J_2k by (-1)^k/k (k >= 1), and N_1
# weighs J_1 by -1 and J_2k+1 by (-1)^(k+1) (2k+1)/(k(k+1)) (k >= 1).
_N_TOP = _order(1, 0).top
_N0_WEIGHTS = tuple((-1.0) ** k / k for k in range(1, _N_TOP // 2 + 1))
_N1_WEIGHTS = (-1.0,) + tuple((-1.0) ** (k + 1) * (2 * k + 1) / (k * (k + 1)) for k in range(1, _N_TOP // 2))


def _n_miller(x, xp, o: _Order):
    """1e-9 < x <= 20: N_0 by the Neumann sum over Miller's sweep,
    N_0 = (2/pi)[(log(x/2) + gamma) J_0 - 2 sum_k (-1)^k J_2k/k] (A&S
    9.1.88), and N_1 = -N_0' through J_k' = (J_{k-1} - J_{k+1})/2,
    N_1 = (2/pi)[(log(x/2) + gamma) J_1 - J_0/x + sum_k (-1)^k (J_2k-1 -
    J_2k+1)/k]; then upward to order m."""
    f = _downward(x, _order(1, 0))
    even = sum(w * v for w, v in zip(_N0_WEIGHTS, f[2::2]))
    odd = sum(w * v for w, v in zip(_N1_WEIGHTS, f[1::2]))
    scale = 2.0 / math.pi / (f[0] + 2.0 * sum(f[2::2]))
    log_term = xp.log(0.5 * x) + _EULER_GAMMA
    n0 = scale * (log_term * f[0] - 2.0 * even)
    n1 = scale * (log_term * f[1] - f[0] / x + odd)
    return _growing(n0, n1, x, o)


def _n_hankel(x, xp, o: _Order):
    return _growing(_hankel(x, xp, 0)[1], _hankel(x, xp, 1)[1], x, o)


def bessel_n(m: int, x):
    """Neumann function N_m(x) for integer m >= 0; requires finite x > 0 (a
    float or an array).

    N_0 and N_1 come from their leading terms for x <= 1e-9, from the
    Neumann sums over the downward J sweep for x <= 20, and from the Hankel
    asymptotics beyond; higher orders from the upward recurrence
    N_{m+1} = -N_{m-1} + (2m/x) N_m, which is stable because N is the
    growing solution.  Where N_m lies below -DBL_MAX the value is -inf.
    """
    o = _order(m, 0)
    x = _finite(x)
    if any_(x <= 0.0):
        raise ValueError("Neumann function requires x > 0 (logarithmic singularity at 0)")
    with _quiet(x):
        return piecewise(x, (_TINY, _HANKEL_X), (_n_leading, _n_miller, _n_hankel), o)


def bessel_n_prime(m: int, x):
    """Derivative N_m'(x) = -N_{m+1} + (m/x) N_m.  Where N_m' lies above
    DBL_MAX the relation meets inf - inf, and the value is +inf."""
    x = as_arg(x)
    with _quiet(x):
        v = -bessel_n(m + 1, x) + m / x * bessel_n(m, x)
    return where(v != v, math.inf, v)


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
    returns a fresh, longer table.  ``tol`` bounds |f| at every root.
    ``param`` carries the real parameter of parametrized families
    (radial_robin), and is None otherwise.
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


def _radial_robin_fn(order: int, param: float | None):
    if param is None:
        raise ValueError("radial_robin family needs the Robin constant h*R as param")
    c = param - 1.0  # equation: g cos g + (hR - 1) sin g = 0
    return lambda g: g * math.cos(g) + c * math.sin(g)


# Each family: its characteristic built from (order, param), and the scan
# start max(lo, slope * order).  J_m and j_m > 0 on (0, first zero) and that
# zero exceeds m; cos +- sech and sin*cosh - cos*sinh vanish to high order at
# 0, so the beam scans start past the degenerate origin.
_SPHERICAL_J = "spherical_j"  # the private key of the zeros of j_n
_FAMILIES = {
    ZeroFamily.BESSEL_J: (lambda m, _: lambda x: bessel_j(m, x), 1e-9, 0.5),
    ZeroFamily.BESSEL_J_PRIME: (lambda m, _: lambda x: bessel_j_prime(m, x), 1e-6, 0.4),
    ZeroFamily.BEAM_CC: (lambda m, _: _beam_cc_fn, 0.3, 0.0),
    ZeroFamily.BEAM_CF: (lambda m, _: _beam_cf_fn, 0.3, 0.0),
    ZeroFamily.BEAM_CP: (lambda m, _: _beam_cp_fn, 0.3, 0.0),
    ZeroFamily.RADIAL_TAN: (lambda m, _: _radial_tan_fn, 1e-6, 0.0),
    ZeroFamily.RADIAL_ROBIN: (_radial_robin_fn, 1e-6, 0.0),
    _SPHERICAL_J: (lambda n, _: lambda x: spherical_bessel("j", n, x), 1e-6, 0.5),
}

# The sign-change scan step, an eighth of the root spacing pi that every
# family approaches.
_SCAN_STEP = math.pi / 8.0

_ZEROS: dict[tuple, tuple[float, ...]] = {}


def _zeros(family, order: int, count: int, param: float | None = None) -> tuple[float, ...]:
    """At least the first ``count`` roots of one family from the one store,
    grown by the rule of ``zero_table`` into a longer copy.  Threads growing
    one table at once compute the same roots, so any copy a race keeps is
    a right one."""
    if param is not None and not math.isfinite(param):
        raise ValueError(f"param must be finite, got {param!r}")
    key = (family, order, param)
    roots = _ZEROS.get(key, ())
    if len(roots) < count:
        characteristic, lo, slope = _FAMILIES[family]
        f, grown = characteristic(order, param), list(roots)
        while len(grown) < count:
            start = grown[-1] + 1e-9 if grown else max(lo, slope * order)
            grown.append(nth_root_from_scan(f, start, _SCAN_STEP, 1, ftol=1e-15))
        roots = _ZEROS[key] = max(_ZEROS.get(key, ()), tuple(grown), key=len)
    return roots


def zero_table(
    family: ZeroFamily | str,
    order: int = 0,
    count: int = 1,
    param: float | None = None,
) -> ZeroTable:
    """First ``count`` positive roots of the requested family, cached.

    Root 1 is located by a sign-change scan from the family's start near the
    origin and root k + 1 by one from root k + 1e-9; each is refined by
    Brent's method to |f| <= 1e-15 on the scaled characteristic (or until
    its bracket collapses to floating-point resolution).  A root is thus a
    pure function of (family, order, param, k), whatever was asked before.
    A non-finite param raises ValueError.
    """
    family = ZeroFamily(family)
    return ZeroTable(family, order, _zeros(family, order, count, param)[:count], param=param)


def bessel_zero(family: ZeroFamily | str, order: int, k: int, param: float | None = None) -> float:
    """k-th positive root (k >= 1) of the requested characteristic family."""
    if k < 1:
        raise ValueError("root index must be >= 1")
    return _zeros(ZeroFamily(family), order, k, param)[k - 1]


# ----------------------------------------------------------------------
# Spherical Bessel functions
# ----------------------------------------------------------------------

def _sph_j_miller(x, xp, o: _Order):
    """1e-9 < |x| < n: the downward sweep scaled to the closed form of j_0
    or of j_1, whichever is larger (they never vanish together, so neither
    scale divides by a cancelled value)."""
    f = _downward(x, o)
    j0 = xp.sin(x) / x
    j1 = (j0 - xp.cos(x)) / x
    first = abs(j0) >= abs(j1)
    return f[o.m] / where(first, f[0], f[1]) * where(first, j0, j1)


def _sph_j_upward(x, xp, o: _Order):
    """Upward recurrence from the closed forms of j_0 and j_1, for x >= n."""
    s = xp.sin(x)
    return _upward(s / x, s / (x * x) - xp.cos(x) / x, x, o)


_SPH_J_KERNELS = (_leading, _sph_j_miller, _sph_j_upward)


def _sph_y(x, xp, o: _Order):
    """Upward recurrence from the closed forms of y_0 and y_1 (x > 0)."""
    c = xp.cos(x)
    return _growing(-c / x, -c / x / x - xp.sin(x) / x, x, o)


def spherical_bessel(kind: str, n: int, x):
    """Spherical Bessel functions j_n(x) and y_n(x) for integer n >= 0 and x
    a float or an array.

    j_n near 0 (|x| <= 1e-9) is its leading term x^n/(2n+1)!!, and
    otherwise comes from the three-term recurrence: upward from the closed
    forms of j_0, j_1 when x >= n, downward (Miller's sweep, scaled to j_0
    or j_1) when n > x.  y_n always recurs upward from y_0, y_1, and is -inf
    where it lies below -DBL_MAX.  Non-finite x raises ValueError.
    """
    o = _order(n, 1)
    x = _finite(x)
    ax = abs(x)
    if kind == "j":
        v = piecewise(ax, o.edges, _SPH_J_KERNELS, o)
        return where(x < 0.0, -v, v) if n % 2 else v
    if kind == "y":
        if any_(x == 0.0):
            raise ValueError("y_n is singular at x = 0")
        # y_n(-x) = (-1)^{n+1} y_n(x)
        with _quiet(ax):
            v = _sph_y(ax, _xp(ax), o)
        return v if n % 2 else where(x < 0.0, -v, v)
    raise ValueError("kind must be 'j' or 'y'")


def spherical_bessel_zero(n: int, k: int) -> float:
    """k-th positive zero of j_n (equivalently of J_{n+1/2})."""
    if k < 1:
        raise ValueError("root index must be >= 1")
    return _zeros(_SPHERICAL_J, n, k)[k - 1]


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


@cache
def _legendre_table(m: int, n: int) -> tuple[float, tuple[tuple[float, float, float], ...]]:
    """(2m-1)!! and the factors (2k+1, k+m, k-m+1) of the degree recurrence
    P_{k+1}^m = ((2k+1) x P_k^m - (k+m) P_{k-1}^m)/(k-m+1), k = m .. n-1."""
    steps = tuple((float(2 * k + 1), float(k + m), float(k - m + 1)) for k in range(m, n))
    return math.prod(range(1, 2 * m, 2), start=1.0), steps


def _raise_degree(pk, x, steps):
    """P_n^m from P_m^m = pk (and P_{m-1}^m = 0) by the degree recurrence."""
    pk1 = 0.0
    for a, b, c in steps:
        pk1, pk = pk, (a * x * pk - b * pk1) / c
    return pk


def _legendre_p(n: int, x):
    if n == 0:
        return full(x, 1.0)
    return _raise_degree(1.0, x, _legendre_table(0, n)[1])


def _legendre_columns(n_terms: int, x) -> np.ndarray:
    """P_0 .. P_{n_terms-1} at x (a float or an array on [-1, 1]), degrees
    last: the steps of ``_raise_degree`` kept at every degree."""
    x = as_arg(x)
    if not inside(x, -1.0, 1.0):
        raise ValueError("P_n evaluated only on [-1, 1]")
    pk, pk1 = full(x, 1.0), 0.0
    cols = [pk]
    for a, b, c in _legendre_table(0, n_terms - 1)[1]:
        pk1, pk = pk, (a * x * pk - b * pk1) / c
        cols.append(pk)
    return np.stack(cols[:n_terms], axis=-1)


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
    dfact, steps = _legendre_table(m, n)
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

def _sinc_small(u, f, _):
    return 1.0 - u * u / 6.0


def _sinc_direct(u, f, _):
    return f.sin(u) / u


def _sinc(u):
    """sin(u)/u for a float or an array, from its Taylor expansion where
    |u| < 1e-6."""
    return piecewise(abs(u), (math.nextafter(1e-6, 0.0),), (_sinc_small, _sinc_direct), None)


def integral_sine(x: float) -> float:
    """Si(x) = integral of sin(t)/t from 0 to x, for finite x >= 0."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"integral_sine needs a finite x, got {x!r}")
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
