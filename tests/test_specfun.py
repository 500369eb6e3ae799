"""Special functions: values against independent oracles, recurrence and
orthogonality identities, and the zero tables."""

import math
import os
import random
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralbvp import specfun
from spectralbvp._quad import adaptive_simpson, fixed_gauss

# Oracle: quadrature of the integral representation (1/pi) int_0^pi cos(x sin s) ds,
# frozen after computing it at tol 1e-13.
J0_AT_1 = 0.7651976865579666
# Oracle: fsum of the defining logarithmic series (see test_bessel_n0_series_oracle).
N0_AT_1 = 0.08825696421567697


def j0_integral_oracle(x: float) -> float:
    return adaptive_simpson(lambda s: math.cos(x * math.sin(s)), 0.0, math.pi, tol=1e-13) / math.pi


def test_bessel_j0_series_leading_term():
    assert specfun.bessel_j(0, 0.0) == 1.0
    assert specfun.bessel_j(3, 0.0) == 0.0


def test_bessel_j0_against_integral_oracle():
    oracle = j0_integral_oracle(1.0)
    assert abs(oracle - J0_AT_1) < 1e-12
    assert abs(specfun.bessel_j(0, 1.0) - J0_AT_1) < 1e-12
    for x in (0.3, 2.7, 9.1, 14.6, 33.0, 50.0):
        assert abs(specfun.bessel_j(0, x) - j0_integral_oracle(x)) < 1e-10


def test_bessel_j_zero_of_figure():
    assert abs(specfun.bessel_j(0, 2.405)) < 1e-3


def test_bessel_j_parity_and_orders():
    assert specfun.bessel_j(1, -2.0) == -specfun.bessel_j(1, 2.0)
    assert specfun.bessel_j(2, -2.0) == specfun.bessel_j(2, 2.0)
    # integral representation for m = 1: (1/pi) int cos(s - x sin s) ds
    oracle = adaptive_simpson(lambda s: math.cos(s - 2.0 * math.sin(s)), 0.0, math.pi, tol=1e-13) / math.pi
    assert abs(specfun.bessel_j(1, 2.0) - oracle) < 1e-12


def test_bessel_n0_series_oracle():
    # independent high-precision summation of the defining series
    x = 1.0
    j0 = j0_integral_oracle(x)
    terms = []
    term = 1.0
    hs = 0.0
    for s in range(1, 60):
        term *= -(x * x / 4.0) / (s * s)
        hs += 1.0 / s
        terms.append(term * hs)
    total = math.fsum(terms)
    gamma = 0.5772156649015328606
    oracle = 2.0 / math.pi * (j0 * (math.log(x / 2.0) + gamma) - total)
    assert abs(oracle - N0_AT_1) < 1e-13
    assert abs(specfun.bessel_n(0, 1.0) - N0_AT_1) < 1e-12


def test_bessel_n_zero_of_figure():
    assert abs(specfun.bessel_n(0, 0.894)) < 2e-3


def test_bessel_n_domain():
    with pytest.raises(ValueError):
        specfun.bessel_n(0, 0.0)
    with pytest.raises(ValueError):
        specfun.bessel_n(1, -2.0)


@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
def test_wronskian(x):
    w = specfun.bessel_j(0, x) * specfun.bessel_n_prime(0, x) - specfun.bessel_j_prime(
        0, x
    ) * specfun.bessel_n(0, x)
    assert abs(x * w - 2.0 / math.pi) < 1e-8


def test_derivative_identity_xj1():
    # d/dx [x J_1(x)] = x J_0(x) against central differences
    rng = np.random.default_rng(421)
    h = 1e-5
    for x in rng.uniform(0.05, 20.0, size=200):
        f = lambda t: t * specfun.bessel_j(1, t)
        lhs = (f(x + h) - f(x - h)) / (2 * h)
        rhs = x * specfun.bessel_j(0, x)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=10),
    x=st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
)
def test_recurrence_residual(m, x):
    res = specfun.bessel_j(m + 1, x) + specfun.bessel_j(m - 1, x) - 2 * m / x * specfun.bessel_j(m, x)
    assert abs(res) <= 1e-9 * max(1.0, abs(specfun.bessel_j(m, x)))


def test_against_scipy_spot_checks():
    special = pytest.importorskip("scipy.special")
    for m in range(0, 12):
        for x in (0.2, 1.7, 6.3, 12.4, 19.9, 37.0):
            assert specfun.bessel_j(m, x) == pytest.approx(float(special.jv(m, x)), abs=1e-11)
            assert specfun.bessel_n(m, x) == pytest.approx(float(special.yv(m, x)), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("m", [0, 1, 5])
def test_bessel_j_and_n_on_12_to_20_match_scipy(m):
    """On (12, 20] J_m is within 1e-15 absolute of scipy and N_m within
    1e-15 of max(1, |N_m|)."""
    special = pytest.importorskip("scipy.special")
    xs = np.linspace(12.0, 20.0, 801)[1:]
    assert np.max(np.abs(specfun.bessel_j(m, xs) - special.jv(m, xs))) <= 1e-15
    want = special.yv(m, xs)
    assert np.max(np.abs(specfun.bessel_n(m, xs) - want) / np.maximum(1.0, np.abs(want))) <= 1e-15


# ----------------------------------------------------------------------
# Zeros
# ----------------------------------------------------------------------

def test_bessel_zeros_first_three():
    got = [specfun.bessel_zero("bessel_j", 0, k) for k in (1, 2, 3)]
    for g, want in zip(got, (2.405, 5.520, 8.654)):
        assert abs(g - want) < 1e-3


def test_bessel_zero_asymptotic_gap():
    a7 = specfun.bessel_zero("bessel_j", 0, 7)
    assert abs(a7 - (0.75 * math.pi + 6 * math.pi)) < 0.006


def test_bessel_zero_interlacing_band():
    for k in range(2, 9):
        r = specfun.bessel_zero("bessel_j", 0, k)
        assert math.pi * (k - 1) < r < math.pi * k


def test_bessel_prime_zero():
    # J_0' = -J_1, so the first stationary point of J_0 is the first zero of
    # J_1; oracle by sign-change bisection on the series-evaluated J_1
    lo, hi = 3.0, 4.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if specfun.bessel_j(1, lo) * specfun.bessel_j(1, mid) <= 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    got = specfun.bessel_zero("bessel_j_prime", 0, 1)
    assert abs(got - oracle) < 1e-10
    assert abs(got - 3.8317) < 1e-3


def test_zero_table_properties():
    table = specfun.zero_table("bessel_j", 2, 6)
    roots = table.roots
    assert all(b > a for a, b in zip(roots, roots[1:]))
    for r in roots:
        assert abs(specfun.bessel_j(2, r)) <= 1e-10


def test_zero_table_immutable_and_indexed():
    table = specfun.zero_table("bessel_j", 0, 3)
    with pytest.raises(Exception):
        table.roots = ()
    with pytest.raises(IndexError):
        table.root(len(table.roots) + 1)
    with pytest.raises(IndexError):
        table.root(0)


# ----------------------------------------------------------------------
# Spherical Bessel
# ----------------------------------------------------------------------

def test_spherical_closed_forms():
    assert abs(specfun.spherical_bessel("j", 0, math.pi)) < 1e-15
    assert specfun.spherical_bessel("j", 1, 0.0) == 0.0
    assert abs(specfun.spherical_bessel("y", 0, math.pi / 2)) < 1e-15
    x = 1.3
    assert specfun.spherical_bessel("j", 1, x) == pytest.approx(
        math.sin(x) / x**2 - math.cos(x) / x, rel=1e-14
    )
    assert specfun.spherical_bessel("y", 1, x) == pytest.approx(
        -math.cos(x) / x**2 - math.sin(x) / x, rel=1e-14
    )
    assert specfun.spherical_bessel("j", 2, x) == pytest.approx(
        (3 / x**3 - 1 / x) * math.sin(x) - 3 / x**2 * math.cos(x), rel=1e-13
    )


def test_spherical_recurrence_and_half_integer_link():
    special = pytest.importorskip("scipy.special")
    for n in (3, 5, 8, 15):
        for x in (0.4, 2.0, 7.5, 30.0):
            want = float(special.spherical_jn(n, x))
            assert specfun.spherical_bessel("j", n, x) == pytest.approx(want, abs=1e-13)
            wanty = float(special.spherical_yn(n, x))
            assert specfun.spherical_bessel("y", n, x) == pytest.approx(wanty, rel=1e-11, abs=1e-13)


def test_spherical_y_domain():
    with pytest.raises(ValueError):
        specfun.spherical_bessel("y", 0, 0.0)


def test_spherical_y_overflows_to_signed_infinity():
    """y_n(x) ~ -(2n-1)!!/x^{n+1} lies below -DBL_MAX at tiny x: -inf there,
    and y_n(-x) = (-1)^{n+1} y_n(x), for floats and arrays alike and with
    no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, x in ((0, 5e-324), (1, 1e-310), (2, 5e-324), (3, 1e-310), (40, 1e-8)):
            for sign in (1.0, -1.0):
                want = -math.inf if sign > 0.0 or n % 2 else math.inf
                assert specfun.spherical_bessel("y", n, sign * x) == want
            got = specfun.spherical_bessel("y", n, np.array([x, -x, 1.5]))
            assert got[0] == -math.inf and got[1] == (-math.inf if n % 2 else math.inf)
            assert got[2] == specfun.spherical_bessel("y", n, 1.5)


# ----------------------------------------------------------------------
# Legendre family
# ----------------------------------------------------------------------

def test_legendre_endpoint_and_low_orders():
    for n in range(0, 9):
        assert specfun.legendre("P", n, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert specfun.legendre("P", 2, 0.0) == -0.5
    assert specfun.legendre("P", 3, 0.4) == pytest.approx(0.5 * (5 * 0.4**3 - 3 * 0.4), rel=1e-14)
    assert specfun.legendre("Q", 0, 0.0) == 0.0
    x = 0.37
    q0 = 0.5 * math.log((1 + x) / (1 - x))
    assert specfun.legendre("Q", 1, x) == pytest.approx(x * q0 - 1.0, rel=1e-13)
    assert specfun.legendre("Q", 2, x) == pytest.approx(
        specfun.legendre("P", 2, x) * q0 - 1.5 * x, rel=1e-13
    )


def test_legendre_q_domain():
    with pytest.raises(ValueError):
        specfun.legendre("Q", 1, 1.0)


def test_legendre_orthogonality_gauss():
    for k in range(0, 9):
        for n in range(0, 9):
            val = fixed_gauss(
                lambda x: specfun.legendre("P", k, x) * specfun.legendre("P", n, x), -1.0, 1.0, n=64
            )
            want = 2.0 / (2 * n + 1) if k == n else 0.0
            assert abs(val - want) < 1e-10


def test_bessel_radial_orthogonality():
    # int_0^R r J_0(a_j r/R) J_0(a_k r/R) dr = delta_jk R^2/2 J_0'(a_k)^2
    big_r = 1.7
    for j in range(1, 6):
        aj = specfun.bessel_zero("bessel_j", 0, j)
        for k in range(1, 6):
            ak = specfun.bessel_zero("bessel_j", 0, k)
            val = fixed_gauss(
                lambda r: r * specfun.bessel_j(0, aj * r / big_r) * specfun.bessel_j(0, ak * r / big_r),
                0.0,
                big_r,
                n=192,
            )
            if j == k:
                want = big_r**2 / 2 * specfun.bessel_j_prime(0, ak) ** 2
                assert val == pytest.approx(want, rel=1e-8)
            else:
                assert abs(val) < 1e-10


def test_assoc_legendre():
    for n in (0, 1, 2, 3, 5):
        for x in (-0.7, 0.0, 0.4):
            assert specfun.assoc_legendre(n, 0, x) == pytest.approx(
                specfun.legendre("P", n, x), abs=1e-14
            )
    assert specfun.assoc_legendre(1, 1, 0.0) == 1.0
    x = 0.3
    assert specfun.assoc_legendre(2, 1, x) == pytest.approx(3 * x * math.sqrt(1 - x * x), rel=1e-14)
    assert specfun.assoc_legendre(2, 2, x) == pytest.approx(3 * (1 - x * x), rel=1e-14)
    assert specfun.assoc_legendre(3, 4, 0.5) == 0.0
    # norm: int [P_1^1]^2 = 4/3
    val = fixed_gauss(lambda t: specfun.assoc_legendre(1, 1, t) ** 2, -1.0, 1.0, n=64)
    assert val == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert specfun.assoc_legendre_norm2(1, 1) == pytest.approx(4.0 / 3.0, rel=1e-15)


# ----------------------------------------------------------------------
# Integral sine
# ----------------------------------------------------------------------

def test_integral_sine_values():
    assert specfun.integral_sine(0.0) == 0.0
    assert abs(specfun.integral_sine(math.pi) - 1.852) < 1e-3
    assert abs(specfun.integral_sine(100.0) - math.pi / 2) < 0.02
    assert specfun.integral_sine(math.pi) == pytest.approx(specfun.GIBBS_CONSTANT, abs=1e-12)


def test_integral_sine_monotone_to_first_max():
    xs = np.linspace(0.0, math.pi, 60)
    vals = [specfun.integral_sine(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # global maximum over x > 0 sits at pi
    gmax = specfun.integral_sine(math.pi)
    for x in (1.0, 2.0, 4.0, 2 * math.pi, 3 * math.pi, 20.0, 60.0):
        assert specfun.integral_sine(x) <= gmax + 1e-12


def test_integral_sine_takes_ints_and_refuses_nan():
    assert specfun.integral_sine(1) == specfun.integral_sine(1.0)
    with pytest.raises(ValueError, match="finite x"):
        specfun.integral_sine(math.nan)


def test_integral_sine_refuses_inf_in_time():
    """Without a guard the lobe loop never reaches x = inf, so the call runs
    in a subprocess with a timeout."""
    code = (
        "from spectralbvp.specfun import integral_sine\n"
        "try:\n    integral_sine(float('inf'))\nexcept ValueError as e:\n    print('ValueError', e)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.startswith("ValueError integral_sine needs a finite x"), proc.stdout + proc.stderr


def bits(v):
    return np.asarray(v, dtype=float).tobytes()


def test_sinc_kernel_same_bits_for_a_float_and_an_array():
    """One sin(u)/u for the integral sine and the ball's radial modes: the
    Taylor form 1 - u^2/6 below |u| = 1e-6, sin(u)/u from there on."""
    edge = math.nextafter(1e-6, 0.0)
    for u in (0.0, 1e-9, 5e-7, edge, 1e-6, 2e-6, 0.3, -0.3, 55.5):
        one = specfun._sinc(u)
        assert type(one) is float
        assert bits(specfun._sinc(np.array([u]))) == bits([one])
        want = 1.0 - u * u / 6.0 if abs(u) < 1e-6 else math.sin(u) / u
        assert bits(one) == bits(want), u


def test_legendre_columns_are_legendre_bit_for_bit():
    xs = np.linspace(-1.0, 1.0, 41)
    cols = specfun._legendre_columns(200, xs)
    for n in range(200):
        assert bits(cols[:, n]) == bits(specfun.legendre("P", n, xs)), n
        assert bits(specfun._legendre_columns(n + 1, xs)[..., n]) == bits(cols[:, n]), n
        for x in (-1.0, -0.37, 0.0, 0.5, 1.0):
            assert bits(specfun._legendre_columns(n + 1, x)[..., n]) == bits(specfun.legendre("P", n, x)), (n, x)


def test_bessel_j_eval_bound():
    special = pytest.importorskip("scipy.special")
    for m in (0, 1, 3, 8):
        for x in (0.5, 3.0, 11.0, 14.0, 28.0, 50.0):
            ev = specfun.bessel_j_eval(m, x)
            assert ev.abs_error_bound >= 0.0
            assert math.isfinite(ev.value)
            actual = abs(ev.value - float(special.jv(m, x)))
            assert actual <= ev.abs_error_bound
            assert ev.abs_error_bound < 1e-9


def test_bessel_j_near_the_order():
    """Near x = m the value is right and its bound is small at every order."""
    ev = specfun.bessel_j_eval(80, 80.0)
    assert ev.abs_error_bound < 1e-12
    assert abs(ev.value - 0.1038068091131294) <= ev.abs_error_bound  # scipy.special.jv(80, 80.0)


@pytest.mark.parametrize("m", [0, 1, 5, 20, 40, 60, 80, 100])
def test_bessel_zeros_match_scipy(m):
    special = pytest.importorskip("scipy.special")
    got = [specfun.bessel_zero("bessel_j", m, k) for k in range(1, 6)]
    assert np.allclose(got, special.jn_zeros(m, 5), rtol=1e-12, atol=0.0)


def test_bessel_zeros_of_order_five_are_full_precision():
    special = pytest.importorskip("scipy.special")
    got = np.array(specfun.zero_table("bessel_j", 5, 8).roots)
    want = special.jn_zeros(5, 8)
    assert np.max(np.abs(got - want) / want) <= 2e-16


def test_spherical_j_at_zeros_of_j0():
    """Where j_0 = sin(x)/x vanishes the downward sweep is scaled to j_1."""
    special = pytest.importorskip("scipy.special")
    for n in (4, 6, 10, 20):
        for k in range(1, n // 3 + 1):
            x = k * math.pi
            want = float(special.spherical_jn(n, x))
            assert specfun.spherical_bessel("j", n, x) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_radial_family_residuals():
    for k in range(1, 6):
        g = specfun.bessel_zero("radial_tan", 0, k)
        assert abs(math.sin(g) - g * math.cos(g)) <= 1e-10 * max(1.0, g)
    hr = 2.7  # Robin constant h * R
    for k in range(1, 6):
        g = specfun.bessel_zero("radial_robin", 0, k, param=hr)
        assert abs(g * math.cos(g) + (hr - 1.0) * math.sin(g)) <= 1e-10 * max(1.0, g)
    with pytest.raises(ValueError):
        specfun.bessel_zero("radial_robin", 0, 1)  # parameter required
    with pytest.raises(ValueError):
        specfun.bessel_zero("bessel_j", 0, 0)  # root index starts at 1


NON_FINITE = [math.inf, -math.inf, math.nan, np.array([1.0, np.inf]), np.array([np.nan, 2.0])]


@pytest.mark.parametrize("x", NON_FINITE, ids=["inf", "-inf", "nan", "array-inf", "array-nan"])
@pytest.mark.parametrize(
    "fn",
    [
        lambda x: specfun.bessel_j(0, x),
        lambda x: specfun.bessel_j(3, x),
        lambda x: specfun.bessel_j_prime(2, x),
        lambda x: specfun.bessel_j_eval(1, x),
        lambda x: specfun.bessel_n(1, x),
        lambda x: specfun.bessel_n_prime(2, x),
        lambda x: specfun.spherical_bessel("j", 2, x),
        lambda x: specfun.spherical_bessel("y", 1, x),
    ],
    ids=["J0", "J3", "J2'", "J1 eval", "N1", "N2'", "j2", "y1"],
)
def test_bessel_functions_reject_non_finite_x(fn, x):
    with pytest.raises(ValueError, match="x must be finite"):
        fn(x)


# ----------------------------------------------------------------------
# The one zero store: a root is a pure function of (family, order, param, k)
# ----------------------------------------------------------------------

ZERO_KEYS = [
    (family, order, 2.7 if family is specfun.ZeroFamily.RADIAL_ROBIN else None)
    for family in list(specfun.ZeroFamily) + [specfun._SPHERICAL_J]
    for order in (0, 3)
]


def _one_root(family, order, param, k):
    if family == specfun._SPHERICAL_J:
        return specfun.spherical_bessel_zero(order, k)
    return specfun.bessel_zero(family, order, k, param=param)


@pytest.mark.parametrize(
    "family, order, param", ZERO_KEYS, ids=[f"{getattr(f, 'value', f)}-{o}" for f, o, _ in ZERO_KEYS]
)
def test_zero_tables_do_not_depend_on_history(monkeypatch, family, order, param):
    """Roots 1..25 come out bit for bit the same built in one call, one root
    per call, or in shuffled order, each from an empty store."""
    count = 25
    monkeypatch.setattr(specfun, "_ZEROS", {})
    whole = specfun._zeros(family, order, count, param)[:count]
    monkeypatch.setattr(specfun, "_ZEROS", {})
    one_by_one = [_one_root(family, order, param, k) for k in range(1, count + 1)]
    monkeypatch.setattr(specfun, "_ZEROS", {})
    ks = list(range(1, count + 1))
    random.Random(order).shuffle(ks)
    shuffled = dict((k, _one_root(family, order, param, k)) for k in ks)
    assert list(whole) == one_by_one == [shuffled[k] for k in range(1, count + 1)]
    assert all(b > a for a, b in zip(whole, whole[1:]))
    if family != specfun._SPHERICAL_J:
        for k in (1, 4, 13, count):
            assert specfun.zero_table(family, order, k, param=param).roots == tuple(one_by_one[:k])


def test_zero_tables_agree_across_threads(monkeypatch):
    """Eight threads that grow the same tables at once each get the serial
    roots, and every stored table stays strictly increasing."""
    count = 12
    requests = [(specfun._SPHERICAL_J, 3), (specfun._SPHERICAL_J, 0), (specfun.ZeroFamily.BESSEL_J, 5)]

    def ask(t):
        # threads only collect; the asserts run in the main thread
        got = {}
        barrier.wait(timeout=60)
        for family, order in requests[t % 3:] + requests[: t % 3]:
            ks = range(count, 0, -1) if t % 2 else range(1, count + 1)
            got.update({(family, order, k): _one_root(family, order, None, k) for k in ks})
        return got

    monkeypatch.setattr(specfun, "_ZEROS", {})
    serial = {(f, o, k): _one_root(f, o, None, k) for f, o in requests for k in range(1, count + 1)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(specfun, "_ZEROS", {})
            barrier = threading.Barrier(8)
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result(timeout=120) for f in [pool.submit(ask, t) for t in range(8)]]
            tables = dict(specfun._ZEROS)
            for got in results:
                assert got == serial
            for (family, order, _), roots in tables.items():
                assert all(b > a for a, b in zip(roots, roots[1:]))
                assert list(roots) == [serial[family, order, k] for k in range(1, len(roots) + 1)]
    finally:
        sys.setswitchinterval(interval)


def test_zero_table_refuses_a_negative_count():
    """A negative count sliced the stored roots from their end, so the table
    depended on what earlier calls had stored."""
    specfun.zero_table("bessel_j", 0, 5)
    with pytest.raises(ValueError, match="count must be >= 0"):
        specfun.zero_table("bessel_j", 0, -2)
    assert specfun.zero_table("bessel_j", 0, 0).roots == ()


@pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf])
def test_zero_tables_reject_non_finite_param(param):
    with pytest.raises(ValueError, match="param"):
        specfun.zero_table("radial_robin", 0, 3, param=param)
    with pytest.raises(ValueError, match="param"):
        specfun.bessel_zero("radial_robin", 0, 1, param=param)
