"""Quadrature and root-finding utilities."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spectralbvp._quad import (
    adaptive_simpson,
    composite_simpson,
    cumulative_simpson,
    erfcx,
    fixed_gauss,
    gauss_ladder,
    gauss_legendre_nodes,
    gauss_rule,
    gauss_sum,
    sample,
)
from spectralbvp._rootfind import nth_root_from_scan, refine_root
from spectralbvp._series import project
from spectralbvp.specfun import ZeroFamily, _legendre_columns, bessel_j, bessel_zero


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(2.0, abs=1e-11)
    assert adaptive_simpson(lambda x: math.exp(-x * x), -8.0, 8.0, tol=1e-12) == pytest.approx(
        math.sqrt(math.pi), abs=1e-10
    )
    assert adaptive_simpson(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, tol=1e-13) == pytest.approx(
        math.pi / 4.0, abs=1e-12
    )
    # orientation and empty interval
    assert adaptive_simpson(math.sin, math.pi, 0.0, tol=1e-12) == pytest.approx(-2.0, abs=1e-11)
    assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0


def test_adaptive_simpson_kinked_integrand():
    got = adaptive_simpson(lambda x: abs(x - 0.3), 0.0, 1.0, tol=1e-12)
    assert got == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.7**2, abs=1e-10)


def test_adaptive_simpson_vector_integrand():
    # int_0^1 e^{-r (1 - tau)} dtau = (1 - e^{-r})/r, component by component
    rates = np.array([0.0, 1.0, 1e4])
    tol = 1e-11
    got = adaptive_simpson(lambda tau: np.exp(-rates * (1.0 - tau)), 0.0, 1.0, tol=tol)
    want = [1.0, -math.expm1(-1.0), -math.expm1(-1e4) / 1e4]
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert all(abs(g - w) <= tol for g, w in zip(got.tolist(), want))
    assert type(adaptive_simpson(math.exp, 0.0, 1.0)) is float


def test_adaptive_simpson_rejects_non_finite_integrand():
    calls = [0]

    def nan_past(x):
        calls[0] += 1
        if calls[0] > 10_000:
            raise RuntimeError("integrand sampled without end")
        return math.nan if x > 0.7 else x

    with pytest.raises(ValueError, match="not finite"):
        adaptive_simpson(nan_past, 0.0, 1.0)
    # an infinite component is caught before inf - inf can warn
    with pytest.raises(ValueError, match="not finite"):
        adaptive_simpson(lambda x: np.array([x, math.inf if x > 0.3 else 1.0]), 0.0, 1.0)


def test_fixed_gauss_polynomial_exactness():
    # n-point Gauss is exact through degree 2n-1
    got = fixed_gauss(lambda x: x**7 - 2 * x**3 + 1, -1.0, 3.0, n=4)
    want = (3.0**8 - 1.0) / 8.0 - 2 * (3.0**4 - 1.0) / 4.0 + 4.0
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 20, 48, 96, 160, 192, 256, 384])
def test_gauss_legendre_rule_is_full_precision(n):
    """The n-point rule integrates x^(2k), k < n, to 1e-13 relative of
    2/(2k + 1); its nodes are strictly increasing and symmetric."""
    xs, ws = gauss_legendre_nodes(n)
    assert len(xs) == len(ws) == n
    assert np.all(np.diff(xs) > 0.0)
    assert np.array_equal(xs, -xs[::-1]) and np.array_equal(ws, ws[::-1])
    for k in range(n):
        moment = float(np.dot(ws, xs ** (2 * k)))
        assert abs(moment - 2.0 / (2 * k + 1)) <= 1e-13 * 2.0 / (2 * k + 1), (k, moment)


def test_gauss_rule_loads_no_numpy_polynomial():
    """Building a rule imports nothing that ``import numpy`` did not (numpy
    before 2.0 loads ``numpy.polynomial`` itself)."""
    code = (
        "import sys, numpy; from spectralbvp._quad import gauss_legendre_nodes; "
        "before = 'numpy.polynomial' in sys.modules; gauss_legendre_nodes(64); "
        "print(before, 'numpy.polynomial' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    before, after = out.stdout.split()
    assert after == before


def test_gauss_rule_scaled_to_interval():
    xs, ws = gauss_rule(-1.0, 3.0, 4)
    assert np.all((xs > -1.0) & (xs < 3.0))
    assert float(np.sum(ws)) == pytest.approx(4.0, rel=1e-15)
    want = (3.0**8 - 1.0) / 8.0 - 2 * (3.0**4 - 1.0) / 4.0 + 4.0
    poly = xs**7 - 2 * xs**3 + 1
    assert float(np.dot(ws, poly)) == pytest.approx(want, rel=1e-14)
    assert gauss_sum(poly, -1.0, 3.0) == pytest.approx(want, rel=1e-14)


# The same function as a scalar-only callable (math.fabs raises TypeError on
# arrays of more than one element) and as a numpy-vectorised one; both use
# only exactly rounded operations, so their values agree bit for bit.
def _scalar_1d(x):
    return math.fabs(x) * x + 3.0 * x


def _vector_1d(x):
    return np.abs(x) * x + 3.0 * x


def _scalar_2d(x, y):
    return math.fabs(x) * y + 3.0 * x


def _vector_2d(x, y):
    return np.abs(x) * y + 3.0 * x


def test_sample_scalar_vectorised_and_constant_callables_agree():
    xs, _ = gauss_rule(-1.0, 2.0, 7)
    ys, _ = gauss_rule(0.0, 1.0, 5)
    want_1d = np.array([_scalar_1d(x) for x in xs.tolist()])
    for f in (_scalar_1d, _vector_1d):
        got = sample(f, xs)
        assert got.shape == (7,)
        assert np.array_equal(got, want_1d)
    want_2d = np.array([[_scalar_2d(x, y) for y in ys.tolist()] for x in xs.tolist()])
    for f in (_scalar_2d, _vector_2d):
        got = sample(f, xs, ys)
        assert got.shape == (7, 5)
        assert np.array_equal(got, want_2d)
    assert np.array_equal(sample(lambda x: 2.5, xs), np.full(7, 2.5))
    assert np.array_equal(sample(lambda x, y: 2.5, xs, ys), np.full((7, 5), 2.5))


def test_sample_calls_a_vectorised_callable_once():
    calls = []

    def f(x, y):
        calls.append(np.shape(x))
        return x * y

    xs, ys = np.linspace(0.0, 1.0, 4), np.linspace(1.0, 2.0, 3)
    assert np.array_equal(sample(f, xs, ys), np.outer(xs, ys))
    assert calls == [(4, 3)]


def test_fixed_gauss_is_sample_plus_dot():
    for f in (_scalar_1d, _vector_1d, math.cos):
        xs, _ = gauss_rule(0.2, 1.7, 48)
        assert fixed_gauss(f, 0.2, 1.7, n=48) == gauss_sum(sample(f, xs), 0.2, 1.7)


def test_composite_and_cumulative_simpson():
    xs = np.linspace(0.0, 2.0, 201)
    vals = np.exp(xs)
    h = xs[1] - xs[0]
    assert composite_simpson(vals, h) == pytest.approx(math.e**2 - 1.0, rel=1e-10)
    cum = cumulative_simpson(vals, h)
    for idx in (0, 37, 100, 200):
        assert cum[idx] == pytest.approx(math.exp(xs[idx]) - 1.0, abs=1e-9)


def test_erfcx_matches_definition_and_asymptotics():
    for z in (0.0, 0.3, 2.0, 8.0, 20.0):
        assert erfcx(z) == pytest.approx(math.exp(z * z) * math.erfc(z), rel=1e-12)
    for z in (30.0, 100.0):
        lead = 1.0 / (z * math.sqrt(math.pi))
        assert erfcx(z) == pytest.approx(lead * (1 - 0.5 / z**2), rel=1e-4)
    assert erfcx(-1.0) == pytest.approx(2 * math.e - erfcx(1.0), rel=1e-12)


def test_refine_root_and_scan():
    root = refine_root(lambda x: x * x - 2.0, 1.0, 2.0, ftol=1e-15)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        refine_root(lambda x: x * x + 1.0, -1.0, 1.0)
    third = nth_root_from_scan(math.sin, 0.5, 0.5, 3)
    assert third == pytest.approx(3 * math.pi, rel=1e-12)


def test_exhausted_scan_says_so():
    with pytest.raises(ValueError, match="no sign change for root 1 in 2000000 steps"):
        nth_root_from_scan(lambda x: 1.0 + x * x, 0.0, 1.0, 1)


def _cumulative_simpson_loop(values, h):
    """Node-by-node reference for cumulative_simpson."""
    n = len(values)
    out = np.empty(n)
    out[0] = 0.0
    if n == 1:
        return out
    for i in range(2, n, 2):
        out[i] = out[i - 2] + h / 3.0 * (values[i - 2] + 4.0 * values[i - 1] + values[i])
    for i in range(1, n, 2):
        if i + 1 < n:
            out[i] = out[i - 1] + h / 12.0 * (5.0 * values[i - 1] + 8.0 * values[i] - values[i + 1])
        else:
            out[i] = out[i - 1] + h / 12.0 * (-values[i - 2] + 8.0 * values[i - 1] + 5.0 * values[i])
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 2049, 2050, 4097])
def test_cumulative_simpson_matches_node_loop(n):
    values = np.random.default_rng(n).standard_normal(n)
    assert np.array_equal(cumulative_simpson(values, 0.37), _cumulative_simpson_loop(values, 0.37))


# ----------------------------------------------------------------------
# Gauss ladder
# ----------------------------------------------------------------------

def _legendre_coeffs(f, n_terms):
    """c_n = (n + 1/2) int_{-1}^{1} f P_n on an n-point rule."""
    degrees = np.arange(n_terms)

    def coeffs(n):
        xs, w = gauss_rule(-1.0, 1.0, n)
        return (degrees + 0.5) * project(_legendre_columns(n_terms, xs), w, sample(f, xs))

    return coeffs


def _bessel_coeffs(f, n_terms):
    """int_0^1 r f J_0(alpha_k r) dr on an n-point rule."""
    alphas = np.array([bessel_zero(ZeroFamily.BESSEL_J, 0, k) for k in range(1, n_terms + 1)])

    def coeffs(n):
        rs, w = gauss_rule(0.0, 1.0, n)
        return project(bessel_j(0, np.multiply.outer(rs, alphas)), w * rs, sample(f, rs))

    return coeffs


def _bump(x0):
    return lambda x: np.exp(-0.5 * ((x - x0) / 0.003) ** 2)


@pytest.mark.parametrize("builder, cap", [(_legendre_coeffs, 160), (_bessel_coeffs, 256)])
def test_gauss_ladder_flags_a_narrow_bump(builder, cap):
    """A Gaussian of width 0.003 is not resolved by any rung, and the
    estimate says so; smooth data converges and says that too."""
    _, err = gauss_ladder(builder(_bump(0.31), 8), cap, 8)
    assert err > 1e-6
    _, err = gauss_ladder(builder(lambda x: np.exp(x) * np.cos(3.0 * x), 8), cap, 8)
    assert err < 1e-11


def test_gauss_ladder_runs_the_rungs_above_the_mode_floor():
    """Rungs halve every axis of the cap together; a rung with fewer than
    twice an axis's mode count of nodes on that axis is skipped, the cap
    never.  Rungs that never agree return the cap's coefficients."""
    seen = []

    def coeffs(sizes):
        seen.append(sizes)
        return np.array([1.0, float(len(seen))])

    got, err = gauss_ladder(coeffs, (128, 96), (3, 20))
    assert seen == [(64, 48), (128, 96)]
    assert got.tolist() == [1.0, 2.0] and err == 0.5
    seen.clear()
    got, err = gauss_ladder(coeffs, 160, 200)
    assert seen == [160] and math.isnan(err)
    seen.clear()
    gauss_ladder(lambda n: seen.append(n) or np.ones(3), 192, 2)
    assert seen == [24, 48]


def test_gauss_ladder_cap_only_is_the_fixed_rule():
    """80 Legendre terms leave only the 160-point cap: the coefficients are
    the fixed rule's, bit for bit, and there is no estimate."""
    f = lambda x: np.exp(x) * np.cos(3.0 * x)
    got, err = gauss_ladder(_legendre_coeffs(f, 80), 160, 80)
    xs, w = gauss_rule(-1.0, 1.0, 160)
    want = (np.arange(80) + 0.5) * project(_legendre_columns(80, xs), w, sample(f, xs))
    assert math.isnan(err)
    assert got.tobytes() == want.tobytes()


def test_gauss_ladder_stops_only_on_agreement():
    """A Gaussian of width 0.1 needs about 80 Legendre nodes: the 40-node
    rung is off by about 1e-11, so no rung below the cap agrees with the one
    before it, and the answer is the cap's."""
    f = lambda x: np.exp(-0.5 * ((x - 0.31) / 0.1) ** 2)
    got, err = gauss_ladder(_legendre_coeffs(f, 8), 160, 8)
    want = _legendre_coeffs(f, 8)(160)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert err < 1e-12
