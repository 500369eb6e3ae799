"""Special functions and mode shapes on arrays: one call gives the
per-element scalar values, across every regime boundary, and agrees with
scipy.special within the stated bounds; ``_quad.sample`` evaluates each
package mode shape once per grid."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralbvp import (
    DIRICHLET,
    NEUMANN,
    BallSpec,
    BeamBC,
    BoundaryCondition,
    DiskMembrane,
    RectMembrane,
    SLProblem,
    ball_radial_modes,
    ball_solution,
    beam_mode,
    disk_membrane_modes,
    eigen_solve,
    rayleigh_quotient,
    rect_membrane_modes,
    specfun,
)
from spectralbvp import _quad, geomnd
from spectralbvp.intervals import uniform_basis
from spectralbvp._quad import fixed_gauss, gauss_rule, sample
from spectralbvp._rootfind import refine_root, scan_brackets
from spectralbvp._vec import _FEW

special = pytest.importorskip("scipy.special")

MAX_ORDER = 40


def _boundaries(order: int) -> list[float]:
    """Regime edges of the special functions of this order, both sides:
    the leading-term edge 1e-9, the Hankel edge 20 of J_0, J_1 and the N
    seeds, the end max(20, m) of J_m's sweep, and m, whose float below ends
    j_m's sweep."""
    edges = [0.0, 0.5, 1e-9, 20.0, float(order), float(max(20, order))]
    near = [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    pts = edges + near
    return pts + [-p for p in pts]


@st.composite
def order_and_points(draw, lo=-60.0, hi=60.0, max_order=MAX_ORDER):
    order = draw(st.integers(min_value=0, max_value=max_order))
    point = st.one_of(
        st.sampled_from([p for p in _boundaries(order) if lo <= p <= hi]),
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
    )
    xs = draw(st.lists(point, min_size=1, max_size=24))
    return order, np.array(xs)


def assert_matches_scalars(fn, xs, tol=0.0):
    """fn on the array equals fn element by element, bit for bit; scalars
    come back as Python floats.  The array is also taken with each element
    repeated past ``_vec._FEW``, so that every regime's kernel runs once on
    an array rather than on each element.  A function whose kernels call
    numpy's log or exp (N_m, N_m', Q_n) passes tol = 1e-14: those may round
    an ulp apart from math's, and the values then agree to tol relative,
    floored at 1.  Arithmetic, sqrt, sin and cos round alike in both."""
    got = fn(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    many = fn(np.repeat(xs, _FEW + 1))[:: _FEW + 1]
    for x, a, b in zip(xs.tolist(), got.tolist(), many.tolist()):
        s = fn(x)
        assert type(s) is float
        for v in (a, b):
            same = v == s or (math.isnan(v) and math.isnan(s))
            assert same or abs(v - s) <= tol * max(1.0, abs(s)), (x, v, s)
    return got


@settings(max_examples=150, deadline=None)
@given(order_and_points())
def test_bessel_j_array_path(case):
    m, xs = case
    got = assert_matches_scalars(lambda x: specfun.bessel_j(m, x), xs)
    ev = specfun.bessel_j_eval(m, xs)
    assert np.array_equal(ev.value, got)
    assert np.all(np.abs(got - special.jv(m, xs)) <= ev.abs_error_bound)
    assert np.all(ev.abs_error_bound < 1e-9)
    for x, b in zip(xs.tolist(), ev.abs_error_bound.tolist()):
        assert abs(b - specfun.bessel_j_eval(m, x).abs_error_bound) <= 1e-14 * b


@settings(max_examples=100, deadline=None)
@given(order_and_points())
def test_bessel_j_prime_array_path(case):
    m, xs = case
    got = assert_matches_scalars(lambda x: specfun.bessel_j_prime(m, x), xs)
    # J_m' = (J_{m-1} - J_{m+1})/2 inherits the bounds of its two terms
    bound = sum(0.5 * specfun.bessel_j_eval(k, xs).abs_error_bound for k in {abs(m - 1), m + 1})
    assert np.all(np.abs(got - special.jvp(m, xs)) <= bound + 1e-15)


@settings(max_examples=100, deadline=None)
@given(order_and_points(lo=1e-3))
def test_bessel_n_array_path(case):
    m, xs = case
    got = assert_matches_scalars(lambda x: specfun.bessel_n(m, x), xs, tol=1e-14)
    assert np.allclose(got, special.yv(m, xs), rtol=1e-10, atol=1e-10)
    assert_matches_scalars(lambda x: specfun.bessel_n_prime(m, x), xs, tol=1e-14)


@settings(max_examples=150, deadline=None)
@given(order_and_points())
def test_spherical_bessel_array_path(case):
    n, xs = case
    got = assert_matches_scalars(lambda x: specfun.spherical_bessel("j", n, x), xs)
    want = special.spherical_jn(n, xs)
    finite = np.isfinite(want)  # scipy gives NaN at subnormal x
    assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-12)
    xs = xs[xs != 0.0]
    if xs.size:
        got = assert_matches_scalars(lambda x: specfun.spherical_bessel("y", n, x), xs)
        want = special.spherical_yn(n, xs)
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=1e-10, atol=1e-12)


def _legendre_q_reference(n: int, x: float) -> float:
    """Q_n by the Bonnet recurrence from Q_0 = atanh x, Q_1 = x Q_0 - 1."""
    q0, q1 = math.atanh(x), x * math.atanh(x) - 1.0
    if n == 0:
        return q0
    for k in range(1, n):
        q0, q1 = q1, ((2 * k + 1) * x * q1 - k * q0) / (k + 1)
    return q1


@settings(max_examples=150, deadline=None)
@given(order_and_points(lo=-1.0, hi=1.0))
def test_legendre_array_paths(case):
    n, xs = case
    got = assert_matches_scalars(lambda x: specfun.legendre("P", n, x), xs)
    assert np.allclose(got, special.eval_legendre(n, xs), rtol=0.0, atol=1e-12)
    for m in sorted({0, 1, 2, n // 2, n, n + 1}):
        got = assert_matches_scalars(lambda x: specfun.assoc_legendre(n, m, x), xs)
        # scipy's assoc_legendre_p carries the Condon-Shortley phase (-1)^m;
        # its lpmv loses digits near 0 (1e-8 relative for P_13^6 at 1e-9)
        want = (-1.0) ** m * special.assoc_legendre_p(n, m, xs)[0]
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * max(1.0, np.max(np.abs(want))))
    inner = xs[np.abs(xs) < 1.0]
    if inner.size:
        got = assert_matches_scalars(lambda x: specfun.legendre("Q", n, x), inner, tol=1e-14)
        want = np.array([_legendre_q_reference(n, x) for x in inner.tolist()])
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


TINY = [5e-324, 1e-320, 1e-310, 5e-309, 1e-308, 2.225073858507201e-308, 2.2250738585072014e-308]
HALF = [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]


@st.composite
def high_order_and_points(draw):
    """An order up to 200 and points from the subnormals, 1e-300 .. 1e-5,
    0.5 and its neighbouring floats, +-m and uniform draws, either sign."""
    order = draw(st.integers(min_value=0, max_value=200))
    point = st.one_of(
        st.sampled_from(TINY + HALF + [float(order)]),
        st.floats(min_value=5e-324, max_value=TINY[-1]),
        st.floats(min_value=-300.0, max_value=-5.0).map(lambda e: 10.0**e),
        st.floats(min_value=0.0, max_value=250.0),
    )
    xs = draw(st.lists(st.tuples(point, st.booleans()), min_size=1, max_size=24))
    return order, np.array([-x if neg else x for x, neg in xs])


def _n_prime_reference(m, x):
    """N_m' = -N_{m+1} + (m/x) N_m from scipy's integer-order yn (yv and yvp
    are NaN or -inf at subnormal x); where it meets inf - inf, the +inf of
    -N_{m+1} dominates."""
    v = -special.yn(m + 1, x) + m / x * special.yn(m, x)
    return np.where(np.isnan(v), -special.yn(m + 1, x), v)


@settings(max_examples=200, deadline=None)
@given(high_order_and_points())
def test_bessel_families_finite_at_every_order(case):
    """Every order up to 200, from subnormal to large x: no NaN and no numpy
    warning, arrays equal their per-element scalars, every infinity has the
    sign that scipy gives and every zero returned is a zero of scipy.  J_m
    lies within ``bessel_j_eval``'s bound everywhere and within
    1e-14 max(1, |J|) of scipy on the sweep's |x| <= max(12, m); N_0 and
    N_1 lie within 1e-14 max(1, |N|) of scipy on (0, 12]."""
    m, xs = case
    nonzero = xs[xs != 0.0]
    positive = np.abs(nonzero)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases = [
            (lambda x: specfun.bessel_j(m, x), xs, special.jv(m, xs), 0.0),
            (lambda x: specfun.bessel_n(m, x), positive, special.yn(m, positive), 1e-14),
            (lambda x: specfun.bessel_n_prime(m, x), positive, _n_prime_reference(m, positive), 1e-14),
            (lambda x: specfun.spherical_bessel("j", m, x), xs, special.spherical_jn(m, xs), 0.0),
            (lambda x: specfun.spherical_bessel("y", m, x), nonzero, special.spherical_yn(m, nonzero), 0.0),
        ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, x, want, tol in cases:
            if not x.size:
                continue
            got = assert_matches_scalars(fn, x, tol)
            assert not np.isnan(got).any(), (x, got)
            known = ~np.isnan(want)  # scipy's spherical_jn is NaN at subnormal x
            x, got, want = x[known], got[known], want[known]
            inf = np.isinf(got) | np.isinf(want)
            assert np.array_equal(np.sign(got[inf]), np.sign(want[inf])), (x[inf], got[inf], want[inf])
            # scipy underflows to 0 early (jv(128, 0.5) is 0, not 2.2e-293)
            assert np.all(want[got == 0.0] == 0.0), (x, got, want)
    j = specfun.bessel_j_eval(m, xs)
    err = np.abs(j.value - special.jv(m, xs))
    assert np.all(err <= j.abs_error_bound), (xs, err, j.abs_error_bound)
    sweep = np.abs(xs) <= max(12, m)
    assert np.all(err[sweep] <= 1e-14 * np.maximum(1.0, np.abs(j.value[sweep]))), (xs, err)
    low = positive[positive <= 12.0]
    for order in (0, 1):
        got, want = specfun.bessel_n(order, low), special.yn(order, low)
        # scipy's N_1 = -2/(pi x) overflows to -inf below x ~ 5e-309, a little
        # before the value leaves the float range; the signs are checked above
        finite = np.isfinite(want)
        err = np.abs(got[finite] - want[finite])
        assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(want[finite]))), (low, err)


def test_array_shapes_and_domain_checks():
    grid = np.linspace(0.1, 3.0, 12).reshape(3, 4)
    assert specfun.bessel_j(2, grid).shape == (3, 4)
    assert specfun.legendre("P", 3, grid / 3.0).shape == (3, 4)
    assert type(specfun.bessel_j(1, np.float64(2.0))) is float
    assert type(specfun.spherical_bessel("j", 2, np.array(1.5))) is float
    assert type(specfun.legendre("P", 0, 0.3)) is float
    assert np.array_equal(specfun.legendre("P", 0, grid / 3.0), np.ones((3, 4)))
    with pytest.raises(ValueError):
        specfun.bessel_n(0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        specfun.spherical_bessel("y", 1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        specfun.legendre("P", 2, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        specfun.legendre("Q", 2, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        specfun.assoc_legendre(3, 1, np.array([-1.5]))
    with pytest.raises(ValueError):
        beam_mode("clamped_free", 1, np.array([0.5, 1.2]))


# ----------------------------------------------------------------------
# Mode shapes: one vectorised call per sampled grid
# ----------------------------------------------------------------------

def _counted(shape):
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        return shape(*args)

    return wrapped, calls


def _interval_shapes():
    robin = BoundaryCondition.robin(1.7)
    for left, right in [
        (DIRICHLET, DIRICHLET),
        (DIRICHLET, NEUMANN),
        (DIRICHLET, robin),
        (NEUMANN, DIRICHLET),
        (robin, DIRICHLET),
        (NEUMANN, NEUMANN),
        (robin, BoundaryCondition.robin(0.4)),
    ]:
        for mode in uniform_basis(1.3, left, right, 4).modes:
            yield mode.shape, 1.3
            yield mode.shape_prime, 1.3


def _one_d_shapes():
    yield from _interval_shapes()
    for bc in BeamBC:
        for n in (1, 3):
            yield (lambda x, bc=bc, n=n: beam_mode(bc, n, x, 1.7)), 1.7
    for bc, h in (("dirichlet", 0.0), ("neumann", 0.0), ("robin", 1.5)):
        spec = BallSpec(radius=1.2, bc=bc, h=h)
        for k in (1, 2):
            yield ball_radial_modes(spec, k)[1], 1.2
    disk = DiskMembrane(radius=0.9)
    for m in (0, 2):
        yield geomnd._disk_radial(disk, m, 2)[1], 0.9
    for n in (0, 3):
        alpha = specfun.spherical_bessel_zero(n, 2)
        yield (lambda s, n=n, a=alpha: specfun.spherical_bessel("j", n, a * s / 1.2)), 1.2
    for n in (0, 1, 5):
        yield (lambda x, n=n: specfun.legendre("P", n, 2.0 * x - 1.0)), 1.0
        yield (lambda x, n=n: specfun.assoc_legendre(n + 2, 2, 2.0 * x - 1.0)), 1.0


def test_interval_disk_and_ball_shapes_equal_their_scalars():
    """These shapes run only arithmetic, sqrt, sin and cos, so an array call
    gives the bits of the float calls, on both sides of ``_FEW``."""
    xs = np.concatenate(([0.0, 1.0], gauss_rule(0.0, 1.0, 20)[0]))
    for shape, length in _interval_shapes():
        assert_matches_scalars(shape, length * xs)
    for bc, h in (("dirichlet", 0.0), ("neumann", 0.0), ("robin", 1.5)):
        assert_matches_scalars(ball_radial_modes(BallSpec(radius=1.2, bc=bc, h=h), 2)[1], 1.2 * xs)
    for m in (0, 2, 25):
        assert_matches_scalars(geomnd._disk_radial(DiskMembrane(radius=0.9), m, 2)[1], 0.9 * xs)


def test_sample_calls_each_mode_shape_once():
    for shape, length in _one_d_shapes():
        xs, _ = gauss_rule(0.0, length, 64)
        counted, calls = _counted(shape)
        vals = sample(counted, xs)
        assert calls[0] == 1
        per_point = np.array([shape(x) for x in xs.tolist()])
        assert np.allclose(vals, per_point, rtol=1e-14, atol=1e-14)


def test_sample_calls_each_two_dimensional_mode_once():
    rect = RectMembrane(1.0, 1.5, bc_x=("free", "free"), bc_y=("fixed", "free"))
    disk = DiskMembrane(radius=1.1)
    modes = [
        (rect_membrane_modes(rect, 0, 2)[1], (0.0, 1.0), (0.0, 1.5)),
        (rect_membrane_modes(rect, 3, 1)[1], (0.0, 1.0), (0.0, 1.5)),
        (disk_membrane_modes(disk, 0, 2)[1], (0.0, 1.1), (0.0, 2 * math.pi)),
        (disk_membrane_modes(disk, 2, 1, "sin")[1], (0.0, 1.1), (0.0, 2 * math.pi)),
    ]
    for mode, (a0, a1), (b0, b1) in modes:
        xs, _ = gauss_rule(a0, a1, 24)
        ys, _ = gauss_rule(b0, b1, 20)
        counted, calls = _counted(mode)
        vals = sample(counted, xs, ys)
        assert calls[0] == 1
        per_point = np.array([[mode(x, y) for y in ys.tolist()] for x in xs.tolist()])
        assert np.allclose(vals, per_point, rtol=1e-14, atol=1e-14)


def test_axisym_cooling_evaluates_shapes_per_mode(monkeypatch):
    """Each angular order n costs one array call of j_n over each Gauss
    rung's radial nodes and all its radial roots, one for the closed-form
    norms (j_{n+1} at the roots) and one for the point values, not one call
    per (n, k) term or a 192-point norm rule.  Constant data stops the
    ladder at its second rung, 32 x 24.  The rung tables are counted on a
    cold mode-table cache, this test's own."""
    monkeypatch.setattr(_quad, "_TABLES", _quad._ArrayCache())
    calls = []

    def counted(kind, n, x):
        calls.append((n, np.shape(x)))
        return specfun.spherical_bessel(kind, n, x)

    monkeypatch.setattr(geomnd, "spherical_bessel", counted)
    spec = BallSpec(radius=1.3, a2=0.7)
    n_modes = 3
    ball_solution(spec, "axisym_cooling", lambda r, th: 1.0 + 0.0 * r, n_modes, (0.4, 1.1), 0.05)
    norms = [(n + 1, (n_modes,)) for n in range(n_modes)]
    rungs = [(n, (n_r, n_modes)) for n_r in (16, 32) for n in range(n_modes)]
    points = [(n, (n_modes,)) for n in range(n_modes)]
    assert calls == norms + rungs + points


def test_disk_axisym_builds_its_radial_family_once(monkeypatch):
    """One solve reads its roots from one zero table and evaluates J_0' once
    for all the norms, J_0 once per Gauss rung (shared by u0 and v0) and
    once at the point, on a cold mode-table cache (this test's own)."""
    monkeypatch.setattr(_quad, "_TABLES", _quad._ArrayCache())
    counts = {}
    for name in ("zero_table", "bessel_j_prime"):
        counts[name] = _counted(getattr(geomnd, name))
        monkeypatch.setattr(geomnd, name, counts[name][0])
    rungs, j0_shapes = [], []

    def rule(a, b, n):
        rungs.append(n)
        return gauss_rule(a, b, n)

    def j0(m, x):
        j0_shapes.append(np.shape(x))
        return specfun.bessel_j(m, x)

    monkeypatch.setattr(geomnd, "gauss_rule", rule)
    monkeypatch.setattr(geomnd, "bessel_j", j0)
    n_modes = 6
    geomnd.disk_axisym_solution(DiskMembrane(radius=1.1), lambda r: 1.21 - r * r, lambda r: 0.3 * r, n_modes, 0.4, 0.7)
    assert {name: calls[0] for name, (_, calls) in counts.items()} == {"zero_table": 1, "bessel_j_prime": 1}
    assert len(rungs) >= 2
    assert j0_shapes == [(n, n_modes) for n in rungs] + [(n_modes,)]


def test_radial_norm_closed_form_matches_quadrature():
    for big_r in (0.6, 1.0, 2.3):
        for n in range(0, 5):
            for k in range(1, 5):
                alpha = specfun.spherical_bessel_zero(n, k)
                quad = fixed_gauss(
                    lambda r: r * r * specfun.spherical_bessel("j", n, alpha * r / big_r) ** 2, 0.0, big_r, n=192
                )
                assert geomnd._ball_radial_norm(n, alpha, big_r) == pytest.approx(quad, rel=1e-12)


# ----------------------------------------------------------------------
# Sturm coefficient sampling through _quad.sample
# ----------------------------------------------------------------------

def _scalar_problem():
    p = lambda x: 1.0 + 0.3 * math.sin(2.0 * x)
    q = lambda x: 0.5 * math.cos(x) ** 2
    rho = lambda x: 1.0 + 0.2 * x
    return p, q, rho


def test_sl_problem_samples_vectorised_coefficients_once():
    p, q, rho = _scalar_problem()
    vp, cp = _counted(lambda x: 1.0 + 0.3 * np.sin(2.0 * x))
    vq, cq = _counted(lambda x: 0.5 * np.cos(x) ** 2)
    vr, cr = _counted(lambda x: 1.0 + 0.2 * x)
    fast = SLProblem(vp, vq, vr, 1.0, DIRICHLET, BoundaryCondition.robin(0.8), grid_size=256)
    slow = SLProblem(p, q, rho, 1.0, DIRICHLET, BoundaryCondition.robin(0.8), grid_size=256)
    assert (cp[0], cq[0], cr[0]) == (1, 1, 1)
    assert np.allclose(fast._p, slow._p, rtol=1e-15, atol=0.0)
    assert np.allclose(fast._q, slow._q, rtol=1e-15, atol=1e-16)
    assert np.array_equal(fast._rho, slow._rho)


def test_coefficient_and_rayleigh_quotient_unchanged_for_scalar_callables():
    p, q, rho = _scalar_problem()
    prob = SLProblem(p, q, rho, 1.0, NEUMANN, DIRICHLET, grid_size=256)
    basis = eigen_solve(prob, 2)
    # plain arithmetic, which rounds the same on a float and on an array
    f = lambda x: (1.0 - x) * (1.0 + x * (0.4 - 0.3 * x))
    fprime = lambda x: -0.6 + x * (-1.4 + 0.9 * x)
    # float() of an array of several points raises TypeError: called point by point
    scalar = lambda g: lambda x: g(float(x))
    for n in (1, 2):
        assert basis.coefficient(scalar(f), n) == basis.coefficient(f, n)
    for deriv in (None, fprime):
        want = rayleigh_quotient(prob, f, deriv)
        assert rayleigh_quotient(prob, scalar(f), deriv and scalar(deriv)) == want


# ----------------------------------------------------------------------
# Brent root finder
# ----------------------------------------------------------------------

def _counting(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


def test_refine_root_first_bessel_zero_in_few_evaluations():
    j0 = lambda x: specfun.bessel_j(0, x)
    a, b = next(scan_brackets(j0, 1e-9, math.pi / 8.0))
    f, calls = _counting(j0)
    root = refine_root(f, a, b, ftol=1e-15)
    assert calls[0] <= 12
    assert root == pytest.approx(2.404825557695773, abs=4e-15)


def test_refine_root_zero_tables_stay_cheap():
    calls = 0
    roots = 0
    for m in range(0, 7):
        g = lambda x, m=m: specfun.bessel_j(m, x)
        for _, (a, b) in zip(range(9), scan_brackets(g, 1e-9 if m == 0 else 0.5 * m, math.pi / 8.0)):
            f, c = _counting(g)
            root = refine_root(f, a, b, ftol=1e-15)
            assert a <= root <= b
            assert root == pytest.approx(special.jn_zeros(m, 9)[roots % 9], abs=1e-10)
            calls += c[0]
            roots += 1
    assert calls / roots <= 10.0


@settings(max_examples=200, deadline=None)
@given(
    shift=st.floats(min_value=-5.0, max_value=5.0),
    width=st.floats(min_value=1e-6, max_value=10.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    power=st.sampled_from([1, 3, 5]),
)
def test_refine_root_stays_in_bracket(shift, width, frac, power):
    root = shift + frac * width
    f = lambda x: (x - root) ** power + 0.1 * (x - root)
    a, b = shift, shift + width
    if f(a) * f(b) > 0.0:
        return
    got = refine_root(f, a, b, ftol=1e-14)
    assert a <= got <= b
    assert abs(got - root) <= 1e-9 * max(1.0, abs(root))
