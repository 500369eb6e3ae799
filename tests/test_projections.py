"""Projections of initial data on mode families: the data callable is
sampled once per quadrature rule, and scalar-only and vectorised versions
of the same data give the same coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralbvp import (
    DIRICHLET,
    NEUMANN,
    BallSpec,
    BoundaryCondition,
    HeatMedium,
    WaveMedium,
    ball_solution,
    beam_response,
    beam_spectrum,
    cylinder_cooling,
    expand_series,
    heat_interval_modes,
    string_modes,
)
from spectralbvp._quad import gauss_rule, sample
from spectralbvp._series import project
from spectralbvp.beams import BeamBC, _shapes as _beam_shapes, beam_char_roots
from spectralbvp.geomnd import _ball_gamma, _ball_modes
from spectralbvp.intervals import uniform_basis
from spectralbvp.specfun import (
    ZeroFamily,
    _legendre_columns,
    bessel_j,
    bessel_j_prime,
    bessel_zero,
    spherical_bessel,
    spherical_bessel_zero,
)


def _counted_rz(f):
    """T0(r, z) wrapper counting the grid points it evaluated."""
    seen = [0]

    def t0(r, z):
        val = f(r, z)
        seen[0] += np.size(val)
        return val

    return t0, seen


@pytest.mark.parametrize("n_radial, n_axial", [(2, 3), (6, 6)])
def test_cylinder_samples_rz_data_once_per_grid(n_radial, n_axial):
    t0, seen = _counted_rz(lambda r, z: math.cos(0.5 * math.pi * r) * math.cos(math.pi * z / 2.0))
    val = cylinder_cooling(1.0, 2.0, 1.0, t0, n_radial, n_axial, (0.3, 0.1), 0.05)
    assert math.isfinite(val)
    assert seen[0] <= 96 * 96


def test_cylinder_calls_vectorised_rz_data_once():
    """Vectorised T0(r, z) is called once per Gauss rung, on the whole
    tensor grid: 12 x 12, 24 x 24 and 48 x 48, where two rungs agree."""
    calls = []

    def t0(r, z):
        calls.append(np.shape(r))
        return np.cos(0.5 * np.pi * r) * np.cos(np.pi * z / 2.0)

    cylinder_cooling(1.0, 2.0, 1.0, t0, 6, 6, (0.3, 0.1), 0.05)
    assert calls == [(12, 12), (24, 24), (48, 48)]


def test_ball_axisym_samples_data_once_per_grid():
    t0, seen = _counted_rz(lambda r, th: (1.0 - r * r) * (1.0 + math.cos(th)))
    val = ball_solution(BallSpec(radius=1.0), "axisym_cooling", t0, 3, (0.4, 0.7), 0.02)
    assert math.isfinite(val)
    assert seen[0] <= 128 * 96


def _coeff_gap(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def test_scalar_and_vectorised_data_agree_in_string_modes():
    medium = WaveMedium(a=1.3, l=1.7)
    for bc in ((DIRICHLET, DIRICHLET), (NEUMANN, BoundaryCondition.robin(0.8))):
        s = string_modes(medium, bc, lambda x: x * (1.7 - x) * math.exp(-x), lambda x: math.sin(3.0 * x), 64)
        v = string_modes(medium, bc, lambda x: x * (1.7 - x) * np.exp(-x), lambda x: np.sin(3.0 * x), 64)
        assert _coeff_gap([m.a_coef for m in s.laws], [m.a_coef for m in v.laws]) <= 1e-13
        assert _coeff_gap([m.b_coef for m in s.laws], [m.b_coef for m in v.laws]) <= 1e-13


def test_scalar_and_vectorised_data_agree_in_heat_interval_modes():
    medium = HeatMedium(a2=0.9)
    for bc in ((DIRICHLET, DIRICHLET), (BoundaryCondition.robin(1.5), NEUMANN)):
        s = heat_interval_modes(bc, lambda x: math.cos(x) + x * x, medium, 1.3, 32)
        v = heat_interval_modes(bc, lambda x: np.cos(x) + x * x, medium, 1.3, 32)
        assert _coeff_gap(s.coefficients, v.coefficients) <= 1e-13


def test_scalar_and_vectorised_data_agree_in_beam_response():
    for bc in ("clamped_clamped", "clamped_free", "pinned_pinned"):
        spectrum = beam_spectrum(bc, 8, c=1.1, l=1.4)
        s = beam_response(spectrum, lambda x: math.sin(x) * x, lambda x: math.cos(x), 8, 0.6, 0.3)
        v = beam_response(spectrum, lambda x: np.sin(x) * x, lambda x: np.cos(x), 8, 0.6, 0.3)
        assert s == pytest.approx(v, abs=1e-13)


def test_scalar_and_vectorised_data_agree_in_expand_series():
    s = expand_series("fourier_bessel", lambda r: math.exp(-r * r), 5, m=1, radius=1.3)
    v = expand_series("fourier_bessel", lambda r: np.exp(-r * r), 5, m=1, radius=1.3)
    assert _coeff_gap(s.coefficients, v.coefficients) <= 1e-13
    s = expand_series("legendre", lambda x: math.exp(x) * math.sin(x), 6)
    v = expand_series("legendre", lambda x: np.exp(x) * np.sin(x), 6)
    assert _coeff_gap(s.coefficients, v.coefficients) <= 1e-13


# ----------------------------------------------------------------------
# Gauss ladder against the fixed grids it is capped at
# ----------------------------------------------------------------------

def _smooth(kind, c, freq, length):
    """A vectorised data family on [0, length] (or [-1, 1]): a quadratic, an
    exponential or a cosine of up to ``freq`` radians per unit length."""
    if kind == "poly":
        return lambda x: c[0] + c[1] * x / length + c[2] * (x / length) ** 2
    if kind == "exp":
        return lambda x: c[0] + c[1] * np.exp(c[2] * x / length)
    return lambda x: c[0] + c[1] * np.cos(freq * x + c[2])


families = st.tuples(
    st.sampled_from(["poly", "exp", "cos"]),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3),
    st.floats(min_value=0.0, max_value=10.0),
)


# Each reference below is the solver's fixed-grid series written out, and
# returns its value with the rounding scale sum_n (|a_n| + s_n) sup|X_n| of
# tests/test_series.py, s_n the sum of the absolute quadrature summands of
# a_n: with data (nearly) orthogonal to the modes both values are rounding
# noise around zero, of that size.

def _sup(phi_nodes, phi_here):
    return np.maximum(np.max(np.abs(phi_nodes), axis=0), np.abs(phi_here))


def _fixed_ball_axisym(spec, t0, n_modes, r, theta, t):
    big_r = spec.radius
    rr, wr = gauss_rule(0.0, big_r, 128)
    xs, ws = gauss_rule(-1.0, 1.0, 96)
    data, legendre = sample(t0, rr, np.arccos(xs)), _legendre_columns(n_modes, xs)
    angular, angular_abs = project(legendre, ws, data), project(np.abs(legendre), ws, np.abs(data))
    p_here = _legendre_columns(n_modes, math.cos(theta))
    value = scale = 0.0
    for n in range(n_modes):
        alphas = np.array([spherical_bessel_zero(n, k) for k in range(1, n_modes + 1)])
        shapes = spherical_bessel("j", n, np.multiply.outer(rr, alphas) / big_r)
        norm = 0.5 * big_r**3 * spherical_bessel("j", n + 1, alphas) ** 2 * (2.0 / (2 * n + 1))
        coeff = project(shapes, wr * rr * rr, angular[:, n]) / norm
        summands = project(np.abs(shapes), wr * rr * rr, angular_abs[:, n]) / norm
        env = np.exp(-((alphas / big_r) ** 2) * spec.a2 * t)
        value += float((spherical_bessel("j", n, alphas * r / big_r) * p_here[n]) @ (coeff * env))
        scale += float(np.sum((np.abs(coeff) + summands) * env))  # |j_n|, |P_n| <= 1
    return value, scale


def _fixed_cylinder_rz(radius, height, a2, t0, n_radial, n_axial, point, t):
    alphas = np.array([bessel_zero(ZeroFamily.BESSEL_J, 0, k) for k in range(1, n_radial + 1)])
    norm = math.sqrt(2.0) / (radius * np.abs(bessel_j_prime(0, alphas)))
    chi = lambda r: norm * bessel_j(0, np.multiply.outer(r, alphas) / radius)
    axial = uniform_basis(height, DIRICHLET, DIRICHLET, n_axial)
    rr, wr = gauss_rule(0.0, radius, 96)
    zz, wz = gauss_rule(-height / 2.0, height / 2.0, 96)
    data, x_nodes, chi_nodes = sample(t0, rr, zz), axial._shapes(zz + height / 2.0), chi(rr)
    coef = project(chi_nodes, wr * rr, project(x_nodes, wz, data).T)
    summands = project(np.abs(chi_nodes), wr * rr, project(np.abs(x_nodes), wz, np.abs(data)).T)
    decay = np.exp(-np.add.outer(np.array(axial.eigenvalues), (alphas / radius) ** 2) * a2 * t)
    x_here, chi_here = axial._shapes(point[1] + height / 2.0), chi(point[0])
    value = float(x_here @ ((coef * decay) @ chi_here))
    sup = np.multiply.outer(_sup(x_nodes, x_here), _sup(chi_nodes, chi_here))
    return value, float(np.sum((np.abs(coef) + summands) * decay * sup))


def _fixed_ball_radial(spec, problem, data, n_modes, r, t):
    lam, phi = _ball_modes(spec, np.array([_ball_gamma(spec, k) for k in range(1, n_modes + 1)]))
    rr, w = gauss_rule(0.0, spec.radius, 256)
    phi_nodes, phi_here = phi(rr), phi(r)
    if problem == "cooling":
        values = sample(data, rr)
        a = 4.0 * math.pi * project(phi_nodes, w * rr * rr, values)
        summands = 4.0 * math.pi * project(np.abs(phi_nodes), w * rr * rr, np.abs(values))
        env = np.exp(-lam * spec.a2 * t)
    else:
        rate = lam * spec.a2
        a = data * spec.a2 * 4.0 * math.pi * project(phi_nodes, w, rr * rr)
        summands = abs(data) * spec.a2 * 4.0 * math.pi * project(np.abs(phi_nodes), w, rr * rr)
        env = (1.0 - np.exp(-rate * t)) / rate
    value = float(phi_here @ (a * env))
    return value, float(np.sum((np.abs(a) + summands) * env * _sup(phi_nodes, phi_here)))


def _fixed_laplace(spec, data, n_modes, r, theta):
    xs, w = gauss_rule(-1.0, 1.0, 160)
    degrees = np.arange(n_modes)
    values, legendre = sample(data, np.arccos(xs)), _legendre_columns(n_modes, xs)
    a = (degrees + 0.5) * project(legendre, w, values)
    summands = (degrees + 0.5) * project(np.abs(legendre), w, np.abs(values))
    radial = (r / spec.radius) ** degrees
    value = float(_legendre_columns(n_modes, math.cos(theta)) @ (a * radial))
    return value, float(np.sum((np.abs(a) + summands) * radial))  # |P_n| <= 1


def _fixed_beam(bc, n_modes, c, l, u0, v0, x, t):
    bc = BeamBC(bc)
    mus = np.array(beam_char_roots(bc, n_modes))
    xs, w = gauss_rule(0.0, l, 192)
    phi, phi_here = _beam_shapes(bc, mus, l, xs), _beam_shapes(bc, mus, l, x)
    u, v = sample(u0, xs), sample(v0, xs)
    a, b = project(phi, w, u), project(phi, w, v)
    omega = c * mus * mus / (l * l)
    value = float(phi_here @ (a * np.cos(omega * t) + b * np.sin(omega * t) / omega))
    parts = np.abs(a) + project(np.abs(phi), w, np.abs(u)) + (np.abs(b) + project(np.abs(phi), w, np.abs(v))) / omega
    return value, float(np.sum(parts * _sup(phi, phi_here)))


@settings(max_examples=30, deadline=None)
@given(
    rf=families,
    af=families,
    n_modes=st.integers(min_value=1, max_value=10),
    length=st.floats(min_value=0.5, max_value=2.0),
    u=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=0.3),
    bc=st.sampled_from([bc.value for bc in BeamBC]),
)
def test_ladder_values_match_the_fixed_grids(rf, af, n_modes, length, u, t, bc):
    """Every solver on the Gauss ladder returns its fixed-grid value to
    1e-13 of max|data| plus 1e-14 of the series' rounding scale, for data
    from smooth families (quadratics, exponentials, cosines of up to 10
    radians per unit length)."""
    f, g = _smooth(*rf, length), _smooth(*af, 1.0)
    r, theta = u * length, u * math.pi

    def close(got, fixed, *data_on_nodes):
        (want, scale), size = fixed, max(float(np.max(np.abs(d))) for d in data_on_nodes)
        assert abs(got - want) <= 1e-13 * size + 1e-14 * scale + 1e-300, (got, want, size, scale)

    rr, _ = gauss_rule(0.0, length, 256)
    xs, _ = gauss_rule(-1.0, 1.0, 160)
    ball = BallSpec(radius=length, a2=0.8)
    t0 = lambda rad, th: f(rad) * g(np.cos(th))
    close(ball_solution(ball, "axisym_cooling", t0, n_modes, (r, theta), t),
          _fixed_ball_axisym(ball, t0, n_modes, r, theta, t), sample(t0, rr, np.arccos(xs)))
    height = 1.3 * length
    t0 = lambda rad, z: f(rad) * g(z / height)
    point = (r, (u - 0.5) * height)
    zz, _ = gauss_rule(-height / 2.0, height / 2.0, 96)
    close(cylinder_cooling(length, height, 0.9, t0, n_modes, n_modes, point, t),
          _fixed_cylinder_rz(length, height, 0.9, t0, n_modes, n_modes, point, t), sample(t0, rr, zz))
    for spec in (ball, BallSpec(radius=length, bc="neumann", a2=0.8), BallSpec(radius=length, bc="robin", h=1.5)):
        close(ball_solution(spec, "cooling", f, n_modes, r, t), _fixed_ball_radial(spec, "cooling", f, n_modes, r, t),
              sample(f, rr))
        close(ball_solution(spec, "sources", 1.0, n_modes, r, t),
              _fixed_ball_radial(spec, "sources", 1.0, n_modes, r, t), np.ones(1))
    surface = lambda th: g(np.cos(th))
    close(ball_solution(ball, "laplace_dirichlet", surface, n_modes, (r, theta)),
          _fixed_laplace(ball, surface, n_modes, r, theta), sample(surface, np.arccos(xs)))
    spectrum = beam_spectrum(bc, n_modes, c=1.2, l=length)
    close(beam_response(spectrum, f, g, n_modes, r, t), _fixed_beam(bc, n_modes, 1.2, length, f, g, r, t),
          sample(f, rr), sample(g, rr))
