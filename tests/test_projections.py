"""Projections of initial data on mode families: the data callable is
sampled once per quadrature rule, and scalar-only and vectorised versions
of the same data give the same coefficients."""

import math

import numpy as np
import pytest

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
    calls = []

    def t0(r, z):
        calls.append(np.shape(r))
        return np.cos(0.5 * np.pi * r) * np.cos(np.pi * z / 2.0)

    cylinder_cooling(1.0, 2.0, 1.0, t0, 6, 6, (0.3, 0.1), 0.05)
    assert calls == [(96, 96)]


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
