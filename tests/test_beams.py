"""Beam spectra, mode shapes, free response and buckling."""

import math

import numpy as np
import pytest

from spectralbvp._quad import fixed_gauss
from spectralbvp.beams import (
    BeamBC,
    beam_char_roots,
    beam_mode,
    beam_mode_norm2_endpoint,
    beam_response,
    beam_spectrum,
    buckling_critical,
    free_free_zero_modes,
    _mode_derivatives,
    _mode_norm,
)


def test_clamped_clamped_roots():
    got = beam_char_roots("clamped_clamped", 3)
    for g, want in zip(got, (4.730, 7.853, 10.996)):
        assert abs(g - want) < 1e-3


def test_clamped_free_roots():
    got = beam_char_roots("clamped_free", 3)
    for g, want in zip(got, (1.875, 4.694, 7.854)):
        assert abs(g - want) < 1e-3


def test_pinned_roots_exact():
    got = beam_char_roots("pinned_pinned", 4)
    assert got == [math.pi * n for n in (1, 2, 3, 4)]


def test_characteristic_residuals():
    # raw residual for the first roots; beyond n ~ 4 the product
    # cosh(mu) cos(mu) saturates at cosh(mu) * eps in double precision, so
    # the bounded rescaled residual cos(mu) -+ sech(mu) is checked instead
    for bc, sign in (("clamped_clamped", -1.0), ("clamped_free", +1.0)):
        roots = beam_char_roots(bc, 6)
        for n, mu in enumerate(roots, start=1):
            raw = math.cosh(mu) * math.cos(mu) + sign
            if n <= 4:
                assert abs(raw) < 1e-9
            assert abs(math.cos(mu) + sign / math.cosh(mu)) < 5e-13


def test_root_asymptotics():
    cc = beam_char_roots("clamped_clamped", 6)
    cf = beam_char_roots("clamped_free", 6)
    for n in (4, 5, 6):
        assert abs(cc[n - 1] - math.pi * (n + 0.5)) < 1e-3
        assert abs(cf[n - 1] - math.pi * (n - 0.5)) < 1e-3


def test_clamped_boundary_conditions():
    for bc in ("clamped_clamped", "clamped_free", "clamped_pinned"):
        for n in (1, 2, 4):
            assert abs(beam_mode(bc, n, 0.0)) < 1e-9
            mu = beam_char_roots(bc, n)[n - 1]
            _, d1, _, _ = _mode_derivatives(BeamBC(bc), mu, 0.0)
            assert abs(d1) < 1e-12


def test_mode_orthonormality():
    l = 1.3
    for bc in ("clamped_clamped", "clamped_free"):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                val = fixed_gauss(
                    lambda x: beam_mode(bc, m, x, l) * beam_mode(bc, n, x, l), 0.0, l, n=256
                )
                want = 1.0 if m == n else 0.0
                assert abs(val - want) < 1e-7


def test_norm_identity_endpoint_vs_quadrature():
    for bc in ("clamped_clamped", "clamped_free", "clamped_pinned", "pinned_pinned", "free_free"):
        for n in range(1, 6):
            mu = beam_char_roots(bc, n)[n - 1]
            quad = _mode_norm(BeamBC(bc), mu, n) ** 2
            endpoint = beam_mode_norm2_endpoint(bc, n)
            assert abs(quad - endpoint) <= 1e-6 * abs(endpoint)


def test_mode_sign_changes():
    xs = np.linspace(0.0, 1.0, 4001)[1:-1]
    for bc in ("clamped_clamped", "clamped_free"):
        for n in range(1, 7):
            vals = np.array([beam_mode(bc, n, float(x)) for x in xs])
            changes = int(np.sum(np.signbit(vals[1:]) != np.signbit(vals[:-1])))
            assert changes == n - 1


def test_free_free_zero_modes_orthonormal():
    l = 2.0
    f1, f2 = free_free_zero_modes(l)
    assert fixed_gauss(lambda x: f1(x) ** 2, 0, l, n=16) == pytest.approx(1.0, rel=1e-12)
    assert fixed_gauss(lambda x: f2(x) ** 2, 0, l, n=16) == pytest.approx(1.0, rel=1e-12)
    assert abs(fixed_gauss(lambda x: f1(x) * f2(x), 0, l, n=16)) < 1e-14
    assert f1(0.3) == 1.0 / math.sqrt(l)


def test_free_free_printed_shape_satisfies_free_ends():
    # the (cosh+cos) - sigma (sinh+sin) combination with
    # sigma = (cosh mu - cos mu)/(sinh mu - sin mu) must have vanishing
    # second and third derivatives at both ends
    for n in (1, 2, 3):
        mu = beam_char_roots("free_free", n)[n - 1]
        for z in (0.0, mu):
            _, _, d2, d3 = _mode_derivatives(BeamBC.FREE_FREE, mu, z)
            assert abs(d2) < 1e-11
            assert abs(d3) < 1e-11


def test_beam_response_single_mode():
    spec = beam_spectrum("clamped_clamped", 3, c=2.0, l=1.0)
    u0 = lambda x: beam_mode("clamped_clamped", 1, x)
    w1 = spec.omega(1)
    for (x, t) in ((0.3, 0.0), (0.6, 0.4)):
        got = beam_response(spec, u0, None, 3, x, t)
        want = u0(x) * math.cos(w1 * t)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_beam_response_initial_condition():
    spec = beam_spectrum("clamped_free", 8, c=1.0, l=1.0)
    u0 = lambda x: x * x * (3.0 - 2.0 * x)
    err2 = fixed_gauss(
        lambda x: (beam_response(spec, u0, None, 8, x, 0.0) - u0(x)) ** 2, 0.0, 1.0, n=64
    )
    norm2 = fixed_gauss(lambda x: u0(x) ** 2, 0.0, 1.0, n=64)
    assert err2 < 1e-4 * norm2


def test_reported_frequencies():
    spec = beam_spectrum("clamped_clamped", 3, c=1.7, l=0.8)
    for n in (1, 2, 3):
        mu = spec.roots[n - 1]
        assert spec.omega(n) == pytest.approx(1.7 * mu * mu / 0.8**2, rel=1e-14)


def test_buckling_loads():
    e_mod, j_mom, l = 2.3, 0.7, 1.9
    assert buckling_critical("clamped_clamped", e_mod, j_mom, l) == pytest.approx(
        4 * math.pi**2 * e_mod * j_mom / l**2, rel=1e-8
    )
    assert buckling_critical("pinned_pinned", e_mod, j_mom, l) == pytest.approx(
        math.pi**2 * e_mod * j_mom / l**2, rel=1e-8
    )
    assert buckling_critical("clamped_free", e_mod, j_mom, l) == pytest.approx(
        math.pi**2 * e_mod * j_mom / (4 * l**2), rel=1e-8
    )


def test_buckling_unsupported_pair():
    with pytest.raises(ValueError):
        buckling_critical("free_free", 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "e_mod, j_mom, l",
    [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)],
)
def test_buckling_rejects_non_finite_input(e_mod, j_mom, l):
    with pytest.raises(ValueError, match="finite"):
        buckling_critical("clamped_clamped", e_mod, j_mom, l)


def test_beam_response_refuses_nonfinite_time():
    spec = beam_spectrum("clamped_clamped", 3, c=2.0, l=1.0)
    u0 = lambda x: beam_mode("clamped_clamped", 1, x)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="time must be finite"):
            beam_response(spec, u0, None, 3, 0.3, bad)
