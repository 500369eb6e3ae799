"""Heat solvers: closed-form evolutions, kernel identities on the half-line,
interval modal relaxation, and the clamped-interval frequency kernel."""

import math

import numpy as np
import pytest

from spectralbvp._quad import adaptive_simpson
from spectralbvp.heat1d import (
    HeatMedium,
    freq_green_heat,
    gauss_kernel,
    heat_halfline_eval,
    heat_halfline_kernel,
    heat_interval_modes,
    heat_kernel,
    heat_line_eval,
)
from spectralbvp.sturm import DIRICHLET, NEUMANN, BoundaryCondition

MED = HeatMedium(a2=1.0)


# ----------------------------------------------------------------------
# Infinite line
# ----------------------------------------------------------------------

def test_gaussian_bump_closed_form():
    t0c, l = 3.0, 0.6
    med = HeatMedium(a2=0.8)
    u0 = lambda x: t0c * math.exp(-(x / l) ** 2)
    for (x, t) in ((0.0, 0.05), (0.4, 0.3), (-1.1, 0.8)):
        got = heat_line_eval(u0, med, x, t)
        s2 = l * l + 4 * med.a2 * t
        want = t0c * l / math.sqrt(s2) * math.exp(-x * x / s2)
        assert got == pytest.approx(want, rel=1e-6)


def test_step_initial_data():
    c = 2.0
    u0 = lambda x: c if x > 0 else (0.5 * c if x == 0 else 0.0)
    for (x, t) in ((0.3, 0.2), (-0.5, 0.7)):
        got = heat_line_eval(u0, MED, x, t)
        want = 0.5 * c * (1.0 + math.erf(x / math.sqrt(4 * t)))
        assert got == pytest.approx(want, abs=1e-9)


def test_constant_preserved():
    for (x, t) in ((0.0, 0.1), (2.0, 3.0)):
        assert heat_line_eval(lambda x: 4.2, MED, x, t) == pytest.approx(4.2, rel=1e-10)


def test_kernel_unit_mass_and_semigroup():
    t = 0.37
    mass = adaptive_simpson(lambda x: gauss_kernel(x - 0.2, 1.0, t), 0.2 - 10, 0.2 + 10, tol=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-8)
    # int G(x,y;t1) G(y,x';t2) dy = G(x,x';t1+t2)
    x, xp, t1, t2 = 0.3, -0.4, 0.2, 0.5
    conv = adaptive_simpson(
        lambda y: gauss_kernel(x - y, 1.0, t1) * gauss_kernel(y - xp, 1.0, t2), -12.0, 12.0, tol=1e-12
    )
    assert conv == pytest.approx(gauss_kernel(x - xp, 1.0, t1 + t2), abs=1e-7)


def test_delta_limit():
    u0 = lambda x: math.exp(-(x**2)) * (1 + x)
    x = 0.4
    errs = [abs(heat_line_eval(u0, MED, x, t) - u0(x)) for t in (1e-3, 5e-4, 2.5e-4)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 2e-3


def test_maximum_principle_proxy():
    m = 1.5
    u0 = lambda x: m * 0.5 * (1 + math.tanh(3 * x)) * math.exp(-0.01 * x * x)
    for (x, t) in ((0.0, 0.1), (1.0, 1.0), (-2.0, 0.4)):
        v = heat_line_eval(u0, MED, x, t)
        assert -1e-9 <= v <= m + 1e-9


def test_sink_factor():
    med_q = HeatMedium(a2=1.0, absorption=0.7)
    u0 = lambda x: math.exp(-(x**2))
    for (x, t) in ((0.2, 0.3), (1.0, 0.9)):
        assert heat_line_eval(u0, med_q, x, t) == pytest.approx(
            math.exp(-0.7 * t) * heat_line_eval(u0, MED, x, t), rel=1e-12
        )


def test_line_pde_residual_order():
    u0 = lambda x: math.exp(-(x**2))
    x0, t0 = 0.3, 0.4

    def residual(h):
        u = lambda x, t: heat_line_eval(u0, MED, x, t)
        ut = (u(x0, t0 + h * h) - u(x0, t0 - h * h)) / (2 * h * h)
        uxx = (u(x0 + h, t0) - 2 * u(x0, t0) + u(x0 - h, t0)) / (h * h)
        return abs(ut - uxx)

    r1, r2 = residual(0.05), residual(0.025)
    assert math.log2(r1 / r2) >= 1.8


# ----------------------------------------------------------------------
# Half-line
# ----------------------------------------------------------------------

def test_halfline_kernel_limits():
    x, xp, t = 0.4, 0.9, 0.35
    g_minus = gauss_kernel(x - xp, 1.0, t) - gauss_kernel(x + xp, 1.0, t)
    g_plus = gauss_kernel(x - xp, 1.0, t) + gauss_kernel(x + xp, 1.0, t)
    assert heat_halfline_kernel(math.inf, MED, x, xp, t) == pytest.approx(g_minus, rel=1e-14)
    assert heat_halfline_kernel(0.0, MED, x, xp, t) == pytest.approx(g_plus, rel=1e-14)
    # clamped end vanishes at the origin
    assert heat_halfline_kernel(math.inf, MED, 0.0, xp, t) == 0.0
    # large/small h approach the limits pointwise
    assert heat_halfline_kernel(8e5, MED, x, xp, t) == pytest.approx(g_minus, abs=1e-5)
    assert heat_halfline_kernel(1e-7, MED, x, xp, t) == pytest.approx(g_plus, abs=1e-6)


def test_halfline_kernel_closed_vs_quadrature():
    for h in (0.2, 1.0, 4.0, 25.0):
        for (x, xp, t) in ((0.3, 0.7, 0.5), (0.0, 1.2, 0.1), (2.0, 2.5, 1.4)):
            a = heat_halfline_kernel(h, MED, x, xp, t, method="closed")
            b = heat_halfline_kernel(h, MED, x, xp, t, method="quad")
            assert a == pytest.approx(b, abs=1e-10)


def test_halfline_kernel_spectral_form():
    # k-integral of exp(-a^2 k^2 t) X_k(x) X_k(x') with the bounded
    # half-line eigenfunctions, integrated panel-wise
    h, x, xp, t = 1.0, 0.3, 0.7, 0.5

    def xk(k, s):
        return math.sqrt(2.0 / math.pi) / math.sqrt(1.0 + h * h / (k * k)) * (
            math.cos(k * s) + h / k * math.sin(k * s)
        )

    kmax = 40.0 / math.sqrt(t)
    total = 0.0
    edges = np.linspace(1e-12, kmax, 80)
    for a, b in zip(edges[:-1], edges[1:]):
        total += adaptive_simpson(
            lambda k: math.exp(-k * k * t) * xk(k, x) * xk(k, xp), float(a), float(b), tol=1e-12
        )
    got = heat_halfline_kernel(h, MED, x, xp, t)
    assert got == pytest.approx(total, rel=1e-5)


def test_halfline_uniform_cooling():
    t0c = 5.0
    for (x, t) in ((0.8, 0.4), (0.1, 0.05), (2.5, 1.0)):
        got = heat_halfline_eval(lambda s: t0c, math.inf, MED, x, t)
        want = t0c * math.erf(x / math.sqrt(4 * t))
        assert got == pytest.approx(want, abs=1e-6)
    # insulated end keeps the uniform state
    assert heat_halfline_eval(lambda s: t0c, 0.0, MED, 0.8, 0.4) == pytest.approx(t0c, rel=1e-9)


def test_halfline_sink_variant():
    med_q = HeatMedium(a2=1.0, absorption=1.3)
    u0 = lambda s: math.exp(-s)
    got = heat_halfline_eval(u0, 0.5, med_q, 0.6, 0.3)
    base = heat_halfline_eval(u0, 0.5, MED, 0.6, 0.3)
    assert got == pytest.approx(math.exp(-1.3 * 0.3) * base, rel=1e-12)


# ----------------------------------------------------------------------
# Interval
# ----------------------------------------------------------------------

def test_slab_mean_temperature_drop_time():
    sol = heat_interval_modes((DIRICHLET, DIRICHLET), lambda x: 1.0, MED, 1.0, 40)
    tau1 = sol.relaxation_times[0]
    assert tau1 == pytest.approx(1.0 / math.pi**2, rel=1e-12)
    dt = math.log(10.0) * tau1
    assert abs(dt - 0.23) <= 0.03 * 0.23
    # the leading-mode amplitude at dt has dropped tenfold
    a1 = sol.coefficients[0]
    assert a1 * math.exp(-sol.basis.modes[0].lam * dt) == pytest.approx(a1 / 10.0, rel=1e-12)


def test_neumann_tube_equilibrium():
    c0, h_len, l = 3.0, 0.25, 1.0
    u0 = lambda x: c0 if x < h_len else 0.0
    sol = heat_interval_modes((NEUMANN, NEUMANN), u0, MED, l, 60)
    assert sol(0.8, 30.0) == pytest.approx(c0 * h_len / l, abs=5e-3 * c0)
    assert math.isinf(sol.relaxation_times[0])


def test_insulated_constant_stays():
    sol = heat_interval_modes((NEUMANN, NEUMANN), lambda x: 2.5, MED, 1.0, 20)
    for (x, t) in ((0.3, 0.01), (0.9, 5.0)):
        assert sol(x, t) == pytest.approx(2.5, abs=1e-7)


def test_large_time_log_slope():
    sol = heat_interval_modes((DIRICHLET, DIRICHLET), lambda x: x * (1 - x) + 0.2 * math.sin(3 * math.pi * x), MED, 1.0, 30)
    lam1 = sol.basis.modes[0].lam
    tau2 = sol.relaxation_times[1]
    t0 = 3.2 * tau2
    dt = 0.01
    x = 0.41
    slope = (math.log(abs(sol(x, t0 + dt))) - math.log(abs(sol(x, t0 - dt)))) / (2 * dt)
    assert slope == pytest.approx(-lam1, rel=0.01)


def test_short_time_truncation_warning():
    sol = heat_interval_modes((DIRICHLET, DIRICHLET), lambda x: 1.0, MED, 1.0, 8)
    with pytest.warns(UserWarning):
        sol(0.5, 1e-6)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_time_is_rejected(t):
    sol = heat_interval_modes((DIRICHLET, DIRICHLET), lambda x: 1.0, MED, 1.0, 8)
    with pytest.raises(ValueError, match="finite"):
        sol(0.5, t)
    with pytest.raises(ValueError, match="finite"):
        sol.mean(t)


BAD_KERNEL_PARAMETERS = {
    "halfline-h-nan": (lambda: heat_halfline_kernel(math.nan, MED, 0.3, 0.2, 0.1), "Robin parameter h"),
    "robin-kernel-h-nan": (lambda: heat_kernel("halfline_robin", MED, h=math.nan), "Robin parameter h"),
    "freq-omega-nan": (lambda: freq_green_heat(MED, 1.0, math.nan, 0.3, 0.7), "omega must be finite"),
    "freq-omega-inf": (lambda: freq_green_heat(MED, 1.0, math.inf, 0.3, 0.7), "omega must be finite"),
    "freq-omega-minus-inf": (lambda: freq_green_heat(MED, 1.0, -math.inf, 0.3, 0.7), "omega must be finite"),
    "freq-capacity-zero": (
        lambda: freq_green_heat(MED, 1.0, 2.0, 0.3, 0.7, volumetric_heat_capacity=0.0),
        "volumetric_heat_capacity",
    ),
    "freq-static-capacity-zero": (
        lambda: freq_green_heat(MED, 1.0, 0.0, 0.3, 0.7, volumetric_heat_capacity=0.0),
        "volumetric_heat_capacity",
    ),
    "gauss-s-nan": (lambda: gauss_kernel(math.nan, 1.0, 0.1), "got s = nan"),
    "halfline-x-nan": (lambda: heat_halfline_kernel(0.0, MED, math.nan, 0.2, 0.1), "got x = nan"),
    "halfline-robin-xp-nan": (lambda: heat_halfline_kernel(1.0, MED, 0.3, math.nan, 0.1), "x' = nan"),
    "halfline-eval-x-nan": (lambda: heat_halfline_eval(lambda x: 1.0, 0.0, MED, math.nan, 0.1), "got x = nan"),
    "freq-l-inf": (lambda: freq_green_heat(MED, math.inf, 1.0, 0.3, 0.7), "got l = inf"),
    "freq-l-zero": (lambda: freq_green_heat(MED, 0.0, 1.0, 0.0, 0.0), "got l = 0.0"),
}


@pytest.mark.parametrize("call, name", BAD_KERNEL_PARAMETERS.values(), ids=BAD_KERNEL_PARAMETERS.keys())
def test_kernels_name_a_bad_parameter(call, name):
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, 0.0])
def test_line_and_halfline_name_a_bad_time(t):
    one = lambda x: 1.0
    calls = [
        lambda: gauss_kernel(0.3, 1.0, t),
        lambda: heat_halfline_kernel(0.0, MED, 0.3, 0.2, t),
        lambda: heat_halfline_kernel(1.5, MED, 0.3, 0.2, t),
        lambda: heat_line_eval(one, MED, 0.3, t),
        lambda: heat_halfline_eval(one, 0.0, MED, 0.3, t),
        lambda: heat_halfline_eval(one, math.inf, MED, 0.3, t, source=lambda x, tau: 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"finite t > 0, got t = "):
            call()


def test_forced_interval_steady_state():
    # constant source with clamped ends relaxes to the parabolic profile
    # u(x) = f0 x(l-x)/(2 a2)
    f0, l = 2.0, 1.0
    sol = heat_interval_modes(
        (DIRICHLET, DIRICHLET), None, MED, l, 40, source=lambda x, t: f0
    )
    for x in (0.25, 0.5, 0.8):
        want = f0 * x * (l - x) / 2.0
        assert sol(x, 6.0) == pytest.approx(want, rel=1e-4, abs=1e-8)


def test_forced_interval_samples_source_once_per_time_node():
    """All 40 forced amplitudes share one time quadrature: the source is
    sampled once per tau node (one vectorised call over the projection
    grid), not once per mode and node."""
    taus = []

    def source(x, tau):
        taus.append(tau)
        return np.cos(2.0 * x) * (1.0 + tau)

    sol = heat_interval_modes((DIRICHLET, DIRICHLET), None, MED, 1.0, 40, source=source)
    sol(0.4, 1.0)
    assert taus and len(taus) == len(set(taus))


def test_forced_amplitudes_reused_at_one_time():
    """Single-point calls at one t share one Duhamel integral: three of them
    sample the source once per tau node in total, and a new t integrates
    again."""
    taus = []

    def source(x, tau):
        taus.append(tau)
        return np.cos(2.0 * x) * (1.0 + tau)

    sol = heat_interval_modes((DIRICHLET, DIRICHLET), None, MED, 1.0, 40, source=source)
    values = [sol(x, 1.0) for x in (0.2, 0.4, 0.7)]
    assert taus and len(taus) == len(set(taus))
    assert values == pytest.approx(sol(np.array([0.2, 0.4, 0.7]), 1.0), rel=1e-14)
    once = len(taus)
    sol(0.4, 0.5)
    assert len(taus) > once


def test_robin_interval_uses_robin_basis():
    bc = (BoundaryCondition.robin(1.0), BoundaryCondition.robin(1.0))
    sol = heat_interval_modes(bc, lambda x: 1.0, MED, 1.0, 8)
    from spectralbvp.intervals import robin_xi_roots

    xi1 = robin_xi_roots(1.0, 1.0, 1.0, 1)[0]
    assert sol.basis.modes[0].lam == pytest.approx(xi1 * xi1, rel=1e-12)


# ----------------------------------------------------------------------
# Frequency kernel
# ----------------------------------------------------------------------

def test_freq_kernel_static_limit():
    crho = 2.0
    med = HeatMedium(a2=0.5)
    l = 1.3
    for (x, xp) in ((0.3, 0.9), (1.0, 0.4)):
        got = freq_green_heat(med, l, 0.0, x, xp, volumetric_heat_capacity=crho)
        lo, hi = min(x, xp), max(x, xp)
        assert got == pytest.approx(lo * (l - hi) / (crho * med.a2 * l), rel=1e-13)
    # omega -> 0 continuity
    small = freq_green_heat(med, l, 1e-10, 0.3, 0.9, volumetric_heat_capacity=crho)
    static = freq_green_heat(med, l, 0.0, 0.3, 0.9, volumetric_heat_capacity=crho)
    assert abs(small - static) < 1e-10


def test_freq_kernel_dirichlet_walls():
    assert freq_green_heat(MED, 1.0, 2.0, 0.0, 0.6) == pytest.approx(0.0, abs=1e-15)
    assert freq_green_heat(MED, 1.0, 2.0, 1.0, 0.6) == pytest.approx(0.0, abs=1e-12)


def test_freq_kernel_derivative_jump():
    crho, l, omega, xp = 1.0, 1.0, 2.0, 0.5
    eps = 1e-8
    g = lambda x: freq_green_heat(MED, l, omega, x, xp, volumetric_heat_capacity=crho)
    dl = (g(xp - eps) - g(xp - 3 * eps)) / (2 * eps)
    dr = (g(xp + 3 * eps) - g(xp + eps)) / (2 * eps)
    jump = dl - dr
    assert abs(jump - 1.0 / (crho * 1.0)) < 1e-6


def test_freq_kernel_branch_symmetry():
    # negative frequencies give the conjugate response
    g_pos = freq_green_heat(MED, 1.0, 2.0, 0.3, 0.7)
    g_neg = freq_green_heat(MED, 1.0, -2.0, 0.3, 0.7)
    assert g_neg == pytest.approx(g_pos.conjugate(), rel=1e-12)


def test_heat_kernel_wrapper():
    from spectralbvp.heat1d import heat_kernel

    med = HeatMedium(a2=0.7)
    line = heat_kernel("line", med)
    assert line(0.3, -0.2, 0.4) == pytest.approx(gauss_kernel(0.5, 0.7, 0.4), rel=1e-14)
    clamped = heat_kernel("halfline_dirichlet", med)
    assert clamped(0.0, 0.5, 0.2) == 0.0
    insulated = heat_kernel("halfline_neumann", med)
    robin = heat_kernel("halfline_robin", med, h=1.2)
    xs = np.linspace(0.0, 3.0, 13)
    for x in xs:
        for xp in (0.2, 1.1):
            for t in (0.05, 0.8):
                for kern in (line, clamped, insulated, robin):
                    assert kern(float(x), xp, t) >= -1e-12
    with pytest.raises(ValueError):
        heat_kernel("annulus", med)
