"""Wave dynamics: travelling-wave closed forms, parity continuation, forced
response, modal solutions and their energy bookkeeping, jump overshoot, and
the string response kernels."""

import math

import numpy as np
import pytest

from spectralbvp import GIBBS_CONSTANT
from spectralbvp.sturm import DIRICHLET, NEUMANN, BoundaryCondition
from spectralbvp.waves1d import (
    ModeLaw,
    ModeRegime,
    ResonanceError,
    WaveMedium,
    dalembert,
    damped_modes,
    duhamel_forced,
    extend,
    freq_green_string,
    gibbs_partial_sum,
    halfline_eval,
    string_modes,
    time_green_string,
)

FIXED_ENDS = (DIRICHLET, DIRICHLET)


# ----------------------------------------------------------------------
# d'Alembert and continuation
# ----------------------------------------------------------------------

def test_dalembert_gaussian_at_origin():
    amp, l, a = 1.3, 0.8, 2.0
    u0 = lambda x: amp * math.exp(-(x / l) ** 2)
    for t in (0.0, 0.3, 1.1):
        got = dalembert(u0, None, a, 0.0, t)
        assert got == pytest.approx(amp * math.exp(-((a * t / l) ** 2)), rel=1e-13)


def test_dalembert_velocity_plateau():
    v0c, l, a = 0.7, 0.5, 3.0
    v0 = lambda x: v0c if -l <= x <= l else 0.0
    t = 2.0 * l / a  # t > l/a
    assert dalembert(lambda x: 0.0, v0, a, 0.0, t) == pytest.approx(l * v0c / a, abs=1e-9)


def test_dalembert_initial_condition():
    u0 = lambda x: math.cos(3 * x)
    assert dalembert(u0, None, 1.0, 0.4, 0.0) == u0(0.4)


def test_extension_parities_and_periods():
    base = lambda x: x * (1.0 - x) * math.exp(x)
    l = 1.0
    f_odd = extend(base, "odd0_odd_l", l)
    f_mixed = extend(base, "odd0_even_l", l)
    f_even = extend(base, "even0_even_l", l)
    for x in (0.13, 0.4, 0.77):
        assert f_odd(-x) == pytest.approx(-base(x), rel=1e-13)
        assert f_odd(x + 2 * l) == pytest.approx(base(x), rel=1e-13)
        assert f_mixed(x + 4 * l) == pytest.approx(base(x), rel=1e-13)
        assert f_mixed(2 * l - x) == pytest.approx(base(x), rel=1e-13)  # even about l
        assert f_even(-x) == pytest.approx(base(x), rel=1e-13)
        assert f_even(x + 2 * l) == pytest.approx(base(x), rel=1e-13)


def test_halfline_equals_dalembert_on_extension():
    rng = np.random.default_rng(7)
    base_u = lambda x: math.sin(math.pi * x) * math.exp(-x)
    base_v = lambda x: x * math.exp(-2 * x)
    a = 1.7
    # fixed end <-> odd extension about the origin
    u_ext = lambda x: base_u(x) if x >= 0 else -base_u(-x)
    v_ext = lambda x: base_v(x) if x >= 0 else -base_v(-x)
    for _ in range(500):
        x = float(rng.uniform(0.01, 3.0))
        t = float(rng.uniform(0.0, 2.0))
        direct = halfline_eval(base_u, base_v, "fixed", a, x, t)
        via_ext = dalembert(u_ext, v_ext, a, x, t)
        assert abs(direct - via_ext) < 1e-12


def test_halfline_reflection_phases():
    a = 1.0
    x0, width = 2.0, 0.25
    bump = lambda x: math.exp(-(((x - x0)) / width) ** 2)
    t_late = 4.0  # reflected pulse has travelled back past x0
    probe = a * t_late - x0  # position of the reflected peak
    fixed = halfline_eval(bump, None, "fixed", a, probe, t_late)
    free = halfline_eval(bump, None, "free", a, probe, t_late)
    assert fixed == pytest.approx(-0.5, abs=1e-6)  # inverted
    assert free == pytest.approx(0.5, abs=1e-6)    # same phase
    # ahead of the reflection front the solution matches the infinite line
    x_far = a * t_late + x0 + 1.0
    assert halfline_eval(bump, None, "fixed", a, x_far, t_late) == pytest.approx(
        dalembert(bump, None, a, x_far, t_late), abs=1e-13
    )


def test_duhamel_constant_force():
    f0, a = 0.9, 1.4
    for (x, t) in ((0.0, 0.7), (2.0, 1.2)):
        got = duhamel_forced(lambda xx, tt: f0, a, x, t)
        assert got == pytest.approx(f0 * t * t / 2.0, rel=1e-9)
    assert duhamel_forced(lambda xx, tt: f0, a, 1.0, 0.0) == 0.0


def test_duhamel_causality():
    x1, t1, eps = 1.0, 0.4, 0.02
    src = lambda x, t: math.exp(-((x - x1) / eps) ** 2 - ((t - t1) / eps) ** 2)
    a = 1.0
    x = 3.0
    t_before = t1 + abs(x - x1) / a - 0.3
    assert abs(duhamel_forced(src, a, x, t_before)) < 1e-12


def test_duhamel_principle_matches_velocity_sweep():
    # response = int_0^t phi(x, t | tau) dtau where phi solves the free
    # problem started at tau with velocity f(., tau)
    from spectralbvp._quad import adaptive_simpson

    f = lambda x, t: math.exp(-(x**2)) * (1.0 + t)
    a, x, t = 1.3, 0.4, 0.9
    direct = duhamel_forced(f, a, x, t)

    def phi(tau):
        return dalembert(lambda xx: 0.0, lambda xx: f(xx, tau), a, x, t - tau)

    layered = adaptive_simpson(phi, 0.0, t, tol=1e-11)
    assert direct == pytest.approx(layered, rel=1e-6)


def test_dalembert_pde_residual_order():
    u0 = lambda x: math.exp(-(x**2))
    v0 = lambda x: x * math.exp(-(x**2))
    a = 1.3
    x0, t0 = 0.3, 0.5

    def residual(h):
        u = lambda x, t: dalembert(u0, v0, a, x, t)
        utt = (u(x0, t0 + h) - 2 * u(x0, t0) + u(x0, t0 - h)) / h**2
        uxx = (u(x0 + h, t0) - 2 * u(x0, t0) + u(x0 - h, t0)) / h**2
        return abs(utt - a * a * uxx)

    r1, r2 = residual(0.05), residual(0.025)
    order = math.log2(r1 / r2)
    assert order >= 1.8


# ----------------------------------------------------------------------
# Modal solutions
# ----------------------------------------------------------------------

def test_single_mode_initial_shape():
    med = WaveMedium(a=2.0, l=1.5)
    u0 = lambda x: 0.8 * math.sin(math.pi * x / med.l)
    sol = string_modes(med, FIXED_ENDS, u0, None, 6)
    for (x, t) in ((0.3, 0.0), (0.7, 0.9), (1.2, 2.0)):
        want = 0.8 * math.cos(math.pi * med.a * t / med.l) * math.sin(math.pi * x / med.l)
        assert sol(x, t) == pytest.approx(want, abs=1e-12)


def test_parabola_energy_fraction():
    med = WaveMedium(a=1.0, l=1.0)
    sol = string_modes(med, FIXED_ENDS, lambda x: 2.0 * x * (1 - x), None, 60)
    frac = sol.mode_energy(1, 0.0) / sol.energy(0.0)
    assert frac == pytest.approx(96.0 / math.pi**4, abs=1e-4)


def test_fixed_free_frequencies():
    med = WaveMedium(a=2.0, l=1.0)
    sol = string_modes(med, (DIRICHLET, NEUMANN), lambda x: x, None, 4)
    for n, w in enumerate(sol.frequencies):
        assert w == pytest.approx(math.pi * (n + 0.5) * med.a / med.l, rel=1e-13)


def test_energy_conserved_without_damping():
    med = WaveMedium(a=1.0, l=1.0)
    sol = string_modes(med, FIXED_ENDS, lambda x: x * (1 - x), lambda x: math.sin(math.pi * x), 40)
    e0 = sol.energy(0.0)
    for t in (0.3, 1.1, 2.7):
        assert abs(sol.energy(t) - e0) <= 1e-6 * e0
    # per-mode energies conserved too
    for n in (1, 2, 3):
        en = sol.mode_energy(n, 0.0)
        assert sol.mode_energy(n, 1.7) == pytest.approx(en, rel=1e-6)


def test_total_energy_matches_initial_data_quadrature():
    from spectralbvp._quad import fixed_gauss

    med = WaveMedium(a=1.0, l=1.0)
    h = 2.0
    u0 = lambda x: h * x * (1 - x)
    sol = string_modes(med, FIXED_ENDS, u0, None, 60)
    # E = (1/2) int [rho v0^2 + T0 u0'^2] with T0 = rho a^2
    exact = 0.5 * fixed_gauss(lambda x: (h * (1 - 2 * x)) ** 2, 0.0, 1.0, n=32)
    assert sol.energy(0.0) == pytest.approx(exact, rel=1e-6)


def test_incompatible_data_flagged():
    med = WaveMedium(a=1.0, l=1.0)
    sol = string_modes(med, FIXED_ENDS, lambda x: 1.0, None, 8)
    assert not sol.compatible_data
    ok = string_modes(med, FIXED_ENDS, lambda x: math.sin(math.pi * x), None, 8)
    assert ok.compatible_data


def test_damped_reduces_to_undamped():
    med0 = WaveMedium(a=1.0, l=1.0, eta=0.0)
    u0 = lambda x: x * (1 - x)
    a_ = string_modes(med0, FIXED_ENDS, u0, None, 10)
    b_ = damped_modes(med0, FIXED_ENDS, u0, None, 10)
    for (x, t) in ((0.3, 0.6), (0.7, 1.4)):
        assert a_(x, t) == b_(x, t)


def test_damped_critical_flag():
    l, a = 1.0, 1.0
    w1 = math.pi * a / l
    med = WaveMedium(a=a, l=l, eta=w1)
    sol = damped_modes(med, FIXED_ENDS, lambda x: math.sin(math.pi * x), None, 3)
    assert sol.laws[0].regime == ModeRegime.CRITICAL
    assert sol.laws[1].regime == ModeRegime.OSCILLATORY


def _law_reference(law: ModeLaw, t: float) -> tuple[float, float]:
    """q(t), q'(t) of q'' + 2 eta q' + omega^2 q = 0, q(0) = a, q'(0) = b,
    written out per regime."""
    w, a0, b0, eta = law.omega, law.a_coef, law.b_coef, law.eta
    c0 = b0 + eta * a0
    e = math.exp(-eta * t)
    if law.regime == ModeRegime.DRIFT:
        return a0 + b0 * t, b0
    if law.regime == ModeRegime.CRITICAL:
        q, dq = a0 + c0 * t, c0
    elif law.regime == ModeRegime.OSCILLATORY:
        om = math.sqrt(w * w - eta * eta)
        q = a0 * math.cos(om * t) + c0 * math.sin(om * t) / om
        dq = -a0 * om * math.sin(om * t) + c0 * math.cos(om * t)
    else:
        om = math.sqrt(eta * eta - w * w)
        q = a0 * math.cosh(om * t) + c0 * math.sinh(om * t) / om
        dq = a0 * om * math.sinh(om * t) + c0 * math.cosh(om * t)
    return e * q, e * (dq - eta * q)


@pytest.mark.parametrize("omega", [0.0, 0.7, 2.0, 5.0])
@pytest.mark.parametrize("eta", [0.0, 0.7, 2.0, 3.5])
def test_mode_law_matches_each_regime(omega, eta):
    for a0, b0 in ((1.0, 0.0), (0.0, 1.0), (0.37, -1.3)):
        law = ModeLaw(omega, a0, b0, eta)
        assert (law.q(0.0), law.qdot(0.0)) == pytest.approx((a0, b0), abs=1e-15)
        for t in (0.25 * i for i in range(1, 29)):
            q, dq = _law_reference(law, t)
            scale = (abs(a0) + abs(b0)) * (1.0 + omega) * (1.0 + t)
            assert abs(law.q(t) - q) <= 1e-14 * scale
            assert abs(law.qdot(t) - dq) <= 1e-14 * scale * (1.0 + omega)


def test_damped_energy_identity():
    # dE/dt = -4 eta T along the trajectory
    med = WaveMedium(a=1.0, l=1.0, eta=0.35)
    sol = damped_modes(med, FIXED_ENDS, lambda x: x * (1 - x), lambda x: math.sin(2 * math.pi * x), 40)
    dt = 1e-5
    for t in (0.2, 0.9, 1.7):
        dedt = (sol.energy(t + dt) - sol.energy(t - dt)) / (2 * dt)
        rhs = -4.0 * med.eta * sol.kinetic_energy(t)
        assert dedt == pytest.approx(rhs, rel=1e-4)


# ----------------------------------------------------------------------
# Jump overshoot
# ----------------------------------------------------------------------

def test_overshoot_near_jump():
    d, l, n = 1.4, 2.0, 200
    got = gibbs_partial_sum(d, l, n, l / (n + 0.5))
    limit = 2.0 * d / math.pi * GIBBS_CONSTANT
    assert abs(got - limit) <= 0.02 * limit
    assert got > d  # genuine overshoot past the one-sided limit


def test_overshoot_sequence_approaches_limit():
    d, l = 1.0, 1.0
    limit = 2.0 * d / math.pi * GIBBS_CONSTANT
    errs = [abs(gibbs_partial_sum(d, l, n, l / (n + 0.5)) - limit) for n in (50, 100, 200, 400)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] * 400 < 2.0  # O(1/N) envelope


def test_pointwise_sawtooth_value():
    d, l, x = 0.7, 1.0, 0.35
    want = d * (1.0 - x / l)
    for n in (400, 3000):
        got = gibbs_partial_sum(d, l, n, x)
        assert abs(got - want) < 3.0 / n
    assert abs(gibbs_partial_sum(d, l, 3000, x) - want) < 1e-3


def test_fejer_euthanizes_overshoot():
    d, l = 1.0, 1.0
    # at the jump the averaged sums go to the midpoint of the one-sided
    # limits (-d and +d), i.e. 0
    assert gibbs_partial_sum(d, l, 500, 0.0, kind="fejer") == 0.0
    near = gibbs_partial_sum(d, l, 500, l / 500.5, kind="fejer")
    assert near <= d * (1.0 + 1e-9)  # no overshoot
    # interior convergence to the sawtooth value within 1 percent
    x = 0.3
    got = gibbs_partial_sum(d, l, 500, x, kind="fejer")
    assert abs(got - d * (1 - x / l)) <= 0.01 * d


@pytest.mark.parametrize("kind", ["dirichlet", "fejer"])
@pytest.mark.parametrize("n", [128, 256, 512])
def test_partial_sum_is_the_correctly_rounded_sum_of_its_terms(kind, n):
    """The value does not depend on a summation order: it is (2d/pi) times
    the correctly rounded sum of the rounded terms w_k (sin(pi k x/l)/k)."""
    d, l = 1.3, 2.0
    x = l / (n + 0.5)
    weights = [1.0 - k / n if kind == "fejer" else 1.0 for k in range(1, n + 1)]
    terms = [w * (math.sin(math.pi * k * x / l) / k) for k, w in zip(range(1, n + 1), weights)]
    got = gibbs_partial_sum(d, l, n, x, kind=kind)
    assert type(got) is float
    assert got == 2.0 * d / math.pi * math.fsum(terms)


# ----------------------------------------------------------------------
# Response kernels
# ----------------------------------------------------------------------

def test_freq_green_boundary_and_symmetry():
    med = WaveMedium(a=1.0, l=1.0)
    assert freq_green_string(med, FIXED_ENDS, 1.3, 0.0, 0.6) == 0.0
    assert freq_green_string(med, FIXED_ENDS, 1.3, 1.0, 0.6) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(11)
    for bc in (FIXED_ENDS, (DIRICHLET, NEUMANN), (BoundaryCondition.robin(0.8), BoundaryCondition.robin(1.6))):
        for _ in range(50 // 3 + 1):
            x, xp = rng.uniform(0.0, 1.0, 2)
            g1 = freq_green_string(med, bc, 2.2, float(x), float(xp))
            g2 = freq_green_string(med, bc, 2.2, float(xp), float(x))
            assert g1 == pytest.approx(g2, rel=1e-12)


def test_freq_green_fixed_matches_modal_series():
    med = WaveMedium(a=1.0, l=1.0, eta=0.2, rho=1.3)
    omega, x, xp = 1.7, 0.3, 0.8
    closed = freq_green_string(med, FIXED_ENDS, omega, x, xp)
    n = np.arange(1, 2001)
    wn = math.pi * n * med.a / med.l
    big_om2 = wn**2 - med.eta**2
    xn = math.sqrt(2.0 / med.l)
    series = (
        np.sum(
            xn * np.sin(math.pi * n * x / med.l) * xn * np.sin(math.pi * n * xp / med.l)
            / (big_om2 - (omega + 1j * med.eta) ** 2)
        )
        / med.rho
    )
    assert abs(closed - series) <= 1e-4 * abs(closed)


def test_freq_green_fixed_free_closed_form():
    med = WaveMedium(a=1.3, l=1.0, rho=2.0)
    omega, x, xp = 1.1, 0.25, 0.65
    got = freq_green_string(med, (DIRICHLET, NEUMANN), omega, x, xp)
    rt = omega / med.a
    want = (
        math.sin(rt * x)
        * math.cos(rt * (med.l - xp))
        / (med.rho * med.a**2 * rt * math.cos(rt * med.l))
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_freq_green_resonance_guard():
    med = WaveMedium(a=1.0, l=1.0)
    w1 = math.pi
    with pytest.raises(ResonanceError):
        freq_green_string(med, FIXED_ENDS, w1 * (1.0 + 1e-8), 0.3, 0.7)


def test_freq_green_static_limits():
    """At omega = 0 the end solutions are linear: fixed ends give
    x_<(l - x_>)/(rho a^2 l); Robin ends h1, h2 give
    (1 + h1 x_<)(1 + h2 (l - x_>))/(rho a^2 (h1 + h2 + h1 h2 l)); a drive of
    1e-9 agrees with both, and free ends have no static response."""
    med = WaveMedium(a=1.3, l=1.7, rho=0.9)
    l, k = med.l, med.rho * med.a**2
    h1, h2 = 0.8, 1.6
    robin = (BoundaryCondition.robin(h1), BoundaryCondition.robin(h2))
    for x, xp in ((0.3, 1.1), (1.4, 0.2), (0.9, 0.9)):
        lo, hi = min(x, xp), max(x, xp)
        cases = (
            (FIXED_ENDS, lo * (l - hi) / (k * l)),
            (robin, (1.0 + h1 * lo) * (1.0 + h2 * (l - hi)) / (k * (h1 + h2 + h1 * h2 * l))),
        )
        for bc, want in cases:
            got = freq_green_string(med, bc, 0.0, x, xp)
            assert type(got) is complex and got.imag == 0.0
            assert got.real == pytest.approx(want, rel=1e-14)
            assert freq_green_string(med, bc, 1e-9, x, xp) == pytest.approx(got, rel=1e-12)
    with pytest.raises(ResonanceError):
        freq_green_string(med, (NEUMANN, NEUMANN), 0.0, 0.3, 0.7)


def test_time_green_zero_at_t0():
    med = WaveMedium(a=1.0, l=1.0)
    assert time_green_string(med, FIXED_ENDS, 0.3, 0.7, 0.0) == 0.0


def test_time_green_velocity_convolution():
    from spectralbvp._quad import fixed_gauss

    med = WaveMedium(a=1.0, l=1.0, rho=1.7)
    v0 = lambda x: math.sin(math.pi * x) + 0.5 * math.sin(3 * math.pi * x)
    sol = string_modes(med, FIXED_ENDS, None, v0, 64)
    for (x, t) in ((0.4, 0.8), (0.7, 1.9)):
        conv = med.rho * fixed_gauss(
            lambda xp: time_green_string(med, FIXED_ENDS, x, xp, t, n_modes=64) * v0(xp),
            0.0,
            med.l,
            n=128,
        )
        assert conv == pytest.approx(sol(x, t), rel=1e-6, abs=1e-9)


def test_time_green_damped_envelope():
    med = WaveMedium(a=1.0, l=1.0, eta=0.4)
    x, xp = 0.35, 0.6
    vals = [abs(time_green_string(med, FIXED_ENDS, x, xp, t, 64)) for t in (2.0, 4.0, 6.0)]
    for t, v in zip((2.0, 4.0, 6.0), vals):
        assert v <= 1.5 * math.exp(-med.eta * t) / (math.pi * math.sqrt(1 - (0.4 / math.pi) ** 2))


def test_modal_tail_bound_reported():
    med = WaveMedium(a=1.0, l=1.0)
    sol = string_modes(med, FIXED_ENDS, lambda x: x * (1 - x), None)
    assert sol.truncation == 128
    bound = sol.tail_bound()
    assert bound >= 0.0
    # coefficients of the parabola decay like n^-3, so the geometric
    # extrapolation is a small finite number
    assert bound < 1e-4


def test_freq_green_elastic_closed_form():
    # elastically held ends: product of the left and right boundary
    # solutions over the boundary characteristic
    med = WaveMedium(a=1.2, l=1.0, rho=1.4)
    h1, h2 = 0.7, 1.9
    bc = (BoundaryCondition.robin(h1), BoundaryCondition.robin(h2))
    omega, x, xp = 1.9, 0.28, 0.81
    rt = omega / med.a
    lam = rt * rt
    x_lo, x_hi = min(x, xp), max(x, xp)
    u_l = math.cos(rt * x_lo) + (h1 / rt) * math.sin(rt * x_lo)
    u_r = math.cos(rt * (med.l - x_hi)) + (h2 / rt) * math.sin(rt * (med.l - x_hi))
    m_char = (h1 + h2) * math.cos(rt * med.l) + (h1 * h2 / rt - rt) * math.sin(rt * med.l)
    want = u_l * u_r / (med.rho * med.a**2 * m_char)
    got = freq_green_string(med, bc, omega, x, xp)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_closed_forms_refuse_nonfinite_arguments(bad):
    one = lambda x: 1.0
    calls = [
        lambda x, t: dalembert(one, one, 1.0, x, t),
        lambda x, t: halfline_eval(one, one, "fixed", 1.0, x, t),
        lambda x, t: halfline_eval(one, one, "free", 1.0, x, t),
        lambda x, t: duhamel_forced(lambda xx, tt: 1.0, 1.0, x, t),
    ]
    for call in calls:
        for x, t in ((0.3, bad), (bad, 0.2)):
            with pytest.raises(ValueError, match=r"t >= 0, got x = "):
                call(x, t)


@pytest.mark.parametrize("a", [math.nan, math.inf, -2.0, 0.0])
def test_closed_forms_refuse_a_bad_wave_speed(a):
    one = lambda x: 1.0
    calls = [
        lambda: dalembert(one, None, a, 0.3, 1.0),
        lambda: dalembert(one, one, a, 0.3, 1.0),
        lambda: halfline_eval(one, None, "free", a, 0.3, 1.0),
        lambda: halfline_eval(one, one, "fixed", a, 0.3, 1.0),
        lambda: duhamel_forced(lambda xx, tt: 1.0, a, 0.3, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"wave speed a > 0, got a = "):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_modal_solutions_refuse_nonfinite_time(bad):
    med = WaveMedium(a=1.0, l=1.0, eta=0.3)
    u0 = lambda x: x * (1.0 - x)
    sol = string_modes(WaveMedium(a=1.0, l=1.0), FIXED_ENDS, u0, None, 8)
    damped = damped_modes(med, FIXED_ENDS, u0, None, 8)
    calls = [
        lambda t: sol(0.3, t),
        lambda t: sol.velocity(0.3, t),
        lambda t: sol.energy(t),
        lambda t: sol.mode_energy(1, t),
        lambda t: damped(0.3, t),
        lambda t: time_green_string(med, FIXED_ENDS, 0.3, 0.6, t, 8),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="time must be (finite|>= 0)"):
            call(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_freq_green_names_a_nonfinite_omega(bad):
    for eta in (0.0, 0.2):
        with pytest.raises(ValueError, match="omega must be finite"):
            freq_green_string(WaveMedium(a=1.0, l=1.0, eta=eta), FIXED_ENDS, bad, 0.3, 0.7)


def test_modal_solutions_and_kernels_need_a_finite_interval():
    """The default medium is the line (l = inf), which has no modes: the
    modal solutions and the frequency kernel refuse it, damped or not."""
    for eta in (0.0, 0.2):
        med = WaveMedium(a=1.0, eta=eta)
        with pytest.raises(ValueError, match="modal solutions need a finite interval"):
            freq_green_string(med, FIXED_ENDS, 1.3, 0.3, 0.7)
        with pytest.raises(ValueError, match="modal solutions need a finite interval"):
            damped_modes(med, FIXED_ENDS, lambda x: 1.0, None, 8)


def test_modal_projection_refuses_nonfinite_data():
    med = WaveMedium(a=1.0, l=1.0)
    with pytest.raises(ValueError, match="not finite at x = "):
        string_modes(med, FIXED_ENDS, lambda x: math.nan, None, 8)
    with pytest.raises(ValueError, match="not finite at x = "):
        string_modes(med, FIXED_ENDS, None, lambda x: math.inf if x > 0.5 else 0.0, 8)
