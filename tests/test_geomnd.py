"""Separable 2-D/3-D solvers: membranes, cylinder, ball, and the
Fourier-Bessel / Legendre expansion utilities."""

import math

import numpy as np
import pytest

from spectralbvp._quad import fixed_gauss
from spectralbvp.beams import beam_spectrum
from spectralbvp.geomnd import (
    BallBC,
    BallSpec,
    DiskMembrane,
    RectMembrane,
    ball_radial_modes,
    ball_solution,
    cylinder_cooling,
    disk_axisym_coefficients,
    disk_axisym_solution,
    disk_membrane_modes,
    disk_pressure_steady_amplitude,
    expand_series,
    rect_degeneracies,
    rect_membrane_modes,
    spherical_harmonic_norm,
)
from spectralbvp.heat1d import HeatMedium
from spectralbvp.intervals import UniformBasis
from spectralbvp.specfun import (
    ZeroFamily,
    bessel_j,
    bessel_j_prime,
    bessel_zero,
    legendre,
    spherical_bessel,
    spherical_bessel_zero,
)
from spectralbvp.sturm import DIRICHLET
from spectralbvp.waves1d import WaveMedium


# ----------------------------------------------------------------------
# Rectangle
# ----------------------------------------------------------------------

def test_rect_eigenvalue_and_orthonormality():
    spec = RectMembrane(l1=math.pi, l2=math.pi)
    lam, _ = rect_membrane_modes(spec, 1, 1)
    assert lam == pytest.approx(2.0, rel=1e-14)
    spec2 = RectMembrane(l1=1.0, l2=1.5)
    pairs = [(1, 1), (2, 1), (1, 3), (2, 2)]
    for mi, ni in pairs:
        _, phi_a = rect_membrane_modes(spec2, mi, ni)
        for mj, nj in pairs:
            _, phi_b = rect_membrane_modes(spec2, mj, nj)
            val = fixed_gauss(
                lambda x: fixed_gauss(lambda y: phi_a(x, y) * phi_b(x, y), 0.0, 1.5, n=48),
                0.0,
                1.0,
                n=48,
            )
            want = 1.0 if (mi, ni) == (mj, nj) else 0.0
            assert abs(val - want) < 1e-9


def test_rect_square_degeneracy():
    spec = RectMembrane(l1=1.0, l2=1.0)
    assert rect_degeneracies(spec, 1, 2) == [(2, 1)]
    lam12, _ = rect_membrane_modes(spec, 1, 2)
    lam21, _ = rect_membrane_modes(spec, 2, 1)
    assert lam12 == lam21
    # pythagorean triple (3,4,5): lambda_{m-k,m+k} at m=4,k=3 -> (1,7)
    degs = rect_degeneracies(spec, 1, 7)
    assert (7, 1) in degs and (5, 5) in degs
    # irrational side ratio: no degeneracy
    spec_irr = RectMembrane(l1=1.0, l2=math.sqrt(2.0))
    assert rect_degeneracies(spec_irr, 1, 2) == []


def test_rect_square_degeneracies_symmetric_at_any_index():
    """On the square the class of (m, n) is closed under swapping the two
    indices, however large they are: 1 + 450^2 = 449^2 + 30^2."""
    spec = RectMembrane(l1=1.0, l2=1.0)
    for m, n in ((1, 450), (450, 1), (1, 7), (5, 5), (3, 1)):
        cls = set(rect_degeneracies(spec, m, n)) | {(m, n)}
        assert cls == {(b, a) for a, b in cls}, (m, n)
    assert {(450, 1), (449, 30), (426, 145), (415, 174)} <= set(rect_degeneracies(spec, 1, 450))


def test_rect_free_edge_variants():
    spec = RectMembrane(l1=1.0, l2=1.0, bc_x=("fixed", "free"), bc_y=("free", "free"))
    lam, phi = rect_membrane_modes(spec, 1, 0)
    assert lam == pytest.approx((0.5 * math.pi) ** 2, rel=1e-14)
    # free-edge mode has vanishing normal derivative at x = l1
    h = 1e-6
    d = (phi(1.0, 0.3) - phi(1.0 - h, 0.3)) / h
    assert abs(d) < 1e-4
    norm = fixed_gauss(
        lambda x: fixed_gauss(lambda y: phi(x, y) ** 2, 0.0, 1.0, n=32), 0.0, 1.0, n=32
    )
    assert norm == pytest.approx(1.0, rel=1e-12)


def test_rect_helmholtz_residual_order():
    spec = RectMembrane(l1=1.0, l2=1.3)
    lam, phi = rect_membrane_modes(spec, 2, 1)
    x0, y0 = 0.37, 0.61

    def residual(h):
        lap = (
            phi(x0 + h, y0) + phi(x0 - h, y0) + phi(x0, y0 + h) + phi(x0, y0 - h) - 4 * phi(x0, y0)
        ) / (h * h)
        return abs(lap + lam * phi(x0, y0))

    r1, r2 = residual(0.02), residual(0.01)
    assert math.log2(r1 / r2) >= 1.8


# ----------------------------------------------------------------------
# Disk
# ----------------------------------------------------------------------

def test_disk_fundamental_frequency():
    spec = DiskMembrane(radius=2.0, a=3.0)
    omega, mode = disk_membrane_modes(spec, 0, 1)
    assert abs(omega - 2.405 * 3.0 / 2.0) < 1e-3 * 3.0 / 2.0
    assert mode(2.0, 1.1) == pytest.approx(0.0, abs=1e-14)


def test_disk_mode_orthonormality_polar():
    spec = DiskMembrane(radius=1.5)
    modes = [
        disk_membrane_modes(spec, 0, 1)[1],
        disk_membrane_modes(spec, 0, 2)[1],
        disk_membrane_modes(spec, 1, 1, parity="cos")[1],
        disk_membrane_modes(spec, 1, 1, parity="sin")[1],
        disk_membrane_modes(spec, 2, 1, parity="cos")[1],
    ]
    for i, phi_a in enumerate(modes):
        for j, phi_b in enumerate(modes):
            val = fixed_gauss(
                lambda r: r
                * fixed_gauss(lambda ph: phi_a(r, ph) * phi_b(r, ph), 0.0, 2 * math.pi, n=64),
                0.0,
                1.5,
                n=96,
            )
            want = 1.0 if i == j else 0.0
            assert abs(val - want) < 1e-9


def test_disk_helmholtz_residual_polar():
    spec = DiskMembrane(radius=1.0)
    omega, mode = disk_membrane_modes(spec, 1, 2)
    lam = (omega / spec.a) ** 2
    r0, p0 = 0.55, 0.8

    def residual(h):
        ur = (mode(r0 + h, p0) - mode(r0 - h, p0)) / (2 * h)
        urr = (mode(r0 + h, p0) - 2 * mode(r0, p0) + mode(r0 - h, p0)) / (h * h)
        upp = (mode(r0, p0 + h) - 2 * mode(r0, p0) + mode(r0, p0 - h)) / (h * h)
        lap = urr + ur / r0 + upp / (r0 * r0)
        return abs(lap + lam * mode(r0, p0))

    r1, r2 = residual(0.02), residual(0.01)
    assert math.log2(r1 / r2) >= 1.8


def test_disk_axisym_single_mode_projection():
    spec = DiskMembrane(radius=1.0, a=1.0)
    a1 = bessel_zero(ZeroFamily.BESSEL_J, 0, 1)
    u0 = lambda r: bessel_j(0, a1 * r)
    omega1 = a1
    for (r, t) in ((0.3, 0.0), (0.6, 0.9)):
        got = disk_axisym_solution(spec, u0, None, 5, r, t)
        assert got == pytest.approx(u0(r) * math.cos(omega1 * t), abs=1e-10)


def test_disk_impulse_coefficients():
    # uniform initial bump over r <= delta projects onto mode k like
    # (R delta / alpha_k) J_1(alpha_k delta / R) (up to the mode normalizer)
    spec = DiskMembrane(radius=1.0)
    delta = 0.35
    u0 = lambda r: 1.0 if r <= delta else 0.0
    coeffs = disk_axisym_coefficients(spec, u0, 5)
    for k, got in enumerate(coeffs, start=1):
        alpha = bessel_zero(ZeroFamily.BESSEL_J, 0, k)
        norm = math.sqrt(2.0) / abs(bessel_j_prime(0, alpha))
        want = norm * (delta / alpha) * bessel_j(1, alpha * delta)
        # identity check on the smooth part of the projection
        split = norm * fixed_gauss(lambda r: r * bessel_j(0, alpha * r), 0.0, delta, n=96)
        assert split == pytest.approx(want, rel=1e-10)
        # generic fixed-node quadrature of the indicator bump is cruder
        assert got == pytest.approx(want, rel=2e-2, abs=3e-3)


def test_disk_pressure_amplitude_satisfies_forced_helmholtz():
    # -w^2 A = a^2 (1/r)(r A')' + p0/rho and A(R) = 0
    spec = DiskMembrane(radius=1.0, a=1.0, rho=2.0)
    p0, omega = 3.0, 1.3
    amp = lambda r: disk_pressure_steady_amplitude(spec, p0, omega, r)
    assert amp(1.0) == pytest.approx(0.0, abs=1e-12)
    h = 1e-4
    for r0 in (0.3, 0.7):
        ar = (amp(r0 + h) - amp(r0 - h)) / (2 * h)
        arr = (amp(r0 + h) - 2 * amp(r0) + amp(r0 - h)) / (h * h)
        resid = omega**2 * amp(r0) + (arr + ar / r0) + p0 / spec.rho
        assert abs(resid) < 1e-5


# ----------------------------------------------------------------------
# Cylinder
# ----------------------------------------------------------------------

def test_cylinder_uniform_coefficient_pattern():
    # with T0 uniform the double series reduces to
    # 8 T0/(pi (2p+1) alpha_k J_1(alpha_k)) coefficients; spot-check the
    # reconstruction at t = 0 against the initial temperature
    t0c = 4.0
    got = cylinder_cooling(1.0, 2.0, 1.0, lambda r: t0c, 60, 2000, (0.4, 0.3), 0.0)
    assert abs(got - t0c) <= 0.01 * t0c


def test_cylinder_positivity_window():
    t0c, big_r, a2 = 1.0, 1.0, 1.0
    for t in (0.05, 0.2, 1.0):
        for point in ((0.0, 0.0), (0.5, 0.4), (0.9, -0.8)):
            v = cylinder_cooling(big_r, 2.0, a2, lambda r: t0c, 20, 20, point, t)
            assert -1e-6 <= v <= t0c * (1.0 + 1e-3)


def test_cylinder_half_infinite_reduction():
    t0c = 2.0
    # closed form: 2 T0 sum J_0(a_k r/R) e^{-a_k^2 t/R^2}/(a_k J_1(a_k))
    big_r, r, t = 1.0, 0.45, 0.08
    want = 2.0 * t0c * sum(
        bessel_j(0, bessel_zero(ZeroFamily.BESSEL_J, 0, k) * r / big_r)
        * math.exp(-bessel_zero(ZeroFamily.BESSEL_J, 0, k) ** 2 * t / big_r**2)
        / (bessel_zero(ZeroFamily.BESSEL_J, 0, k) * bessel_j(1, bessel_zero(ZeroFamily.BESSEL_J, 0, k)))
        for k in range(1, 25)
    )
    got = cylinder_cooling(big_r, math.inf, 1.0, lambda r_: t0c, 25, 1, (r, 0.0), t, half_infinite=True)
    assert got == pytest.approx(want, rel=1e-8)
    # tall cylinder approaches the half-infinite value in its midplane
    # (axial factor converges like the Leibniz series, hence the tolerance)
    tall = cylinder_cooling(big_r, 40.0, 1.0, lambda r_: t0c, 25, 2000, (r, 0.0), t)
    assert tall == pytest.approx(want, rel=5e-4)


def test_cylinder_general_axial_data():
    # T0(r, z) separable: coefficients factor, solution matches the
    # product of radial series and a single axial mode
    big_r, big_h, a2 = 1.0, 2.0, 1.0
    a1 = bessel_zero(ZeroFamily.BESSEL_J, 0, 1)
    t0 = lambda r, z: bessel_j(0, a1 * r / big_r) * math.cos(math.pi * z / big_h)
    lam = (a1 / big_r) ** 2 + (math.pi / big_h) ** 2
    for (pt, t) in (((0.3, 0.2), 0.0), ((0.5, -0.6), 0.3)):
        got = cylinder_cooling(big_r, big_h, a2, t0, 6, 6, pt, t)
        want = t0(*pt) * math.exp(-lam * a2 * t)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


# ----------------------------------------------------------------------
# Ball
# ----------------------------------------------------------------------

def test_ball_dirichlet_roots_exact():
    spec = BallSpec(radius=2.0)
    for k in (1, 2, 5):
        lam, _ = ball_radial_modes(spec, k)
        assert math.sqrt(lam) * spec.radius == pytest.approx(math.pi * k, rel=1e-14)


def test_ball_neumann_roots():
    spec = BallSpec(radius=1.0, bc=BallBC.NEUMANN)
    gammas = []
    for k in range(1, 9):
        lam, _ = ball_radial_modes(spec, k)
        g = math.sqrt(lam)
        gammas.append(g)
        assert abs(math.tan(g) - g) < 1e-8 * max(1.0, g * g)
        assert abs(math.sin(g) - g * math.cos(g)) < 1e-12
    gaps = [abs(g - (0.5 * math.pi + math.pi * k)) for k, g in enumerate(gammas, start=1)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05


def test_ball_radial_orthonormality():
    for bc, h in ((BallBC.DIRICHLET, 0.0), (BallBC.NEUMANN, 0.0), (BallBC.ROBIN, 1.7)):
        spec = BallSpec(radius=1.4, bc=bc, h=h)
        funcs = [ball_radial_modes(spec, k)[1] for k in (1, 2, 3)]
        for i, fa in enumerate(funcs):
            for j, fb in enumerate(funcs):
                val = 4.0 * math.pi * fixed_gauss(
                    lambda r: r * r * fa(r) * fb(r), 0.0, 1.4, n=128
                )
                want = 1.0 if i == j else 0.0
                assert abs(val - want) < 1e-7


def test_ball_uniform_cooling_series():
    spec = BallSpec(radius=1.0)
    t0c, r, t = 7.0, 0.3, 0.05
    got = ball_solution(spec, "cooling", lambda rr: t0c, 40, r, t)
    want = (
        2.0
        * t0c
        / (math.pi * r)
        * sum(
            (-1) ** (k + 1) / k * math.exp(-math.pi**2 * k**2 * t) * math.sin(math.pi * k * r)
            for k in range(1, 40)
        )
    )
    assert got == pytest.approx(want, rel=1e-9)
    # center limit is finite and close to t0 at early times
    assert ball_solution(spec, "cooling", lambda rr: t0c, 60, 0.0, 1e-3) == pytest.approx(
        t0c, rel=2e-2
    )


def test_ball_steady_sources_profile():
    q, kappa = 2.0, 3.0
    spec = BallSpec(radius=1.3)
    for r in (0.0, 0.4, 1.0, 1.3):
        got = ball_solution(spec, "sources", q, 0, r, t=math.inf, conductivity=kappa)
        want = q * spec.radius**2 / (6 * kappa) * (1 - (r / spec.radius) ** 2)
        assert got == pytest.approx(want, abs=1e-8)
    # Robin surface adds the constant qR/(3 kappa h)
    spec_r = BallSpec(radius=1.0, bc=BallBC.ROBIN, h=2.0)
    got = ball_solution(spec_r, "sources", q, 0, 0.5, t=math.inf, conductivity=kappa)
    want = q / (6 * kappa) * (1 - 0.25) + q / (3 * kappa * 2.0)
    assert got == pytest.approx(want, abs=1e-8)


def test_ball_transient_sources_approach_steady():
    q, kappa = 1.0, 1.0
    spec = BallSpec(radius=1.0)
    r = 0.5
    steady = ball_solution(spec, "sources", q, 0, r, t=math.inf, conductivity=kappa)
    late = ball_solution(spec, "sources", q, 30, r, t=3.0, conductivity=kappa)
    assert late == pytest.approx(steady, rel=1e-3)


def test_ball_laplace_single_mode():
    spec = BallSpec(radius=2.0)
    t_theta = lambda th: legendre("P", 2, math.cos(th))
    for (r, th) in ((0.5, 0.4), (1.5, 2.2)):
        got = ball_solution(spec, "laplace_dirichlet", t_theta, 8, (r, th))
        want = (r / 2.0) ** 2 * legendre("P", 2, math.cos(th))
        assert got == pytest.approx(want, abs=1e-12)


def test_ball_axisym_orthonormality():
    # the normalized products j_n(alpha_nk r/R) P_n(cos theta) are
    # orthogonal over the ball with the r^2 sin(theta) measure
    big_r = 1.0
    pairs = [(0, 1), (0, 2), (1, 1), (2, 1), (3, 3)]

    def norm2(n, k):
        alpha = spherical_bessel_zero(n, k)
        rad = fixed_gauss(
            lambda r: r * r * spherical_bessel("j", n, alpha * r / big_r) ** 2, 0.0, big_r, n=128
        )
        ang = 2.0 / (2 * n + 1)
        return 2 * math.pi * rad * ang

    def overlap(n1, k1, n2, k2):
        a1 = spherical_bessel_zero(n1, k1)
        a2 = spherical_bessel_zero(n2, k2)
        rad = fixed_gauss(
            lambda r: r
            * r
            * spherical_bessel("j", n1, a1 * r / big_r)
            * spherical_bessel("j", n2, a2 * r / big_r),
            0.0,
            big_r,
            n=128,
        )
        ang = fixed_gauss(
            lambda x: legendre("P", n1, x) * legendre("P", n2, x), -1.0, 1.0, n=64
        )
        return 2 * math.pi * rad * ang

    for (n1, k1) in pairs:
        for (n2, k2) in pairs:
            val = overlap(n1, k1, n2, k2) / math.sqrt(norm2(n1, k1) * norm2(n2, k2))
            want = 1.0 if (n1, k1) == (n2, k2) else 0.0
            assert abs(val - want) < 1e-6


def test_ball_axisym_cooling_single_mode():
    spec = BallSpec(radius=1.0)
    alpha = spherical_bessel_zero(1, 1)
    t0 = lambda r, th: spherical_bessel("j", 1, alpha * r) * math.cos(th)
    lam = alpha * alpha
    for ((r, th), t) in (((0.4, 0.9), 0.0), ((0.7, 2.0), 0.1)):
        got = ball_solution(spec, "axisym_cooling", t0, 3, (r, th), t)
        want = t0(r, th) * math.exp(-lam * t)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_spherical_harmonic_normalization():
    for n in range(0, 4):
        for m in range(-n, n + 1):
            assert abs(spherical_harmonic_norm(n, m) - 1.0) < 1e-8


# ----------------------------------------------------------------------
# Expansions
# ----------------------------------------------------------------------

def test_legendre_expansion_exact_mode():
    exp_l = expand_series("legendre", lambda x: legendre("P", 3, x), 6)
    for n, c in enumerate(exp_l.coefficients):
        if n == 3:
            assert c == pytest.approx(1.0, abs=1e-12)
        else:
            assert abs(c) < 1e-9


def test_fourier_bessel_unit_function():
    exp_b = expand_series("fourier_bessel", lambda r: 1.0, 5, m=0, radius=1.0)
    for k, c in enumerate(exp_b.coefficients, start=1):
        alpha = bessel_zero(ZeroFamily.BESSEL_J, 0, k)
        want = 2.0 / (alpha * bessel_j(1, alpha))
        assert c == pytest.approx(want, rel=1e-9)
    assert exp_b.reconstruct(0.4) == pytest.approx(
        sum(
            c * bessel_j(0, bessel_zero(ZeroFamily.BESSEL_J, 0, k) * 0.4)
            for k, c in enumerate(exp_b.coefficients, start=1)
        )
    )


@pytest.mark.parametrize("kind", ["fourier_bessel", "legendre"])
def test_series_expansion_reports_its_quadrature_error(kind):
    """A Gaussian bump of width 0.003 is resolved by no Gauss rung, and the
    expansion's estimate says so; smooth data converges and says that too."""
    bump = lambda x: np.exp(-0.5 * ((x - 0.31) / 0.003) ** 2)
    assert expand_series(kind, bump, 8).quadrature_error > 1e-6
    assert expand_series(kind, lambda x: np.exp(x) * np.cos(3.0 * x), 8).quadrature_error <= 1e-12


def test_legendre_expansion_abs_reconstruction():
    f = lambda x: abs(x)
    errs = []
    for n_terms in (16, 64):
        exp_l = expand_series("legendre", f, n_terms)
        err2 = fixed_gauss(lambda x: (f(x) - exp_l.reconstruct(x)) ** 2, -1.0, 1.0, n=256)
        errs.append(err2)
    assert errs[1] < errs[0]
    assert errs[1] <= 1e-3


def test_ball_cooling_positivity_window():
    spec = BallSpec(radius=1.0)
    t0c = 1.0
    for t in (0.05, 0.2, 1.0):
        for r in (0.0, 0.4, 0.95):
            v = ball_solution(spec, "cooling", lambda rr: t0c, 30, r, t)
            assert -1e-6 <= v <= t0c * (1.0 + 1e-3)


NON_FINITE_INPUTS = {
    "ball-radius-nan": lambda: BallSpec(radius=math.nan),
    "ball-a2-inf": lambda: BallSpec(radius=1.0, a2=math.inf),
    "ball-robin-h-nan": lambda: BallSpec(radius=1.0, bc=BallBC.ROBIN, h=math.nan),
    "disk-radius-inf": lambda: DiskMembrane(radius=math.inf),
    "disk-a-nan": lambda: DiskMembrane(radius=1.0, a=math.nan),
    "rect-l2-nan": lambda: RectMembrane(1.0, math.nan),
    "rect-rho-inf": lambda: RectMembrane(1.0, 1.0, rho=math.inf),
    "heat-a2-nan": lambda: HeatMedium(a2=math.nan),
    "heat-absorption-inf": lambda: HeatMedium(a2=1.0, absorption=math.inf),
    "wave-a-inf": lambda: WaveMedium(a=math.inf),
    "wave-l-nan": lambda: WaveMedium(a=1.0, l=math.nan),
    "wave-eta-nan": lambda: WaveMedium(a=1.0, eta=math.nan),
    "beam-c-nan": lambda: beam_spectrum("clamped_clamped", 3, c=math.nan),
    "beam-l-inf": lambda: beam_spectrum("clamped_clamped", 3, l=math.inf),
    "interval-l-nan": lambda: UniformBasis(math.nan, DIRICHLET, DIRICHLET, 3),
    "interval-l-inf": lambda: UniformBasis(math.inf, DIRICHLET, DIRICHLET, 3),
}


@pytest.mark.parametrize("make", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_constructors_reject_non_finite_input(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_wave_medium_keeps_the_infinite_line():
    assert WaveMedium(a=1.0).l == math.inf


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_fourier_bessel_refuses_a_bad_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        expand_series("fourier_bessel", lambda r: 1.0 - r * r, 3, radius=radius)


@pytest.mark.parametrize("kind", ["fourier_bessel", "legendre"])
def test_expansions_refuse_nonfinite_data(kind):
    with pytest.raises(ValueError, match="not finite at x = "):
        expand_series(kind, lambda x: math.nan, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_heat_and_membrane_solutions_refuse_nonfinite_time(bad):
    """Diffusion refuses a negative time as well; the membrane is a wave and
    runs backward."""
    spec = BallSpec(radius=1.0, bc=BallBC.ROBIN, h=2.0)
    disk = lambda: disk_axisym_solution(DiskMembrane(radius=1.0), lambda r: 1.0 - r * r, None, 3, 0.3, bad)
    calls = [
        lambda: cylinder_cooling(1.0, 2.0, 1.0, lambda r: 1.0, 3, 2, (0.3, 0.1), bad),
        lambda: cylinder_cooling(1.0, 2.0, 1.0, lambda r, z: 1.0, 3, 2, (0.3, 0.1), bad),
        lambda: ball_solution(spec, "cooling", lambda r: 1.0, 3, 0.4, bad),
        lambda: ball_solution(BallSpec(radius=1.0), "axisym_cooling", lambda r, th: 1.0, 2, (0.4, 0.3), bad),
    ]
    if math.isfinite(bad):
        assert math.isfinite(disk())
    else:
        calls.append(disk)
    if bad != math.inf:
        calls.append(lambda: ball_solution(spec, "sources", 1.0, 3, 0.4, bad))
    for call in calls:
        with pytest.raises(ValueError, match="time must be finite"):
            call()


@pytest.mark.parametrize("scale", [2.0, -0.5, math.nan])
def test_ball_and_disk_refuse_a_radius_outside_the_domain(scale):
    ball, disk = BallSpec(radius=1.3), DiskMembrane(radius=1.3)
    r = scale * 1.3
    ball_calls = [
        lambda: ball_solution(ball, "cooling", lambda rr: 1.0, 3, r, 0.1),
        lambda: ball_solution(ball, "sources", 1.0, 3, r, 0.1),
        lambda: ball_solution(ball, "sources", 1.0, 3, r),
        lambda: ball_solution(ball, "sources", 1.0, 3, r, math.inf),
        lambda: ball_solution(ball, "axisym_cooling", lambda rr, th: 1.0, 2, (r, 0.3), 0.1),
        lambda: ball_solution(ball, "laplace_dirichlet", lambda th: math.cos(th), 4, (r, 0.3)),
        lambda: ball_radial_modes(ball, 1)[1](r),
        lambda: ball_radial_modes(ball, 2)[1](np.array([0.0, r])),
    ]
    fb = expand_series("fourier_bessel", lambda rr: 1.0 - rr * rr, 4, radius=1.3)
    disk_calls = [
        lambda: disk_axisym_solution(disk, lambda rr: 1.0 - rr * rr, None, 3, r, 0.3),
        lambda: fb.reconstruct(r),
        lambda: fb.reconstruct(np.array([0.0, r])),
        lambda: disk_membrane_modes(disk, 0, 1)[1](r, 0.0),
        lambda: disk_membrane_modes(disk, 2, 1, "sin")[1](np.array([0.0, r]), 0.3),
    ]
    for calls, where in ((ball_calls, "ball"), (disk_calls, "disk")):
        for call in calls:
            with pytest.raises(ValueError, match=f"radial coordinate outside the {where}"):
                call()


@pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
def test_cylinder_cooling_refuses_bad_dimensions_by_name(bad):
    """radius, height and a2 are checked before use: a2 = -2 returned
    -6.7e26, NaN passed through, and a zero or infinite radius failed inside
    J_0 with "x must be finite"."""
    t0 = lambda r: 1.0 - r * r
    calls = {
        "radius": lambda: cylinder_cooling(bad, 2.0, 1.0, t0, 3, 2, (0.0, 0.1), 0.1),
        "height": lambda: cylinder_cooling(1.0, bad, 1.0, t0, 3, 2, (0.3, 0.0), 0.1),
        "a2": lambda: cylinder_cooling(1.0, 2.0, bad, t0, 3, 2, (0.3, 0.1), 0.1),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            call()
    # a half-infinite cylinder reads no height
    assert math.isfinite(cylinder_cooling(1.0, bad, 1.0, t0, 3, 2, (0.3, 0.0), 0.1, half_infinite=True))


def test_ball_sources_keep_the_steady_state_at_infinite_time():
    spec = BallSpec(radius=1.0, bc=BallBC.ROBIN, h=2.0)
    steady = ball_solution(spec, "sources", 1.0, 3, 0.4, math.inf)
    assert steady == pytest.approx(1.0 / 6.0 + (1.0 - 0.16) / 6.0, rel=1e-15)
    assert ball_solution(spec, "sources", 1.0, 3, 0.4) == 0.0
