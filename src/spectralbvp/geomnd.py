"""Separable solvers in two and three dimensions: rectangular and circular
membranes, cooling of a finite cylinder, the ball (radial, axisymmetric and
general Laplace boundary problems), and the expansion utilities over
Fourier-Bessel and Legendre bases that power them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Literal

import numpy as np

from ._quad import adaptive_simpson, fixed_gauss, gauss_rule, gauss_sum, sample
from ._vec import as_arg, full, piecewise, xp
from .intervals import uniform_basis
from .specfun import (
    ZeroFamily,
    assoc_legendre,
    bessel_j,
    bessel_j_prime,
    bessel_zero,
    legendre,
    spherical_bessel,
    spherical_bessel_zero,
)
from .sturm import DIRICHLET, NEUMANN

__all__ = [
    "RectMembrane",
    "DiskMembrane",
    "rect_membrane_modes",
    "rect_degeneracies",
    "disk_membrane_modes",
    "disk_axisym_solution",
    "disk_pressure_steady_amplitude",
    "cylinder_cooling",
    "BallSpec",
    "ball_radial_modes",
    "ball_solution",
    "expand_series",
    "SeriesExpansion",
    "spherical_harmonic_norm",
]


# ----------------------------------------------------------------------
# Rectangular membrane
# ----------------------------------------------------------------------

EdgeBC = Literal["fixed", "free"]


@dataclass(frozen=True)
class RectMembrane:
    """Rectangle [0, l1] x [0, l2]; bc_x / bc_y give the conditions on the
    (x=0, x=l1) and (y=0, y=l2) edge pairs."""

    l1: float
    l2: float
    a: float = 1.0
    rho: float = 1.0
    bc_x: tuple[EdgeBC, EdgeBC] = ("fixed", "fixed")
    bc_y: tuple[EdgeBC, EdgeBC] = ("fixed", "fixed")

    def __post_init__(self):
        if min(self.l1, self.l2) <= 0.0 or self.a <= 0.0 or self.rho <= 0.0:
            raise ValueError("membrane dimensions, speed and density must be positive")


_EDGE_BC = {"fixed": DIRICHLET, "free": NEUMANN}


def _axis_factor(bc: tuple[EdgeBC, EdgeBC], length: float, m: int):
    """1-D eigenvalue and normalized factor for one coordinate direction:
    mode m of the interval basis, counted from 0 only for free-free edges."""
    lo, hi = bc
    first = 0 if bc == ("free", "free") else 1
    if m < first:
        raise ValueError(f"{lo}-{hi} index starts at {first}")
    mode = uniform_basis(length, _EDGE_BC[lo], _EDGE_BC[hi], m + 1 - first).modes[-1]
    k = mode.xi / length
    return k * k, mode.shape


def rect_membrane_modes(spec: RectMembrane, m: int, n: int):
    """Eigenvalue lambda_mn and orthonormal eigenfunction Phi_mn(x, y)."""
    mu, fx = _axis_factor(spec.bc_x, spec.l1, m)
    nu, fy = _axis_factor(spec.bc_y, spec.l2, n)
    lam = mu + nu
    return lam, (lambda x, y: fx(x) * fy(y))


def rect_degeneracies(spec: RectMembrane, m: int, n: int, search_limit: int = 400) -> list[tuple[int, int]]:
    """Index pairs (m', n') != (m, n) sharing the eigenvalue of (m, n).

    For fixed edges lambda ~ m^2/l1^2 + n^2/l2^2; when (l2/l1)^2 is rational
    the comparison is done in exact rational arithmetic, otherwise within a
    1e-12 relative floating guard.
    """
    if spec.bc_x != ("fixed", "fixed") or spec.bc_y != ("fixed", "fixed"):
        raise NotImplementedError("degeneracy report covers the fully fixed rectangle")
    ratio = (spec.l2 / spec.l1) ** 2
    frac = Fraction(ratio).limit_denominator(10**8)
    exact = abs(float(frac) - ratio) <= 1e-12 * ratio
    out: list[tuple[int, int]] = []
    if exact:
        target = Fraction(m * m) * frac + Fraction(n * n)
        for mp in range(1, search_limit + 1):
            rest = target - Fraction(mp * mp) * frac
            if rest <= 0:
                continue
            # need np^2 == rest
            root = math.isqrt(rest.numerator // rest.denominator) if rest.denominator == 1 else None
            if rest.denominator == 1 and root is not None and root * root == rest.numerator:
                cand = (mp, root)
                if cand != (m, n) and root >= 1:
                    out.append(cand)
    else:
        lam = m * m / spec.l1**2 + n * n / spec.l2**2
        for mp in range(1, search_limit + 1):
            rest = lam - mp * mp / spec.l1**2
            if rest <= 0:
                continue
            np_f = math.sqrt(rest) * spec.l2
            cand_n = round(np_f)
            if cand_n >= 1 and abs(np_f - cand_n) <= 1e-12 * max(1.0, np_f):
                cand = (mp, cand_n)
                if cand != (m, n):
                    out.append(cand)
    return out


# ----------------------------------------------------------------------
# Circular membrane
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiskMembrane:
    """Clamped circular membrane of radius R, wave speed a, density rho."""

    radius: float
    a: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if self.radius <= 0.0 or self.a <= 0.0 or self.rho <= 0.0:
            raise ValueError("radius, speed and density must be positive")


def _disk_radial(spec: DiskMembrane, m: int, k: int):
    """Normalized radial factor chi_mk(r) with int_0^R r chi^2 dr = 1."""
    alpha = bessel_zero(ZeroFamily.BESSEL_J, m, k)
    scale = math.sqrt(2.0) / (spec.radius * abs(bessel_j_prime(m, alpha)))
    return alpha, (lambda r, a=alpha, s=scale, m=m: s * bessel_j(m, a * r / spec.radius))


def disk_membrane_modes(spec: DiskMembrane, m: int, k: int, parity: str = "cos"):
    """Frequency omega_mk = alpha_k^{(m)} a / R and the orthonormal mode.

    The returned callable takes polar coordinates (r, phi); modes with m = 0
    carry the 1/sqrt(2 pi) angular factor, m >= 1 the cos/sin factor with
    1/sqrt(pi) normalization.
    """
    if m < 0 or k < 1:
        raise ValueError("need angular order m >= 0 and radial index k >= 1")
    alpha, chi = _disk_radial(spec, m, k)
    omega = alpha * spec.a / spec.radius
    if m == 0:
        ang = lambda phi: full(phi, 1.0 / math.sqrt(2.0 * math.pi))
    elif parity == "cos":
        ang = lambda phi: xp(phi).cos(m * phi) / math.sqrt(math.pi)
    elif parity == "sin":
        ang = lambda phi: xp(phi).sin(m * phi) / math.sqrt(math.pi)
    else:
        raise ValueError("parity must be 'cos' or 'sin'")
    return omega, (lambda r, phi: chi(r) * ang(phi))


def disk_axisym_solution(
    spec: DiskMembrane,
    u0: Callable[[float], float] | None,
    v0: Callable[[float], float] | None,
    n_modes: int,
    r: float,
    t: float,
    force: Callable[[float, float], float] | None = None,
) -> float:
    """Axially symmetric membrane motion u(r, t) as a truncated radial series.

    Coefficients are r-weighted projections of the data on the normalized
    radial modes; an optional force surface density F(r, t) adds the
    sin-convolution response of each mode.
    """
    zeros = [0.0] * n_modes
    a_coefs = disk_axisym_coefficients(spec, u0, n_modes) if u0 is not None else zeros
    b_coefs = disk_axisym_coefficients(spec, v0, n_modes) if v0 is not None else zeros
    rf, _ = gauss_rule(0.0, spec.radius, 96)
    total = 0.0
    for k, a_k, b_k in zip(range(1, n_modes + 1), a_coefs, b_coefs):
        alpha, chi = _disk_radial(spec, 0, k)
        omega = alpha * spec.a / spec.radius
        q = a_k * math.cos(omega * t) + (b_k / omega) * math.sin(omega * t)
        if force is not None:
            chi_at = sample(chi, rf)
            q += (
                adaptive_simpson(
                    lambda tau: math.sin(omega * (t - tau))
                    * gauss_sum(rf * sample(lambda s: force(s, tau), rf) * chi_at, 0.0, spec.radius),
                    0.0,
                    t,
                    tol=1e-9,
                )
                / (omega * spec.rho)
            )
        total += q * chi(r)
    return total


def disk_axisym_coefficients(
    spec: DiskMembrane, u0: Callable[[float], float], n_modes: int
) -> list[float]:
    """Projections of u0(r) on the normalized axisymmetric radial modes."""
    rr, _ = gauss_rule(0.0, spec.radius, 192)
    data = rr * sample(u0, rr)
    out = []
    for k in range(1, n_modes + 1):
        _, chi = _disk_radial(spec, 0, k)
        out.append(gauss_sum(data * sample(chi, rr), 0.0, spec.radius))
    return out


def disk_pressure_steady_amplitude(spec: DiskMembrane, p0: float, omega: float, r: float) -> float:
    """Amplitude of the driven steady part under uniform pressure p0 sin(wt):
    A(r) = (p0/(rho w^2)) [J_0(w r/a)/J_0(w R/a) - 1]."""
    a = spec.a
    return (
        p0
        / (spec.rho * omega * omega)
        * (bessel_j(0, omega * r / a) / bessel_j(0, omega * spec.radius / a) - 1.0)
    )


# ----------------------------------------------------------------------
# Finite cylinder cooling
# ----------------------------------------------------------------------

def cylinder_cooling(
    radius: float,
    height: float,
    a2: float,
    t0,
    n_radial: int,
    n_axial: int,
    point: tuple[float, float],
    t: float,
    half_infinite: bool = False,
) -> float:
    """Temperature of a cylinder cooling from T0 with its whole surface held
    at zero; the axial coordinate z runs over [-H/2, H/2].

    ``t0`` is either T0(r) or T0(r, z).  With half_infinite=True the axial
    factor drops out and the solution reduces to the long-rod radial series.
    """
    r, z = point
    if not 0.0 <= r <= radius:
        raise ValueError("radial coordinate outside the cylinder")
    takes_z = _arity_two(t0)
    if half_infinite and takes_z:
        raise ValueError("half-infinite reduction needs radial initial data T0(r)")
    if not half_infinite and not -height / 2.0 <= z <= height / 2.0:
        raise ValueError("axial coordinate outside the cylinder")
    alphas = [bessel_zero(ZeroFamily.BESSEL_J, 0, k) for k in range(1, n_radial + 1)]
    j0_shapes = [(lambda s, a=alpha: bessel_j(0, a * s / radius)) for alpha in alphas]
    if takes_z:
        # T0(r, z) is sampled once on the 96 x 96 grid; each (k, n)
        # coefficient is (w_r r J_0) . T . (w_z axial_n)
        rr, wr = gauss_rule(0.0, radius, 96)
        zz, wz = gauss_rule(-height / 2.0, height / 2.0, 96)
        grid = sample(t0, rr, zz)
    else:
        rr, _ = gauss_rule(0.0, radius, 192)
        weighted = rr * sample(t0, rr)
        radial_projs = [gauss_sum(weighted * sample(j0, rr), 0.0, radius) for j0 in j0_shapes]
    total = 0.0
    if half_infinite:
        for alpha, proj in zip(alphas, radial_projs):
            norm = 2.0 / (radius**2 * bessel_j_prime(0, alpha) ** 2)
            total += (
                norm
                * proj
                * math.exp(-(alpha / radius) ** 2 * a2 * t)
                * bessel_j(0, alpha * r / radius)
            )
        return total
    for k, alpha in enumerate(alphas):
        rad_norm = 2.0 / (radius**2 * bessel_j_prime(0, alpha) ** 2)
        mu_k = (alpha / radius) ** 2
        rad_here = bessel_j(0, alpha * r / radius)
        if takes_z:
            radial_row = (wr * rr * sample(j0_shapes[k], rr)) @ grid
            for n in range(1, n_axial + 1):
                kz = math.pi * n / height
                if n % 2 == 1:
                    axial, axial_here = np.cos(kz * zz), math.cos(kz * z)
                else:
                    axial, axial_here = np.sin(kz * zz), math.sin(kz * z)
                proj = float(np.dot(radial_row, wz * axial))
                total += (
                    rad_norm
                    * (2.0 / height)
                    * proj
                    * math.exp(-(mu_k + kz * kz) * a2 * t)
                    * rad_here
                    * axial_here
                )
        else:
            # axial projection of z-uniform data is elementary: only odd
            # cosine modes survive, with weight 2H(-1)^p/(pi (2p+1))
            p = np.arange(0, n_axial)
            nn = 2 * p + 1
            kz = math.pi * nn / height
            axial_sum = float(
                np.sum(
                    (4.0 / (math.pi * nn))
                    * (-1.0) ** p
                    * np.exp(-(mu_k + kz * kz) * a2 * t)
                    * np.cos(kz * z)
                )
            )
            total += rad_norm * radial_projs[k] * axial_sum * rad_here
    return total


def _arity_two(f) -> bool:
    try:
        import inspect

        return len(inspect.signature(f).parameters) >= 2
    except (TypeError, ValueError):
        return False


# ----------------------------------------------------------------------
# Ball
# ----------------------------------------------------------------------

class BallBC(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN = "robin"


@dataclass(frozen=True)
class BallSpec:
    """Ball of radius R with the stated surface condition; a2 is the
    diffusivity (or squared wave speed) of the medium filling it."""

    radius: float
    bc: BallBC = BallBC.DIRICHLET
    a2: float = 1.0
    h: float = 0.0  # Robin parameter, used when bc == ROBIN

    def __post_init__(self):
        if self.radius <= 0.0 or self.a2 <= 0.0:
            raise ValueError("radius and diffusivity must be positive")
        if self.bc == BallBC.ROBIN and self.h <= 0.0:
            raise ValueError("Robin surface condition needs h > 0")


def _ball_gamma(spec: BallSpec, k: int) -> float:
    """k-th root of the radial characteristic equation."""
    if spec.bc == BallBC.DIRICHLET:
        return math.pi * k
    if spec.bc == BallBC.NEUMANN:
        return bessel_zero(ZeroFamily.RADIAL_TAN, 0, k)
    return bessel_zero(ZeroFamily.RADIAL_ROBIN, 0, k, param=spec.h * spec.radius)


def _sin_over_r_small(r, f, g: float):
    u = g * r
    return g * (1.0 - u * u / 6.0)


def _sin_over_r_direct(r, f, g: float):
    return f.sin(g * r) / r


def _sin_over_r(gamma_over_R: float, r):
    """sin(g r)/r for g > 0 (even in r), from its Taylor expansion where
    |g r| < 1e-6."""
    r = as_arg(r)
    edge = math.nextafter(1e-6 / gamma_over_R, 0.0)
    return piecewise(abs(r), (edge,), (_sin_over_r_small, _sin_over_r_direct), gamma_over_R)


def ball_radial_modes(spec: BallSpec, k: int):
    """Eigenvalue lam_k = gamma_k^2/R^2 and normalized radial mode
    Phi_k(r) = C_k sin(gamma_k r/R)/r with unit norm over the ball volume."""
    if k < 1:
        raise ValueError("radial index starts at 1")
    big_r = spec.radius
    gamma = _ball_gamma(spec, k)
    lam = (gamma / big_r) ** 2
    if spec.bc == BallBC.DIRICHLET:
        c = 1.0 / math.sqrt(2.0 * math.pi * big_r)
    elif spec.bc == BallBC.NEUMANN:
        c = math.sqrt(1.0 + gamma * gamma) / (gamma * math.sqrt(2.0 * math.pi * big_r))
    else:
        hr = spec.h * big_r
        c = math.sqrt((gamma**2 + (hr - 1.0) ** 2) / (gamma**2 + (hr - 1.0) * hr)) / math.sqrt(
            2.0 * math.pi * big_r
        )
    g_over_r = gamma / big_r
    return lam, (lambda r, c=c, g=g_over_r: c * _sin_over_r(g, r))


class BallProblem(str, Enum):
    COOLING = "cooling"
    SOURCES = "sources"
    AXISYM_COOLING = "axisym_cooling"
    LAPLACE_DIRICHLET = "laplace_dirichlet"


def ball_solution(
    spec: BallSpec,
    problem: BallProblem | str,
    data,
    n_modes: int,
    point,
    t: float = 0.0,
    conductivity: float = 1.0,
) -> float:
    """Dispatch for the ball problems.

    cooling: radial initial temperature data=T0(r), point=r;
    sources: constant volumetric power density data=q; t=inf (or omitted)
      returns the steady profile obtained by integrating the radial flux
      balance, finite t the modal transient;
    axisym_cooling: data=T0(r, theta), point=(r, theta);
    laplace_dirichlet: data=T(theta) on the surface, point=(r, theta).
    """
    problem = BallProblem(problem)
    big_r = spec.radius
    if problem == BallProblem.COOLING:
        r = float(point)
        rr, _ = gauss_rule(0.0, big_r, 256)
        weighted = rr * rr * sample(data, rr)
        total = 0.0
        for k in range(1, n_modes + 1):
            lam, phi = ball_radial_modes(spec, k)
            a_k = 4.0 * math.pi * gauss_sum(weighted * sample(phi, rr), 0.0, big_r)
            total += a_k * math.exp(-lam * spec.a2 * t) * phi(r)
        return total
    if problem == BallProblem.SOURCES:
        q = float(data)
        r = float(point)
        if math.isinf(t):
            return _ball_steady_sources(spec, q, r, conductivity)
        rr, _ = gauss_rule(0.0, big_r, 256)
        total = 0.0
        for k in range(1, n_modes + 1):
            lam, phi = ball_radial_modes(spec, k)
            f_k = (q / conductivity) * spec.a2 * 4.0 * math.pi * gauss_sum(
                rr * rr * sample(phi, rr), 0.0, big_r
            )
            rate = lam * spec.a2
            theta_k = f_k * (1.0 - math.exp(-rate * t)) / rate
            total += theta_k * phi(r)
        return total
    if problem == BallProblem.AXISYM_COOLING:
        r, theta = point
        return _ball_axisym_cooling(spec, data, n_modes, r, theta, t)
    if problem == BallProblem.LAPLACE_DIRICHLET:
        r, theta = point
        xs, _ = gauss_rule(-1.0, 1.0, 160)
        surface = sample(data, np.arccos(xs))
        total = 0.0
        for n in range(0, n_modes):
            a_n = (n + 0.5) * gauss_sum(surface * legendre("P", n, xs), -1.0, 1.0)
            total += a_n * (r / big_r) ** n * legendre("P", n, math.cos(theta))
        return total
    raise ValueError(f"unsupported problem kind {problem}")


def _ball_steady_sources(spec: BallSpec, q: float, r: float, conductivity: float) -> float:
    """Steady temperature with uniform sources, from the radial flux balance:
    kappa r^2 u'(r) = -q r^3/3, integrated inward from the surface."""
    if spec.bc == BallBC.DIRICHLET:
        surface = 0.0
    elif spec.bc == BallBC.ROBIN:
        # surface flux balance: -kappa u'(R) = kappa h u(R)
        surface = q * spec.radius / (3.0 * conductivity * spec.h)
    else:
        raise ValueError("steady state with uniform sources needs a dissipating surface")
    flux = lambda s: -q * s / (3.0 * conductivity)  # u'(s)
    return surface - adaptive_simpson(flux, r, spec.radius, tol=1e-12)


def _ball_radial_norm(n: int, alpha: float, big_r: float) -> float:
    """int_0^R j_n(alpha r/R)^2 r^2 dr = R^3 j_{n+1}(alpha)^2 / 2, alpha a
    zero of j_n."""
    return 0.5 * big_r**3 * spherical_bessel("j", n + 1, alpha) ** 2


def _ball_axisym_cooling(spec: BallSpec, t0, n_modes: int, r: float, theta: float, t: float) -> float:
    if spec.bc != BallBC.DIRICHLET:
        raise NotImplementedError("axisymmetric cooling implemented for the clamped surface")
    big_r = spec.radius
    total = 0.0
    # T0(r, theta) is sampled once on the 128 x 96 grid; each (n, k)
    # coefficient is (w_r r^2 j_n(alpha r/R)) . T . (w_x P_n(x)), x = cos(theta)
    rr, wr = gauss_rule(0.0, big_r, 128)
    xs, ws = gauss_rule(-1.0, 1.0, 96)
    grid = sample(t0, rr, np.arccos(xs))
    for n in range(0, n_modes):
        angular = grid @ (ws * legendre("P", n, xs))
        ang_norm = 2.0 / (2 * n + 1)
        p_here = legendre("P", n, math.cos(theta))
        for k in range(1, n_modes + 1):
            alpha = spherical_bessel_zero(n, k)
            lam = (alpha / big_r) ** 2
            rad_norm = _ball_radial_norm(n, alpha, big_r)
            j_n = spherical_bessel("j", n, alpha * rr / big_r)
            proj = float(np.dot(wr * rr * rr * j_n, angular))
            coeff = proj / (rad_norm * ang_norm)
            total += (
                coeff
                * math.exp(-lam * spec.a2 * t)
                * spherical_bessel("j", n, alpha * r / big_r)
                * p_here
            )
    return total


# ----------------------------------------------------------------------
# Series expansions
# ----------------------------------------------------------------------

@dataclass
class SeriesExpansion:
    """Coefficients of an orthogonal expansion plus its reconstruction."""

    kind: str
    coefficients: list[float]
    reconstruct: Callable[[float], float]


def expand_series(
    kind: str,
    f: Callable[[float], float],
    n_terms: int,
    m: int = 0,
    radius: float = 1.0,
) -> SeriesExpansion:
    """Expansion coefficients of f over the requested orthogonal family.

    kind="fourier_bessel": c_k = 2/(R^2 J_m'(alpha_k)^2) int_0^R r f J_m dr,
    reconstruction sum c_k J_m(alpha_k r/R);
    kind="legendre": c_n = (n + 1/2) int_{-1}^{1} f P_n dx, reconstruction
    sum c_n P_n(x).
    """
    if kind == "fourier_bessel":
        rs, _ = gauss_rule(0.0, radius, 256)
        weighted = rs * sample(f, rs)
        coeffs = []
        alphas = []
        for k in range(1, n_terms + 1):
            alpha = bessel_zero(ZeroFamily.BESSEL_J, m, k)
            alphas.append(alpha)
            shape = sample(lambda r: bessel_j(m, alpha * r / radius), rs)
            c = (
                2.0
                / (radius**2 * bessel_j_prime(m, alpha) ** 2)
                * gauss_sum(weighted * shape, 0.0, radius)
            )
            coeffs.append(c)

        def reconstruct(r: float) -> float:
            return sum(c * bessel_j(m, a * r / radius) for c, a in zip(coeffs, alphas))

        return SeriesExpansion(kind, coeffs, reconstruct)
    if kind == "legendre":
        xs, _ = gauss_rule(-1.0, 1.0, max(160, 2 * n_terms))
        values = sample(f, xs)
        coeffs = [(n + 0.5) * gauss_sum(values * legendre("P", n, xs), -1.0, 1.0) for n in range(0, n_terms)]

        def reconstruct(x: float) -> float:
            return sum(c * legendre("P", n, x) for n, c in enumerate(coeffs))

        return SeriesExpansion(kind, coeffs, reconstruct)
    raise ValueError("kind must be 'fourier_bessel' or 'legendre'")


def spherical_harmonic_norm(n: int, m: int) -> float:
    """Surface integral of |Y_n^m|^2 with the standard normalization factor
    sqrt((2n+1)(n-|m|)!/(4 pi (n+|m|)!)); equals 1 for every n, |m| <= n."""
    mm = abs(m)
    pref = (2 * n + 1) / (4.0 * math.pi)
    for j in range(n - mm + 1, n + mm + 1):
        pref /= j
    integrand = lambda x: pref * assoc_legendre(n, mm, x) ** 2
    return 2.0 * math.pi * fixed_gauss(integrand, -1.0, 1.0, n=max(96, 2 * n + 8))
