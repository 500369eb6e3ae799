"""Separable solvers in two and three dimensions: rectangular and circular
membranes, cooling of a finite cylinder, the ball (radial, axisymmetric and
general Laplace boundary problems), and the expansion utilities over
Fourier-Bessel and Legendre bases that power them.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Literal

from ._quad import adaptive_simpson, cached, fixed_gauss, gauss_ladder, gauss_rule, mode_table, sample, sample_rows
from ._record import dataclass
from ._series import contract, mode_count, oscillator, outer, project
from ._vec import as_arg, full, inside, np, xp
from .intervals import uniform_basis
from .specfun import (
    _SPHERICAL_J,
    ZeroFamily,
    _legendre_columns,
    _sinc,
    _zeros,
    assoc_legendre,
    bessel_j,
    bessel_j_prime,
    bessel_zero,
    spherical_bessel,
    zero_table,
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
        if not all(0.0 < v < math.inf for v in (self.l1, self.l2, self.a, self.rho)):
            raise ValueError("membrane dimensions, speed and density must be positive and finite")


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


def rect_degeneracies(spec: RectMembrane, m: int, n: int) -> list[tuple[int, int]]:
    """Index pairs (m', n') != (m, n) sharing the eigenvalue of (m, n).

    For fixed edges lambda ~ m^2/l1^2 + n^2/l2^2; when (l2/l1)^2 is rational
    the comparison is done in exact rational arithmetic, otherwise within a
    1e-12 relative floating guard.  Every m' with m'^2 l2^2/l1^2 <
    m^2 l2^2/l1^2 + n^2, which leaves room for some n' >= 1, is searched.
    """
    # imported here: fractions pulls in decimal, a few ms of start-up that
    # no other function needs
    from fractions import Fraction

    if spec.bc_x != ("fixed", "fixed") or spec.bc_y != ("fixed", "fixed"):
        raise NotImplementedError("degeneracy report covers the fully fixed rectangle")
    ratio = (spec.l2 / spec.l1) ** 2
    frac = Fraction(ratio).limit_denominator(10**8)
    exact = abs(float(frac) - ratio) <= 1e-12 * ratio
    out: list[tuple[int, int]] = []
    if exact:
        target = Fraction(m * m) * frac + Fraction(n * n)
        for mp in range(1, math.isqrt(math.floor(target / frac)) + 1):
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
        for mp in range(1, math.floor(spec.l1 * math.sqrt(lam)) + 1):
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
        if not all(0.0 < v < math.inf for v in (self.radius, self.a, self.rho)):
            raise ValueError("radius, speed and density must be positive and finite")


def _disk_radial(spec: DiskMembrane, m: int, k: int):
    """The k-th zero alpha of J_m and the normalized radial factor
    chi(r) = sqrt(2) J_m(alpha r/R) / (R |J_m'(alpha)|), int_0^R r chi^2 dr
    = 1 (chi keeps r's shape); the series take theirs from ``_j_modes``."""
    alpha = bessel_zero(ZeroFamily.BESSEL_J, m, k)
    radius = spec.radius
    scale = math.sqrt(2.0) / (radius * abs(bessel_j_prime(m, alpha)))
    return alpha, (lambda r: scale * bessel_j(m, outer(as_arg(r), alpha) / radius))


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

    def mode(r, phi):
        r = as_arg(r)
        if not inside(r, 0.0, spec.radius):
            raise ValueError("radial coordinate outside the disk")
        return chi(r) * ang(phi)

    return omega, mode


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
    radial modes, u0 and v0 on the same Gauss rungs; an optional force
    surface density F(r, t) adds the sin-convolution response of every
    mode, one array-valued time integral that samples F once per tau node.
    """
    r = as_arg(r)
    if not inside(r, 0.0, spec.radius):
        raise ValueError("radial coordinate outside the disk")
    mode_count("n_modes", n_modes)
    big_r = spec.radius
    alphas = cached(_j_zeros, 0, n_modes)
    a, b = gauss_ladder(_radial_rung(big_r, 0, n_modes, u0, v0), 192, n_modes)[0]
    omega = alphas * spec.a / big_r
    q = oscillator(omega, a, b, 0.0, t)[0]
    if force is not None:
        rf, wf = gauss_rule(0.0, big_r, 96)
        at_rf, wf = mode_table(_j_modes, (0, n_modes), 96), wf * rf / big_r
        load = lambda tau: project(at_rf, wf, sample(lambda x: force(x, tau), rf))
        forced = adaptive_simpson(lambda tau: np.sin(omega * (t - tau)) * load(tau), 0.0, t, tol=1e-9)
        q = q + forced / (omega * spec.rho)
    return contract(_j_modes(0, n_modes, r / big_r) / big_r, q)


def disk_axisym_coefficients(
    spec: DiskMembrane, u0: Callable[[float], float], n_modes: int
) -> list[float]:
    """Projections of u0(r) on the normalized axisymmetric radial modes."""
    mode_count("n_modes", n_modes)
    return gauss_ladder(_radial_rung(spec.radius, 0, n_modes, u0), 192, n_modes)[0][0].tolist()


def _radial_rung(radius: float, m: int, count: int, *data):
    """The Gauss ladder's rung for the r-weighted projections over [0, R] of
    each f(r) in data (zeros for None) on the first count normalized
    Fourier-Bessel modes of order m, one row per f: the modes come from
    their cached table at s = r/R, the weights carry their 1/R."""

    def rung(n):
        rr, w = gauss_rule(0.0, radius, n)
        return project, (mode_table(_j_modes, (m, count), n), w * rr / radius, sample_rows(data, rr))

    return rung


def _j_zeros(m: int, count: int) -> np.ndarray:
    """The first count positive zeros of J_m."""
    return np.array(zero_table(ZeroFamily.BESSEL_J, m, count).roots)


def _j_norms(m: int, count: int) -> np.ndarray:
    """sqrt(2)/|J_m'(alpha_k)| over the first count zeros alpha_k of J_m: R
    times the norm scale of each Fourier-Bessel mode."""
    return math.sqrt(2.0) / abs(bessel_j_prime(m, cached(_j_zeros, m, count)))


def _j_modes(m: int, count: int, s):
    """R times the first count normalized Fourier-Bessel modes of order m at
    s = r/R (a float or an array), one column per zero alpha_k of J_m:
    sqrt(2) J_m(alpha_k s)/|J_m'(alpha_k)|, unit r-weighted norm on [0, 1]."""
    return cached(_j_norms, m, count) * bessel_j(m, outer(s, cached(_j_zeros, m, count)))


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
    factor drops out and the solution reduces to the long-rod radial series;
    height and n_axial are then not read.
    """
    r, z = point
    for name, value in (("radius", radius), ("a2", a2)) + ((("height", height),) if not half_infinite else ()):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    mode_count("n_radial", n_radial)
    if not half_infinite:
        mode_count("n_axial", n_axial)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    if not 0.0 <= r <= radius:
        raise ValueError("radial coordinate outside the cylinder")
    takes_z = _arity_two(t0)
    if half_infinite and takes_z:
        raise ValueError("half-infinite reduction needs radial initial data T0(r)")
    if not half_infinite and not -height / 2.0 <= z <= height / 2.0:
        raise ValueError("axial coordinate outside the cylinder")
    rad_rate = (cached(_j_zeros, 0, n_radial) / radius) ** 2
    # axial modes sqrt(2/H) sin(n pi s/H) in s = z + H/2
    if takes_z:
        axial = uniform_basis(height, DIRICHLET, DIRICHLET, n_axial)
        root_h = math.sqrt(height)

        def rung(sizes):
            # T0(r, z) is sampled once per rung; each (n, k) coefficient is
            # (w_r r J_0) . T . (w_z axial_n), the modes from their tables and
            # their 1/R and 1/sqrt(H) on the weights
            rr, wr = gauss_rule(0.0, radius, sizes[0])
            zz, wz = gauss_rule(-height / 2.0, height / 2.0, sizes[1])
            radial = mode_table(_j_modes, (0, n_radial), sizes[0])
            operands = axial._on_rule(sizes[1]), wz / root_h, sample(t0, rr, zz), radial, wr * rr / radius
            return (lambda ax, wz, data, rad, wr: project(rad, wr, project(ax, wz, data).T)), operands

        coef = gauss_ladder(rung, (96, 96), (n_radial, n_axial))[0]
        ax_here, ax_rate = axial._shapes(z + height / 2.0), np.array(axial.eigenvalues)
    else:
        radial = gauss_ladder(_radial_rung(radius, 0, n_radial, t0), 192, n_radial)[0][0]
        if half_infinite:
            coef, ax_here, ax_rate = radial[None, :], np.ones(1), np.zeros(1)
        else:
            # z-uniform data has only the odd axial modes, with the
            # elementary weights int_0^H X_n ds = 2 sqrt(2H)/(pi n)
            axial = uniform_basis(height, DIRICHLET, DIRICHLET, 2 * n_axial)
            nn = np.arange(1, 2 * n_axial, 2)
            coef = np.multiply.outer(2.0 * math.sqrt(2.0 * height) / (math.pi * nn), radial)
            ax_here, ax_rate = axial._shapes(z + height / 2.0)[::2], np.array(axial.eigenvalues[::2])
    decay = np.exp(-np.add.outer(ax_rate, rad_rate) * a2 * t)
    return contract(ax_here, np.einsum("kn,n->k", coef * decay, _j_modes(0, n_radial, r / radius) / radius))


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
        if not (0.0 < self.radius < math.inf and 0.0 < self.a2 < math.inf and math.isfinite(self.h)):
            raise ValueError("radius and diffusivity must be positive and finite, and h finite")
        if self.bc == BallBC.ROBIN and self.h <= 0.0:
            raise ValueError("Robin surface condition needs h > 0")


def _ball_gamma(spec: BallSpec, k: int) -> float:
    """k-th root of the radial characteristic equation."""
    if spec.bc == BallBC.DIRICHLET:
        return math.pi * k
    if spec.bc == BallBC.NEUMANN:
        return bessel_zero(ZeroFamily.RADIAL_TAN, 0, k)
    return bessel_zero(ZeroFamily.RADIAL_ROBIN, 0, k, param=spec.h * spec.radius)


def _sin_over_r(g, r):
    """sin(g r)/r for g > 0 (even in r) as g sin(u)/u, u = g r; one g gives
    the shape of r, an array of g one column per g."""
    return g * _sinc(outer(as_arg(r), g))


def _ball_modes(spec: BallSpec, gamma):
    """Eigenvalues gamma^2/R^2 and the radial modes C sin(gamma r/R)/r of
    unit norm over the ball volume, for one root or an array of roots."""
    big_r = spec.radius
    f = xp(gamma)
    if spec.bc == BallBC.DIRICHLET:
        c = 1.0 / math.sqrt(2.0 * math.pi * big_r)
    elif spec.bc == BallBC.NEUMANN:
        c = f.sqrt(1.0 + gamma * gamma) / (gamma * math.sqrt(2.0 * math.pi * big_r))
    else:
        hr = spec.h * big_r
        c = f.sqrt((gamma**2 + (hr - 1.0) ** 2) / (gamma**2 + (hr - 1.0) * hr)) / math.sqrt(2.0 * math.pi * big_r)
    g = gamma / big_r
    return (gamma / big_r) ** 2, (lambda r: c * _sin_over_r(g, r))


def _unit_ball_modes(bc: BallBC, n_modes: int, s):
    """The first n_modes radial modes of the unit ball with a Dirichlet or
    Neumann surface at s (an array), one column each: R^{3/2} times those of
    the ball of radius R at r = R s."""
    unit = BallSpec(1.0, bc)
    return _ball_modes(unit, np.array([_ball_gamma(unit, k) for k in range(1, n_modes + 1)]))[1](s)


def ball_radial_modes(spec: BallSpec, k: int):
    """Eigenvalue lam_k = gamma_k^2/R^2 and normalized radial mode
    Phi_k(r) = C_k sin(gamma_k r/R)/r with unit norm over the ball volume."""
    if k < 1:
        raise ValueError("radial index starts at 1")
    lam, phi = _ball_modes(spec, _ball_gamma(spec, k))

    def mode(r):
        r = as_arg(r)
        if not inside(r, 0.0, spec.radius):
            raise ValueError("radial coordinate outside the ball")
        return phi(r)

    return lam, mode


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
    if not (0.0 <= t < math.inf or problem == BallProblem.SOURCES and t == math.inf):
        raise ValueError(f"time must be finite and >= 0 (or inf for the steady sources), got {t!r}")
    big_r = spec.radius
    radial = problem in (BallProblem.COOLING, BallProblem.SOURCES)
    r, theta = (float(point), None) if radial else point
    if not 0.0 <= r <= big_r:
        raise ValueError("radial coordinate outside the ball")
    if radial:
        if t == math.inf:
            return _ball_steady_sources(spec, float(data), r, conductivity)
        mode_count("n_modes", n_modes)
        gammas = np.array([_ball_gamma(spec, k) for k in range(1, n_modes + 1)])
        lam, phi = _ball_modes(spec, gammas)
        cooling = problem == BallProblem.COOLING
        # the unit ball's modes (Robin constant h R) on the rung, their
        # R^{-3/2} on the weights; only a Robin surface's are not cached
        scale = big_r * math.sqrt(big_r)
        if spec.bc == BallBC.ROBIN:
            unit = _ball_modes(BallSpec(1.0, spec.bc, h=spec.h * big_r), gammas)[1]
            table = lambda n: unit(gauss_rule(0.0, 1.0, n)[0])
        else:
            table = lambda n: mode_table(_unit_ball_modes, (spec.bc, n_modes), n)

        def rung(n):
            rr, w = gauss_rule(0.0, big_r, n)
            if cooling:
                return (lambda *ops: 4.0 * math.pi * project(*ops)), (table(n), w * rr * rr / scale, sample(data, rr))
            return project, (table(n), w / scale, rr * rr)

        proj = gauss_ladder(rung, 256, n_modes)[0]
        if cooling:
            return contract(phi(r), proj * np.exp(-lam * spec.a2 * t))
        f = (float(data) / conductivity) * spec.a2 * 4.0 * math.pi * proj
        rate = lam * spec.a2
        return contract(phi(r), f * (1.0 - np.exp(-rate * t)) / rate)
    mode_count("n_modes", n_modes)
    if problem == BallProblem.AXISYM_COOLING:
        return _ball_axisym_cooling(spec, data, n_modes, r, theta, t)
    if problem == BallProblem.LAPLACE_DIRICHLET:
        degrees = np.arange(n_modes)

        def rung(n):
            xs, w = gauss_rule(-1.0, 1.0, n)
            operands = mode_table(_legendre_columns, (n_modes,), n, -1), w, sample(data, np.arccos(xs))
            return (lambda *ops: (degrees + 0.5) * project(*ops)), operands

        a = gauss_ladder(rung, 160, n_modes)[0]
        return contract(_legendre_columns(n_modes, math.cos(theta)), a * (r / big_r) ** degrees)
    raise ValueError(f"unsupported problem kind {problem}")


def _ball_steady_sources(spec: BallSpec, q: float, r: float, conductivity: float) -> float:
    """Steady temperature with uniform sources, from the radial flux balance:
    kappa r^2 u'(r) = -q r^3/3, integrated inward from the surface to
    u(r) = u(R) + q (R^2 - r^2)/(6 kappa)."""
    if spec.bc == BallBC.DIRICHLET:
        surface = 0.0
    elif spec.bc == BallBC.ROBIN:
        # surface flux balance: -kappa u'(R) = kappa h u(R)
        surface = q * spec.radius / (3.0 * conductivity * spec.h)
    else:
        raise ValueError("steady state with uniform sources needs a dissipating surface")
    return surface + q * (spec.radius**2 - r * r) / (6.0 * conductivity)


def _ball_radial_norm(n: int, alpha: float, big_r: float) -> float:
    """int_0^R j_n(alpha r/R)^2 r^2 dr = R^3 j_{n+1}(alpha)^2 / 2, alpha a
    zero of j_n."""
    return 0.5 * big_r**3 * spherical_bessel("j", n + 1, alpha) ** 2


def _sph_zeros(n: int, count: int) -> np.ndarray:
    """The first count positive zeros of j_n."""
    return np.array(_zeros(_SPHERICAL_J, n, count)[:count])


def _sph_modes(n: int, count: int, s):
    """j_n(alpha_k s) at s = r/R (a float or an array), one column per zero
    alpha_k of j_n, k = 1 .. count."""
    return spherical_bessel("j", n, outer(s, cached(_sph_zeros, n, count)))


def _ball_axisym_cooling(spec: BallSpec, t0, n_modes: int, r: float, theta: float, t: float) -> float:
    if spec.bc != BallBC.DIRICHLET:
        raise NotImplementedError("axisymmetric cooling implemented for the clamped surface")
    big_r = spec.radius
    orders = range(n_modes)
    alphas = [cached(_sph_zeros, n, n_modes) for n in orders]
    norms = [_ball_radial_norm(n, alphas[n], big_r) * (2.0 / (2 * n + 1)) for n in orders]

    def per_degree(legendre, ws, data, weights, *radial):
        angular = project(legendre, ws, data)
        return [project(radial[n], weights, angular[:, n]) / norms[n] for n in orders]

    def rung(sizes):
        # T0(r, theta) is sampled once per rung; each (n, k) coefficient is
        # (w_r r^2 j_n(alpha r/R)) . T . (w_x P_n(x)), x = cos(theta), the
        # modes from their tables at r/R and x
        rr, wr = gauss_rule(0.0, big_r, sizes[0])
        xs, ws = gauss_rule(-1.0, 1.0, sizes[1])
        data = sample(t0, rr, np.arccos(xs))
        radial = [mode_table(_sph_modes, (n, n_modes), sizes[0]) for n in orders]
        legendre = mode_table(_legendre_columns, (n_modes,), sizes[1], -1)
        return per_degree, (legendre, ws, data, wr * rr * rr, *radial)

    coef = gauss_ladder(rung, (128, 96), (n_modes, n_modes))[0]
    p_here = _legendre_columns(n_modes, math.cos(theta))
    phi = [_sph_modes(n, n_modes, r / big_r) * p_here[n] for n in orders]
    amps = [coef[n] * np.exp(-((alphas[n] / big_r) ** 2) * spec.a2 * t) for n in orders]
    return contract(np.concatenate(phi), np.concatenate(amps))


# ----------------------------------------------------------------------
# Series expansions
# ----------------------------------------------------------------------

@dataclass
class SeriesExpansion:
    """Coefficients of an orthogonal expansion plus its reconstruction.

    ``quadrature_error`` estimates the projection's error: the largest change
    of a coefficient between the last two Gauss rungs compared, relative to
    the largest sum of absolute quadrature summands of a coefficient (NaN
    when only the cap's rule ran; see ``_quad.gauss_ladder``).
    """

    kind: str
    coefficients: list[float]
    reconstruct: Callable[[float], float]
    quadrature_error: float


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
    sum c_n P_n(x).  The integrals run on the Gauss ladder, capped at 256
    points (Fourier-Bessel) or max(160, 2 n_terms) (Legendre).
    """
    mode_count("n_terms", n_terms)
    if kind == "fourier_bessel":
        if not 0.0 < radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {radius!r}")
        (a,), err = gauss_ladder(_radial_rung(radius, m, n_terms, f), 256, n_terms)

        def reconstruct(r):
            r = as_arg(r)
            if not inside(r, 0.0, radius):
                raise ValueError("radial coordinate outside the disk")
            return contract(_j_modes(m, n_terms, r / radius) / radius, a)

        return SeriesExpansion(kind, (cached(_j_norms, m, n_terms) / radius * a).tolist(), reconstruct, err)
    if kind == "legendre":
        half = np.arange(n_terms) + 0.5

        def rung(n):
            xs, w = gauss_rule(-1.0, 1.0, n)
            operands = mode_table(_legendre_columns, (n_terms,), n, -1), w, sample(f, xs)
            return (lambda *ops: half * project(*ops)), operands

        c, err = gauss_ladder(rung, max(160, 2 * n_terms), n_terms)
        return SeriesExpansion(kind, c.tolist(), lambda x: contract(_legendre_columns(n_terms, x), c), err)
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
