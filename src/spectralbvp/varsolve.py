"""Closed-form-driven solvers for the classic variational problems:
tangency analysis of the cosh/sinh/arcsin shape equations (soap film between
rings, hanging chain, maximum-area arc), cycloid fitting for the fastest
descent curve, geodesics on the sphere, cylinder and cone, and a generic
finite-difference residual check of the Euler-Lagrange equation.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Callable, Sequence

from ._quad import adaptive_simpson
from ._record import dataclass
from ._rootfind import refine_root

__all__ = [
    "TranscendentalKind",
    "RootClassification",
    "TranscendentalRoots",
    "solve_transcendental",
    "catenoid_alpha_star",
    "CycloidFit",
    "brachistochrone_fit",
    "brachistochrone_to_vertical",
    "GeodesicCurve",
    "geodesic",
    "el_residual",
]

_STANDARD_GRAVITY = 9.80665


# ----------------------------------------------------------------------
# Transcendental shape equations
# ----------------------------------------------------------------------

class TranscendentalKind(str, Enum):
    COSH = "cosh_eq"      # cosh(u) = alpha u  (soap film between rings)
    SINH = "sinh_eq"      # sinh(u) = alpha u  (hanging chain)
    ARCSIN = "arcsin_eq"  # arcsin(u) = alpha u (maximum-area circular arc)


class RootClassification(str, Enum):
    NONE = "none"                    # no admissible shape
    TANGENT = "tangent"              # double root at the existence threshold
    TWO = "two"                      # two candidate shapes
    SINGLE = "single"                # one nontrivial root
    TRIVIAL_ONLY = "trivial_only"    # only u = 0
    BEYOND_SINGLE_VALUED = "beyond_single_valued"  # arc no longer a graph


@dataclass(frozen=True)
class TranscendentalRoots:
    kind: TranscendentalKind
    alpha: float
    roots: tuple[float, ...]
    classification: RootClassification
    physical_root: float | None = None
    free_energies: tuple[float, ...] = ()


def _u_star() -> float:
    """Tangency point of cosh(u) = alpha u: root of u tanh(u) = 1."""
    return refine_root(lambda u: u * math.tanh(u) - 1.0, 0.5, 2.0, ftol=1e-15)


def catenoid_alpha_star() -> float:
    """Critical slope alpha* = sinh(u*) below which no smooth film of
    revolution spans the rings."""
    return math.sinh(_u_star())


def _film_area(u: float) -> float:
    """Area functional (per 4 pi sigma and unit half-separation) of the
    revolution surface y = C1 cosh(x/C1) with C1 = 1/(2u) ... computed by
    quadrature of y sqrt(1 + y'^2) over the span, with l = 1."""
    c1 = 0.5 / u  # l = 1

    def integrand(x: float) -> float:
        y = c1 * math.cosh(x / c1)
        yp = math.sinh(x / c1)
        return y * math.sqrt(1.0 + yp * yp)

    return adaptive_simpson(integrand, -0.5, 0.5, tol=1e-12)


def _sinh_ratio(u: float) -> float:
    if abs(u) < 1e-4:
        u2 = u * u
        return 1.0 + u2 / 6.0 + u2 * u2 / 120.0
    return math.sinh(u) / u


def _arcsin_ratio(u: float) -> float:
    if abs(u) < 1e-4:
        u2 = u * u
        return 1.0 + u2 / 6.0 + 3.0 * u2 * u2 / 40.0
    return math.asin(u) / u


def solve_transcendental(kind: TranscendentalKind | str, alpha: float) -> TranscendentalRoots:
    """All positive roots of the shape equation with their classification.

    cosh: below the tangency slope there is no root (no smooth film); at it
    a double root; above it two, of which the physical one minimizes the
    film area (ties broken toward the thinner neck, i.e. larger u).
    sinh: the nontrivial chain shape exists exactly for alpha > 1.
    arcsin: a root in (0, 1] exists for alpha in (1, pi/2]; beyond pi/2 the
    arc stops being single-valued over its chord.
    """
    kind = TranscendentalKind(kind)
    if alpha <= 0.0:
        raise ValueError("slope parameter must be positive")
    if kind == TranscendentalKind.COSH:
        ustar = _u_star()
        astar = math.sinh(ustar)
        f = lambda u: math.cosh(u) - alpha * u
        fstar = f(ustar)
        tol = 1e-8
        if fstar > tol:
            return TranscendentalRoots(kind, alpha, (), RootClassification.NONE)
        if abs(fstar) <= tol and abs(math.sinh(ustar) - alpha) <= tol:
            return TranscendentalRoots(
                kind, alpha, (ustar,), RootClassification.TANGENT, physical_root=ustar
            )
        hi = ustar
        while f(hi) < 0.0:
            hi *= 2.0
        u1 = refine_root(f, 1e-12, ustar, ftol=1e-13)
        u2 = refine_root(f, ustar, hi, ftol=1e-13)
        e1, e2 = _film_area(u1), _film_area(u2)
        physical = u1 if e1 < e2 else u2  # tie -> u2, the thinner neck
        return TranscendentalRoots(
            kind,
            alpha,
            (u1, u2),
            RootClassification.TWO,
            physical_root=physical,
            free_energies=(e1, e2),
        )
    if kind == TranscendentalKind.SINH:
        if alpha <= 1.0:
            return TranscendentalRoots(kind, alpha, (), RootClassification.TRIVIAL_ONLY)
        g = lambda u: _sinh_ratio(u) - alpha
        hi = 1.0
        while g(hi) < 0.0:
            hi *= 2.0
        u = refine_root(g, 1e-14, hi, ftol=1e-14)
        return TranscendentalRoots(kind, alpha, (u,), RootClassification.SINGLE, physical_root=u)
    # arcsin
    if alpha <= 1.0:
        return TranscendentalRoots(kind, alpha, (), RootClassification.TRIVIAL_ONLY)
    if alpha > 0.5 * math.pi:
        return TranscendentalRoots(kind, alpha, (), RootClassification.BEYOND_SINGLE_VALUED)
    g = lambda u: _arcsin_ratio(u) - alpha
    if g(1.0) <= 0.0:
        u = 1.0
    else:
        u = refine_root(g, 1e-14, 1.0, ftol=1e-14)
    return TranscendentalRoots(kind, alpha, (u,), RootClassification.SINGLE, physical_root=u)


# ----------------------------------------------------------------------
# Fastest-descent cycloid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CycloidFit:
    """Cycloid x = c1 (phi - sin phi), y = c1 (1 - cos phi) through (l, h),
    with the rolling angle phi2 at the endpoint and the descent time."""

    phi2: float
    c1: float
    l: float
    h: float
    travel_time: float
    gravity: float

    def x(self, phi: float) -> float:
        return self.c1 * (phi - math.sin(phi))

    def y(self, phi: float) -> float:
        return self.c1 * (1.0 - math.cos(phi))

    def phi_of_x(self, x: float) -> float:
        """Invert x(phi) on [0, phi2] (monotone)."""
        if not 0.0 <= x <= self.l * (1.0 + 1e-12):
            raise ValueError("x outside the fitted span")
        return refine_root(lambda p: self.x(p) - x, 0.0, self.phi2, ftol=1e-14)

    def as_function(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """y(x) and y'(x) on (0, l), resampled through the parameter."""

        def yx(x: float) -> float:
            return self.y(self.phi_of_x(x))

        def ypx(x: float) -> float:
            p = self.phi_of_x(x)
            return math.sin(p) / (1.0 - math.cos(p))

        return yx, ypx


def brachistochrone_fit(l: float, h: float, gravity: float = _STANDARD_GRAVITY) -> CycloidFit:
    """Cycloid of fastest frictionless descent from the origin to (l, h),
    h measured downward.

    Solves (1 - cos phi)/(phi - sin phi) = h/l for the endpoint angle in
    (0, 2 pi) (the stable form uses 2 sin^2(phi/2) for the numerator), then
    c1 = h/(1 - cos phi2) and t* = phi2/(2 omega0), omega0 = sqrt(g/(4 c1)).
    """
    if l <= 0.0 or h <= 0.0:
        raise ValueError("endpoint must satisfy l > 0 and h > 0 (descent)")
    ratio = h / l

    def g(phi: float) -> float:
        return 2.0 * math.sin(0.5 * phi) ** 2 - ratio * (phi - math.sin(phi))

    phi2 = refine_root(g, 1e-9, 2.0 * math.pi - 1e-9, ftol=1e-14)
    c1 = h / (1.0 - math.cos(phi2))
    omega0 = math.sqrt(gravity / (4.0 * c1))
    return CycloidFit(phi2=phi2, c1=c1, l=l, h=h, travel_time=phi2 / (2.0 * omega0), gravity=gravity)


def brachistochrone_to_vertical(l: float, gravity: float = _STANDARD_GRAVITY) -> CycloidFit:
    """Fastest descent from the origin to the vertical line x = l (free
    height): the cycloid meets the line orthogonally, so phi2 = pi and
    c1 = l/pi."""
    if l <= 0.0:
        raise ValueError("need l > 0")
    c1 = l / math.pi
    omega0 = math.sqrt(gravity / (4.0 * c1))
    return CycloidFit(
        phi2=math.pi, c1=c1, l=l, h=2.0 * c1, travel_time=math.pi / (2.0 * omega0), gravity=gravity
    )


# ----------------------------------------------------------------------
# Geodesics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicCurve:
    """Shortest path between two surface points.

    ``point(s)`` maps the normalized parameter s in [0, 1] to Cartesian
    coordinates; ``arclength`` is the curve length; ``branch`` names the
    closed-form family the endpoints selected.
    """

    surface: str
    point: Callable[[float], tuple[float, float, float]]
    arclength: float
    branch: str
    plane: tuple[float, float] | None = None  # sphere: z = A x + B y


def _sphere_xyz(theta: float, phi: float) -> tuple[float, float, float]:
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def _cross(u, v) -> tuple[float, float, float]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def geodesic(surface: str, p1, p2, radius: float = 1.0, cone_slope: float = 1.0) -> GeodesicCurve:
    """Closed-form geodesic through two points.

    sphere: points (theta, phi); the great-circle arc in the plane through
    the center (meridian branch when that plane contains the axis); antipodal
    endpoints are rejected as a degenerate family.
    cylinder: points (phi, z) on radius R; a helix, degenerating to a circle
    arc at equal heights and to a straight generator line at equal angles.
    cone: points (phi, z > 0) on x = a z cos(phi), y = a z sin(phi); the
    unrolled-plane straight line, a generator segment at equal angles.
    """
    if surface == "sphere":
        th1, ph1 = p1
        th2, ph2 = p2
        v1 = _sphere_xyz(th1, ph1)
        v2 = _sphere_xyz(th2, ph2)
        cosang = min(max(v1[0] * v2[0] + v1[1] * v2[1] + v1[2] * v2[2], -1.0), 1.0)
        normal = _cross(v1, v2)
        nn = math.hypot(*normal)
        if nn < 1e-12:
            if cosang > 0.0:
                raise ValueError("coincident endpoints do not select a geodesic")
            raise ValueError("antipodal endpoints: the great-circle family is degenerate")
        angle = math.acos(cosang)
        # orthonormal frame in the cutting plane
        e1 = v1
        e2 = _cross([c / nn for c in normal], v1)
        plane = None
        branch = "meridian" if abs(normal[2]) < 1e-12 else "great_circle"
        if abs(normal[2]) >= 1e-12:
            plane = (-normal[0] / normal[2], -normal[1] / normal[2])

        def point(s: float, e1=e1, e2=e2, angle=angle, radius=radius):
            c, sn = math.cos(s * angle), math.sin(s * angle)
            return tuple(radius * (c * u + sn * v) for u, v in zip(e1, e2))

        return GeodesicCurve("sphere", point, radius * angle, branch, plane)
    if surface == "cylinder":
        ph1, z1 = p1
        ph2, z2 = p2
        dphi = math.remainder(ph2 - ph1, 2.0 * math.pi)  # shortest winding
        dz = z2 - z1
        if dphi == 0.0 and dz == 0.0:
            raise ValueError("coincident endpoints do not select a geodesic")
        if dphi == 0.0:
            branch = "generator"
        elif dz == 0.0:
            branch = "circle_arc"
        else:
            branch = "helix"

        def point(s: float):
            ph = ph1 + s * dphi
            return (radius * math.cos(ph), radius * math.sin(ph), z1 + s * dz)

        return GeodesicCurve(
            "cylinder", point, math.hypot(radius * dphi, dz), branch
        )
    if surface == "cone":
        a = cone_slope
        ph1, z1 = p1
        ph2, z2 = p2
        if z1 <= 0.0 or z2 <= 0.0:
            raise ValueError("cone points need z > 0")
        beta = 1.0 / math.sqrt(1.0 + a * a)  # developed angle per unit azimuth
        # development: polar radius = slant distance from apex, angle = a*beta*phi
        rho1 = z1 * math.sqrt(1.0 + a * a)
        rho2 = z2 * math.sqrt(1.0 + a * a)
        psi1 = a * beta * ph1
        psi2 = a * beta * ph2
        dpsi = psi2 - psi1
        length = math.sqrt(rho1**2 + rho2**2 - 2.0 * rho1 * rho2 * math.cos(dpsi))
        branch = "generator" if abs(ph1 - ph2) < 1e-14 else "unrolled_line"

        def point(s: float):
            # straight line in the developed plane, folded back on the cone
            x1d, y1d = rho1 * math.cos(psi1), rho1 * math.sin(psi1)
            x2d, y2d = rho2 * math.cos(psi2), rho2 * math.sin(psi2)
            xd = x1d + s * (x2d - x1d)
            yd = y1d + s * (y2d - y1d)
            rho = math.hypot(xd, yd)
            psi = math.atan2(yd, xd)
            # unwrap psi continuously toward the segment
            base = psi1 + s * dpsi
            while psi - base > math.pi:
                psi -= 2.0 * math.pi
            while base - psi > math.pi:
                psi += 2.0 * math.pi
            z = rho / math.sqrt(1.0 + a * a)
            ph = psi / (a * beta)
            return (a * z * math.cos(ph), a * z * math.sin(ph), z)

        return GeodesicCurve("cone", point, length, branch)
    raise ValueError("surface must be 'sphere', 'cylinder' or 'cone'")


# ----------------------------------------------------------------------
# Euler-Lagrange residual
# ----------------------------------------------------------------------

def el_residual(
    integrand: Callable[[float, float, float], float],
    y: Callable[[float], float],
    grid: Sequence[float],
    yprime: Callable[[float], float] | None = None,
    h_fd: float | None = None,
) -> float:
    """max over the grid of |F_y - d/dx F_{y'}| along the candidate curve.

    Partial derivatives of the integrand and the outer x-derivative are all
    central differences with step h_fd (default eps^{1/3} times the local
    scale); a vanishing residual certifies the curve as an extremal.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty grid")
    if yprime is None:
        hy = sys.float_info.epsilon ** (1.0 / 3.0)

        def yprime_(x: float) -> float:
            return (y(x + hy) - y(x - hy)) / (2.0 * hy)

        yprime = yprime_

    def f_y(x: float, yy: float, yp: float, d: float) -> float:
        return (integrand(x, yy + d, yp) - integrand(x, yy - d, yp)) / (2.0 * d)

    def f_yp(x: float, yy: float, yp: float, d: float) -> float:
        return (integrand(x, yy, yp + d) - integrand(x, yy, yp - d)) / (2.0 * d)

    eps = sys.float_info.epsilon
    worst = 0.0
    for x in grid:
        yy = y(x)
        yp = yprime(x)
        scale = max(1.0, abs(x), abs(yy), abs(yp))
        d = h_fd if h_fd is not None else eps ** (1.0 / 3.0) * scale
        # outer step is wider than the partial-derivative step so the inner
        # finite-difference noise is not amplified by the second division
        d_out = h_fd if h_fd is not None else eps ** 0.25 * scale
        momentum = lambda xx: f_yp(xx, y(xx), yprime(xx), d)
        dmom = (momentum(x + d_out) - momentum(x - d_out)) / (2.0 * d_out)
        res = abs(f_y(x, yy, yp, d) - dmom)
        worst = max(worst, res)
    return worst
