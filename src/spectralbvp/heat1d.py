"""Heat and diffusion solvers on the line, half-line and interval.

The line solver convolves the Gaussian fundamental solution with the initial
data; the half-line kernels come from parity images, with the Robin kernel
adding an exponentially weighted image tail that reduces to a scaled
complementary-error-function expression; the interval solver expands over
the closed-form eigenbasis with exponentially relaxing mode amplitudes; and
the frequency kernel of the clamped interval is the sin/sin closed form in
sqrt(i omega).
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import Callable

from ._quad import adaptive_simpson, erfcx, fixed_gauss, gauss_rule, sample
from ._record import dataclass
from ._series import contract, project
from ._vec import np
from .intervals import UniformBasis, _project, uniform_basis
from .sturm import BoundaryCondition

__all__ = [
    "LINE_TAIL_MASS",
    "HeatMedium",
    "HeatKernel",
    "heat_kernel",
    "gauss_kernel",
    "heat_line_eval",
    "heat_halfline_kernel",
    "heat_halfline_eval",
    "HeatModalSolution",
    "heat_interval_modes",
    "freq_green_heat",
]


#: Kernel mass discarded by truncating convolutions at |x - x'| = 8 sqrt(4 a2 t):
#: the absolute tail error is bounded by sup|u0| times this constant.
LINE_TAIL_MASS = math.erfc(8.0)


@dataclass(frozen=True)
class HeatMedium:
    """Diffusivity a2 = kappa/(c rho) (or the diffusion coefficient), with an
    optional first-order volumetric sink of rate q >= 0."""

    a2: float
    absorption: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.a2 < math.inf and 0.0 <= self.absorption < math.inf):
            raise ValueError("need finite a2 > 0 and absorption >= 0")


@dataclass(frozen=True)
class HeatKernel:
    """Point-response kernel G(x, x'; t) with its geometry tag.

    Kernels are nonnegative for every t > 0 (the clamped half-line kernel on
    its physical quadrant included), and the line kernel carries unit mass.
    """

    geometry: str  # "line" | "halfline_dirichlet" | "halfline_neumann" | "halfline_robin"
    medium: HeatMedium
    h: float = 0.0

    def __call__(self, x: float, xp: float, t: float) -> float:
        if self.geometry == "line":
            return gauss_kernel(x - xp, self.medium.a2, t)
        return heat_halfline_kernel(self.h, self.medium, x, xp, t)


def heat_kernel(geometry: str, medium: HeatMedium, h: float = 0.0) -> HeatKernel:
    """Factory for the line and half-line kernels; the half-line variants
    fix h to 0 (insulated) or infinity (clamped) for the named geometries."""
    if geometry == "line":
        return HeatKernel("line", medium)
    if geometry == "halfline_dirichlet":
        return HeatKernel(geometry, medium, h=math.inf)
    if geometry == "halfline_neumann":
        return HeatKernel(geometry, medium, h=0.0)
    if geometry == "halfline_robin":
        if not h >= 0.0:
            raise ValueError(f"Robin parameter h must be >= 0, got h = {h!r}")
        return HeatKernel(geometry, medium, h=h)
    raise ValueError(f"unknown kernel geometry {geometry!r}")


def gauss_kernel(s: float, a2: float, t: float) -> float:
    """Fundamental solution (4 pi a2 t)^{-1/2} exp(-s^2/(4 a2 t)); unit mass
    in s for every t > 0."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"kernel defined for finite t > 0, got t = {t!r}")
    if not math.isfinite(s):
        raise ValueError(f"kernel needs a finite s, got s = {s!r}")
    return math.exp(-s * s / (4.0 * a2 * t)) / math.sqrt(4.0 * math.pi * a2 * t)


def heat_line_eval(
    u0: Callable[[float], float],
    medium: HeatMedium,
    x: float,
    t: float,
    source: Callable[[float, float], float] | None = None,
) -> float:
    """Temperature on the infinite line from initial data u0 (and an optional
    volumetric source f(x, t)).

    The convolution is truncated at |x - x'| = 8 sqrt(4 a2 t); the discarded
    kernel mass is bounded by ``LINE_TAIL_MASS`` (erfc(8), about 1e-29), so
    the tail error is below sup|u0| times that constant.  With a first-order
    sink the whole solution is multiplied by exp(-q t).
    """
    a2 = medium.a2
    return _heat_potential(lambda xp, s: gauss_kernel(x - xp, a2, s), lambda w: x - w, medium, x, t, u0, source)


def _heat_potential(kernel, lower, medium: HeatMedium, x: float, t: float, u0, source) -> float:
    """int G(x, x'; t) u0(x') dx' + int_0^t int G(x, x'; t - tau) f(x', tau)
    dx' dtau, times e^{-q t}, for the point response ``kernel(x', s)`` at x
    after time s.  The window after time s is [lower(w), x + w] with
    w = 8 sqrt(4 a2 s)."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"evaluation requires finite t > 0, got t = {t!r}")
    if not math.isfinite(x):
        raise ValueError(f"evaluation needs a finite x, got x = {x!r}")
    a2 = medium.a2
    w = 8.0 * math.sqrt(4.0 * a2 * t)
    val = adaptive_simpson(lambda xp: kernel(xp, t) * u0(xp), lower(w), x + w, tol=1e-11)
    if source is not None:
        def layer(tau: float) -> float:
            dt = t - tau
            if dt <= 0.0:
                return 0.0
            ww = 8.0 * math.sqrt(4.0 * a2 * dt)
            return adaptive_simpson(lambda xp: kernel(xp, dt) * source(xp, tau), lower(ww), x + ww, tol=1e-10)

        val += adaptive_simpson(layer, 0.0, t, tol=1e-9)
    if medium.absorption > 0.0:
        val *= math.exp(-medium.absorption * t)
    return val


def heat_halfline_kernel(
    h: float,
    medium: HeatMedium,
    x: float,
    xp: float,
    t: float,
    method: str = "closed",
) -> float:
    """Half-line kernel G_h(x, x'; t) for the end condition u_x(0) = h u(0).

    h = 0 is the insulated end (sum of direct and image Gaussians), h = inf
    the clamped end (difference), and finite h adds the exponentially
    weighted image tail
    -2h int_0^inf G(x + x' + u; t) e^{-h u} du,
    evaluated in closed form through the scaled complementary error function
    (method="closed") or by direct quadrature (method="quad") as an
    independent cross-check of the branch handling.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"kernel defined for finite t > 0, got t = {t!r}")
    if not (0.0 <= x < math.inf and 0.0 <= xp < math.inf):
        raise ValueError(f"half-line kernel needs finite x, x' >= 0, got x = {x!r}, x' = {xp!r}")
    if not h >= 0.0:
        raise ValueError(f"Robin parameter h must be >= 0 (or inf), got h = {h!r}")
    a2 = medium.a2
    direct = gauss_kernel(x - xp, a2, t)
    image = gauss_kernel(x + xp, a2, t)
    if math.isinf(h):
        return direct - image
    if h == 0.0:
        return direct + image
    s = x + xp
    kappa = a2 * t
    if method == "closed":
        z = s / (2.0 * math.sqrt(kappa)) + h * math.sqrt(kappa)
        tail = h * erfcx(z) * math.exp(-s * s / (4.0 * kappa))
    elif method == "quad":
        cut = 8.0 * math.sqrt(4.0 * kappa) + 40.0 / h
        tail = 2.0 * h * adaptive_simpson(
            lambda u: gauss_kernel(s + u, a2, t) * math.exp(-h * u), 0.0, cut, tol=1e-13
        )
    else:
        raise ValueError("method must be 'closed' or 'quad'")
    return direct + image - tail


def heat_halfline_eval(
    u0: Callable[[float], float],
    h: float,
    medium: HeatMedium,
    x: float,
    t: float,
    source: Callable[[float, float], float] | None = None,
) -> float:
    """Temperature on the half-line from initial data u0 with the Robin end
    condition of parameter h (0 = insulated, inf = clamped at zero)."""
    return _heat_potential(
        lambda xp, s: heat_halfline_kernel(h, medium, x, xp, s), lambda w: 0.0, medium, x, t, u0, source
    )


# ----------------------------------------------------------------------
# Interval
# ----------------------------------------------------------------------

class HeatModalSolution:
    """Relaxing eigenfunction expansion v(x, t) = sum a_n e^{-lam_n a2 t} X_n(x)
    plus the forced amplitudes when a source is supplied.

    ``source_coeffs`` maps tau to the source projections f_n(tau) of every
    mode; the forced amplitudes int_0^t e^{-lam_n a2 (t - tau)} f_n(tau) dtau
    are one array integral, sampling the source once per tau node.  The
    amplitudes of the last t are kept, so calls at one t integrate once.

    ``relaxation_times`` lists tau_n = 1/(a2 lam_n) per retained mode (inf
    for a zero mode).
    """

    def __init__(
        self,
        basis: UniformBasis,
        medium: HeatMedium,
        coefficients: list[float],
        source_coeffs: Callable[[float], np.ndarray] | None = None,
    ):
        self.basis = basis
        self.medium = medium
        self.coefficients = coefficients
        self._source_coeffs = source_coeffs
        self._forced: tuple[float, np.ndarray] | None = None

    @property
    def truncation(self) -> int:
        return len(self.coefficients)

    @property
    def relaxation_times(self) -> list[float]:
        a2 = self.medium.a2
        return [math.inf if m.lam == 0.0 else 1.0 / (a2 * m.lam) for m in self.basis.modes]

    def truncation_factor(self, t: float) -> float:
        """Size of the slowest discarded-mode envelope e^{-lam_N a2 t}; above
        1e-14 the requested time is too short for this truncation to carry
        tolerance guarantees."""
        lam_last = self.basis.modes[-1].lam
        return math.exp(-lam_last * self.medium.a2 * t)

    def __call__(self, x, t: float):
        if not 0.0 <= t < math.inf:
            raise ValueError(f"time must be finite and >= 0, got {t!r}")
        a2 = self.medium.a2
        if self.truncation_factor(t) > 1e-14:
            warnings.warn(
                "requested time is short for this truncation; result carries "
                f"an unresolved mode envelope of size {self.truncation_factor(t):.2e}",
                stacklevel=2,
            )
        rates = np.array(self.basis.eigenvalues) * a2
        amps = np.array(self.coefficients) * np.exp(-rates * t)
        if self._source_coeffs is not None:
            if self._forced is None or self._forced[0] != t:
                forced = lambda tau: np.exp(-rates * (t - tau)) * self._source_coeffs(tau)
                self._forced = (t, adaptive_simpson(forced, 0.0, t, tol=1e-11))
            amps += self._forced[1]
        total = contract(self.basis._shapes(x), amps)
        if self.medium.absorption > 0.0:
            total *= math.exp(-self.medium.absorption * t)
        return total

    def mean(self, t: float) -> float:
        """Spatial average over [0, l]."""
        l = self.basis.l
        return fixed_gauss(lambda x: self(x, t), 0.0, l, n=96) / l


def heat_interval_modes(
    bc: tuple[BoundaryCondition, BoundaryCondition],
    u0: Callable[[float], float] | None,
    medium: HeatMedium,
    l: float,
    n_modes: int,
    source: Callable[[float, float], float] | None = None,
) -> HeatModalSolution:
    """Modal solution on [0, l] with Dirichlet/Neumann/Robin ends.

    Initial coefficients are projections of u0 on the normalized modes; a
    source f(x, t) contributes its projections through the relaxation
    integral; relaxation times are reported per mode.
    """
    left, right = bc
    basis = uniform_basis(l, left, right, n_modes)
    coeffs = _project(basis, u0)
    load = None
    if source is not None:
        # the modes come from their table, the weights carry 1/sqrt(l); each
        # tau samples only the source
        xs, w = gauss_rule(0.0, l, 128)
        phi, w = basis._on_rule(128), w / math.sqrt(l)
        load = lambda tau: project(phi, w, sample(lambda x: source(x, tau), xs))
    return HeatModalSolution(basis, medium, coeffs, load)


# ----------------------------------------------------------------------
# Frequency kernel of the clamped interval
# ----------------------------------------------------------------------

def freq_green_heat(
    medium: HeatMedium,
    l: float,
    omega: float,
    x: float,
    xp: float,
    volumetric_heat_capacity: float = 1.0,
) -> complex:
    """Steady harmonic response kernel of the interval held at zero at both
    ends: sin(w x_</a) sin(w (l-x_>)/a) / (c rho a w sin(w l/a)) with
    w = sqrt(i omega) on the branch Im w >= 0.  The omega -> 0 limit is the
    static kernel x_<(l - x_>)/(c rho a^2 l); the derivative jump across
    x = x' is 1/(c rho a^2)."""
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    crho = volumetric_heat_capacity
    if not 0.0 < crho < math.inf:
        raise ValueError(f"volumetric_heat_capacity must be positive and finite, got {crho!r}")
    if not 0.0 < l < math.inf:
        raise ValueError(f"interval length must be finite and positive, got l = {l!r}")
    if not (0.0 <= x <= l and 0.0 <= xp <= l):
        raise ValueError("evaluation points must lie in [0, l]")
    a = math.sqrt(medium.a2)
    x_lo, x_hi = (x, xp) if x <= xp else (xp, x)
    if omega == 0.0:
        return complex(x_lo * (l - x_hi) / (crho * medium.a2 * l))
    w = cmath.sqrt(1j * omega)
    if w.imag < 0.0:
        w = -w
    return (
        cmath.sin(w * x_lo / a)
        * cmath.sin(w * (l - x_hi) / a)
        / (crho * a * w * cmath.sin(w * l / a))
    )
