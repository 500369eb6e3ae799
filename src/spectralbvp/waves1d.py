"""One-dimensional wave dynamics on the line, half-line and interval.

Closed-form travelling-wave solutions from initial data, the forced response
over the characteristic triangle, reflection by parity continuation, modal
solutions for clamped/free/elastically held ends with and without viscous
damping, partial sums exhibiting the jump-overshoot phenomenon, and the
time- and frequency-domain point-response kernels of the uniform string.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import Callable

from ._quad import adaptive_simpson
from ._record import dataclass
from ._series import contract, oscillator
from ._vec import np
from .intervals import UniformBasis, _project, uniform_basis
from .sturm import BoundaryCondition

__all__ = [
    "WaveMedium",
    "ExtensionMode",
    "extend",
    "dalembert",
    "halfline_eval",
    "duhamel_forced",
    "ModalSolution",
    "string_modes",
    "damped_modes",
    "gibbs_partial_sum",
    "freq_green_string",
    "time_green_string",
    "ResonanceError",
]


@dataclass(frozen=True)
class WaveMedium:
    """Uniform string/rod: wave speed a, length l, viscous damping rate eta,
    linear mass density rho."""

    a: float
    l: float = math.inf
    eta: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        finite = 0.0 < self.a < math.inf and 0.0 < self.rho < math.inf and 0.0 <= self.eta < math.inf
        if not (finite and self.l > 0.0):
            raise ValueError("need finite a > 0, rho > 0, eta >= 0, and l > 0 (inf for the line)")


def _check_speed(a: float) -> None:
    if not 0.0 < a < math.inf:
        raise ValueError(f"need finite wave speed a > 0, got a = {a!r}")


def _sign(x: float) -> float:
    """Sign with sign(0) = 0, so values on a characteristic line through a
    data discontinuity come out as the average of the one-sided limits."""
    return math.copysign(1.0, x) if x != 0.0 else 0.0


def dalembert(
    u0: Callable[[float], float],
    v0: Callable[[float], float] | None,
    a: float,
    x: float,
    t: float,
) -> float:
    """Displacement of the infinite string from initial shape u0 and initial
    velocity v0: (u0(x+at) + u0(x-at))/2 + (1/2a) int_{x-at}^{x+at} v0."""
    if not (math.isfinite(x) and 0.0 <= t < math.inf):
        raise ValueError(f"need finite x and finite t >= 0, got x = {x!r}, t = {t!r}")
    _check_speed(a)
    val = 0.5 * (u0(x + a * t) + u0(x - a * t))
    if v0 is not None and t > 0.0:
        # well inside the documented bound of 1e-9 (1 + |t|)
        tol = 1e-13 * (1.0 + a * t)
        val += adaptive_simpson(v0, x - a * t, x + a * t, tol=tol) / (2.0 * a)
    return val


class ExtensionMode(str, Enum):
    ODD0_ODD_L = "odd0_odd_l"      # fixed at both ends, period 2l
    ODD0_EVEN_L = "odd0_even_l"    # fixed at 0, free at l, period 4l
    EVEN0_EVEN_L = "even0_even_l"  # free at both ends, period 2l


def extend(base: Callable[[float], float], mode: ExtensionMode | str, l: float) -> Callable[[float], float]:
    """Total function on the line with the parities and period of the mode,
    agreeing with ``base`` on [0, l]."""
    mode = ExtensionMode(mode)
    odd0 = mode != ExtensionMode.EVEN0_EVEN_L  # odd about the origin
    odd_l = mode == ExtensionMode.ODD0_ODD_L  # odd about l
    period = 2.0 * l if odd0 == odd_l else 4.0 * l

    def f(x: float) -> float:
        y = math.fmod(x, period)
        if y < 0.0:
            y += period
        flip = False
        if y > 0.5 * period:  # reflect about the origin, one period on
            y, flip = period - y, odd0
        if y > l:  # reflect about l
            y, flip = 2.0 * l - y, flip != odd_l
        v = base(y)
        return -v if flip else v

    return f


def halfline_eval(
    u0: Callable[[float], float],
    v0: Callable[[float], float] | None,
    bc: str,
    a: float,
    x: float,
    t: float,
) -> float:
    """Half-line solution (x > 0) with a fixed or free end at the origin.

    Uses the closed reflection formulas; identical to composing ``dalembert``
    with the corresponding parity extension of the data.
    """
    if not (0.0 <= x < math.inf and 0.0 <= t < math.inf):
        raise ValueError(f"need finite x >= 0 and finite t >= 0, got x = {x!r}, t = {t!r}")
    _check_speed(a)
    s = x - a * t
    r = x + a * t
    tol = 1e-13 * (1.0 + a * t)
    if bc == "fixed":
        val = 0.5 * (u0(r) + _sign(s) * u0(abs(s)))
        if v0 is not None and t > 0.0:
            val += adaptive_simpson(v0, abs(s), r, tol=tol) / (2.0 * a)
        return val
    if bc == "free":
        val = 0.5 * (u0(r) + u0(abs(s)))
        if v0 is not None and t > 0.0:
            val += adaptive_simpson(v0, 0.0, r, tol=tol) / (2.0 * a)
            val -= _sign(s) * adaptive_simpson(v0, 0.0, abs(s), tol=tol) / (2.0 * a)
        return val
    raise ValueError("bc must be 'fixed' or 'free'")


def duhamel_forced(f: Callable[[float, float], float], a: float, x: float, t: float) -> float:
    """Zero-initial-data response of the infinite string to a distributed
    force density f(x, t):
    (1/2a) int_0^t dt' int_{x-a(t-t')}^{x+a(t-t')} f(x', t') dx'.

    The characteristic triangle is mapped to a square before tensorized
    quadrature, so the integrand kinks are axis-aligned.
    """
    if not (math.isfinite(x) and 0.0 <= t < math.inf):
        raise ValueError(f"need finite x and finite t >= 0, got x = {x!r}, t = {t!r}")
    _check_speed(a)
    if t == 0.0:
        return 0.0

    def inner(tp: float) -> float:
        half_width = a * (t - tp)
        if half_width == 0.0:
            return 0.0
        return half_width * adaptive_simpson(
            lambda xi: f(x + half_width * xi, tp), -1.0, 1.0, tol=1e-11
        )

    return adaptive_simpson(inner, 0.0, t, tol=1e-10) / (2.0 * a)


# ----------------------------------------------------------------------
# Modal solutions
# ----------------------------------------------------------------------

class ModeRegime(str, Enum):
    OSCILLATORY = "oscillatory"
    CRITICAL = "critical"
    APERIODIC = "aperiodic"
    DRIFT = "drift"  # zero-frequency mode of the fully free interval


@dataclass(frozen=True)
class ModeLaw:
    """Time evolution of one generalized coordinate q_n(t)."""

    omega: float
    a_coef: float
    b_coef: float
    eta: float = 0.0

    @property
    def regime(self) -> ModeRegime:
        if self.omega == 0.0 and self.eta == 0.0:
            return ModeRegime.DRIFT
        if self.eta == 0.0 or self.eta < self.omega:
            return ModeRegime.OSCILLATORY
        if self.eta == self.omega:
            return ModeRegime.CRITICAL
        return ModeRegime.APERIODIC

    def q(self, t: float) -> float:
        return oscillator(self.omega, self.a_coef, self.b_coef, self.eta, t)[0]

    def qdot(self, t: float) -> float:
        return oscillator(self.omega, self.a_coef, self.b_coef, self.eta, t)[1]


class ModalSolution:
    """Truncated eigenfunction expansion u(x, t) = sum q_n(t) X_n(x).

    Modes are L2-normalized on [0, l], so the per-mode energy is
    E_n = (q_n'^2 + omega_n^2 q_n^2)/2 and the total energy their sum.
    """

    def __init__(self, basis: UniformBasis, laws: list[ModeLaw], medium: WaveMedium, compatible: bool = True):
        self.basis = basis
        self.laws = laws
        self.medium = medium
        self.compatible_data = compatible
        self._laws = np.array([(law.omega, law.a_coef, law.b_coef, law.eta) for law in laws]).reshape(-1, 4).T

    @property
    def truncation(self) -> int:
        return len(self.laws)

    @property
    def frequencies(self) -> list[float]:
        return [law.omega for law in self.laws]

    def __call__(self, x, t: float):
        return contract(self.basis._shapes(x), oscillator(*self._laws, t)[0])

    def velocity(self, x, t: float):
        return contract(self.basis._shapes(x), oscillator(*self._laws, t)[1])

    def mode_energy(self, n: int, t: float) -> float:
        """Energy of the n-th mode (n >= 1) per unit density."""
        if not 1 <= n <= len(self.laws):
            raise IndexError(f"mode index {n} outside 1..{len(self.laws)}")
        law = self.laws[n - 1]
        q, dq = law.q(t), law.qdot(t)
        return 0.5 * self.medium.rho * (dq * dq + law.omega**2 * q * q)

    def energy(self, t: float) -> float:
        q, dq = oscillator(*self._laws, t)
        return float(np.sum(0.5 * self.medium.rho * (dq * dq + self._laws[0] ** 2 * q * q)))

    def kinetic_energy(self, t: float) -> float:
        return float(np.sum(0.5 * self.medium.rho * oscillator(*self._laws, t)[1] ** 2))

    def tail_bound(self) -> float:
        """Crude bound on the discarded tail: |a_n| + |b_n|/omega_n is
        extrapolated geometrically from its decay over the last 16 modes."""
        sizes = [
            abs(law.a_coef) + (abs(law.b_coef) / law.omega if law.omega > 0.0 else abs(law.b_coef))
            for law in self.laws
        ]
        window = [s for s in sizes[-16:] if s > 0.0]
        if len(window) < 4:
            return 0.0
        ratios = [window[i + 1] / window[i] for i in range(len(window) - 1)]
        r = min(0.999, max(1e-12, sum(ratios) / len(ratios)))
        last = window[-1]
        return last * r / (1.0 - r) if r < 1.0 else math.inf


def string_modes(
    medium: WaveMedium,
    bc: tuple[BoundaryCondition, BoundaryCondition],
    u0: Callable[[float], float] | None,
    v0: Callable[[float], float] | None,
    n_modes: int = 128,
) -> ModalSolution:
    """Free-vibration modal solution of the uniform string/rod on [0, l].

    Coefficients are projections of the initial data on the normalized
    eigenfunctions; each mode evolves as a_n cos(w_n t) + (b_n/w_n) sin(w_n t).
    Incompatible Dirichlet data is accepted (the expansion is then the
    generalized solution) and flagged on the result.
    """
    left, right = bc
    l = medium.l
    if not math.isfinite(l):
        raise ValueError("modal solutions need a finite interval")
    basis = uniform_basis(l, left, right, n_modes)
    a_coefs = _project(basis, u0)
    b_coefs = _project(basis, v0)
    compatible = True
    if u0 is not None:
        if left.dirichlet and abs(u0(0.0)) > 1e-9:
            compatible = False
        if right.dirichlet and abs(u0(l)) > 1e-9:
            compatible = False
    laws = [
        ModeLaw(omega=medium.a * math.sqrt(mode.lam), a_coef=ac, b_coef=bc_)
        for mode, ac, bc_ in zip(basis.modes, a_coefs, b_coefs)
    ]
    return ModalSolution(basis, laws, medium, compatible=compatible)


def damped_modes(
    medium: WaveMedium,
    bc: tuple[BoundaryCondition, BoundaryCondition],
    u0: Callable[[float], float] | None,
    v0: Callable[[float], float] | None,
    n_modes: int = 128,
) -> ModalSolution:
    """Modal solution with viscous damping: every coordinate follows
    e^{-eta t}[q(0) cos(Om t) + (q'(0) + eta q(0)) sin(Om t)/Om],
    Om = sqrt(omega^2 - eta^2); critically damped and aperiodic modes are
    flagged through their regime."""
    sol = string_modes(medium, bc, u0, v0, n_modes)
    if medium.eta == 0.0:
        return sol
    laws = [
        ModeLaw(omega=law.omega, a_coef=law.a_coef, b_coef=law.b_coef, eta=medium.eta)
        for law in sol.laws
    ]
    return ModalSolution(sol.basis, laws, medium, compatible=sol.compatible_data)


# ----------------------------------------------------------------------
# Jump overshoot (sawtooth partial sums)
# ----------------------------------------------------------------------

def gibbs_partial_sum(d: float, l: float, n_terms: int, x: float, kind: str = "dirichlet") -> float:
    """Partial sums of the sawtooth series (2d/pi) sum sin(pi n x / l)/n.

    kind="dirichlet" returns S_N(x); kind="fejer" the averaged
    sigma_N = (S_0 + ... + S_{N-1})/N.  S_N converges to d(1 - x/l) inside
    (0, l] and overshoots by the factor 2G/pi ~ 1.18 near the jump at 0,
    where G is the maximum of the integral sine; the averaged sums converge
    to the midpoint of the one-sided limits at the jump instead.  The sum
    of the rounded terms is correctly rounded (``math.fsum``).
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    if kind not in ("dirichlet", "fejer"):
        raise ValueError("kind must be 'dirichlet' or 'fejer'")
    fejer = kind == "fejer"
    terms = (
        (1.0 - k / n_terms if fejer else 1.0) * (math.sin(math.pi * k * x / l) / k) for k in range(1, n_terms + 1)
    )
    return 2.0 * d / math.pi * math.fsum(terms)


# ----------------------------------------------------------------------
# Green's functions of the uniform string
# ----------------------------------------------------------------------

class ResonanceError(ValueError):
    """Requested drive frequency is indistinguishable from a resonance."""


def _end_solution(bc: BoundaryCondition, rt: complex, s: float) -> tuple[complex, complex]:
    """(u, u') at distance s from an end with condition bc, for u'' = -lam u,
    rt = sqrt(lam): sin(rt s)/rt at a Dirichlet end, cos(rt s) + h sin(rt s)/rt
    at a Robin one.  Both are entire in lam, and linear at lam = 0."""
    c = cmath.cos(rt * s)
    sn = cmath.sin(rt * s) / rt if rt else complex(s)
    if bc.dirichlet:
        return sn, c
    return c + bc.h * sn, -rt * rt * sn + bc.h * c


def freq_green_string(
    medium: WaveMedium,
    bc: tuple[BoundaryCondition, BoundaryCondition],
    omega: float,
    x: float,
    xp: float,
) -> complex:
    """Steady-state harmonic point response G_omega(x, x') of the string.

    Built from the solution satisfying the left condition and the mirrored
    solution satisfying the right one, joined by the unit-impulse jump of
    the derivative: G = u_L(x_<) u_R(x_>)/(-rho a^2 W[u_L, u_R]).
    With damping the spectral parameter is (omega^2 + 2 i eta omega)/a^2;
    without damping a drive within 1e-6 relative of a resonance is refused.
    """
    left, right = bc
    l, a, eta, rho = medium.l, medium.a, medium.eta, medium.rho
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    if not math.isfinite(l):
        raise ValueError("modal solutions need a finite interval")
    if not (0.0 <= x <= l and 0.0 <= xp <= l):
        raise ValueError("evaluation points must lie in [0, l]")
    if eta == 0.0:
        basis = uniform_basis(l, left, right, max(4, int(abs(omega) * l / (math.pi * a)) + 4))
        for mode in basis.modes:
            wn = a * math.sqrt(mode.lam)
            if wn > 0.0 and abs(abs(omega) - wn) < 1e-6 * wn:
                raise ResonanceError(f"drive frequency {omega} is within 1e-6 of resonance {wn}")
    lam = (omega * omega + 2j * eta * omega) / (a * a)
    x_lo, x_hi = (x, xp) if x <= xp else (xp, x)
    rt = cmath.sqrt(lam)
    ul, ul_p = _end_solution(left, rt, x_lo)
    # right solution as the left-type solution in the mirrored coordinate l - x,
    # whose derivative in x is minus that in l - x
    ur, _ = _end_solution(right, rt, l - x_hi)
    # Wronskian u_L u_R' - u_L' u_R is x-independent; evaluate at x_lo
    ur_at, ur_p_at = _end_solution(right, rt, l - x_lo)
    wr = -ul * ur_p_at - ul_p * ur_at
    if lam == 0.0 and abs(wr) < 1e-14:
        raise ResonanceError("zero frequency coincides with the zero eigenvalue of a free interval")
    return ul * ur / (-rho * a * a * wr)


def time_green_string(
    medium: WaveMedium,
    bc: tuple[BoundaryCondition, BoundaryCondition],
    x: float,
    xp: float,
    t: float,
    n_modes: int = 128,
) -> float:
    """Impulse response sum (1/rho) sum sin(w_n t)/w_n X_n(x) X_n(x'),
    with the damped envelope e^{-eta t} sin(Om_n t)/Om_n when eta > 0.
    Convolving rho * v0 against it reproduces the modal solution with zero
    initial displacement."""
    if t < 0.0:
        raise ValueError("time must be >= 0")
    left, right = bc
    basis = uniform_basis(medium.l, left, right, n_modes)
    s, _ = oscillator(medium.a * np.sqrt(basis.eigenvalues), 0.0, 1.0, medium.eta, t)
    return contract(basis._shapes(x) * basis._shapes(xp), s) / medium.rho
