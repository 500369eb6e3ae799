"""Bending vibrations of uniform beams: X'''' = lam X on [0, l].

Natural frequencies follow from the transcendental characteristic equations
of the end-condition pair (cosh*cos = +-1 and tan = tanh families), the mode
shapes from the matching cosh/cos combinations evaluated in overflow-safe
exponential form, and buckling loads from the first zero of the equilibrium
determinant of the compressed beam.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from ._quad import fixed_gauss, gauss_ladder, gauss_rule, mode_table, sample_rows
from ._record import dataclass
from ._rootfind import refine_root
from ._series import contract, mode_count, oscillator, outer, project
from ._vec import as_arg, inside, np, xp
from .specfun import ZeroFamily, zero_table

__all__ = [
    "BeamBC",
    "BeamSpectrum",
    "beam_char_roots",
    "beam_spectrum",
    "beam_mode",
    "beam_mode_norm2_endpoint",
    "beam_response",
    "buckling_critical",
    "free_free_zero_modes",
]


class BeamBC(str, Enum):
    CLAMPED_CLAMPED = "clamped_clamped"
    CLAMPED_FREE = "clamped_free"
    PINNED_PINNED = "pinned_pinned"
    CLAMPED_PINNED = "clamped_pinned"
    FREE_FREE = "free_free"


_FAMILY = {
    BeamBC.CLAMPED_CLAMPED: ZeroFamily.BEAM_CC,
    BeamBC.CLAMPED_FREE: ZeroFamily.BEAM_CF,
    BeamBC.CLAMPED_PINNED: ZeroFamily.BEAM_CP,
    BeamBC.FREE_FREE: ZeroFamily.BEAM_CC,  # same equation cosh*cos = 1
}


def beam_char_roots(bc_pair: BeamBC | str, k_max: int) -> list[float]:
    """First k_max positive roots mu_n of the characteristic equation.

    pinned_pinned is exact (mu_n = n pi); the free_free family shares
    cosh(mu) cos(mu) = 1 with clamped_clamped but additionally owns the
    doubly degenerate root mu = 0, reported by ``free_free_zero_modes``.
    """
    bc = BeamBC(bc_pair)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if bc == BeamBC.PINNED_PINNED:
        return [n * math.pi for n in range(1, k_max + 1)]
    return list(zero_table(_FAMILY[bc], 0, k_max).roots)


@dataclass(frozen=True)
class BeamSpectrum:
    """Spectrum of a beam: dimensionless roots mu_n, stiffness parameter
    c = sqrt(E J / (rho_V S)) and length l; omega_n = c mu_n^2 / l^2."""

    bc_pair: BeamBC
    roots: tuple[float, ...]
    c: float = 1.0
    l: float = 1.0

    @property
    def zero_mode_multiplicity(self) -> int:
        return 2 if self.bc_pair == BeamBC.FREE_FREE else 0

    def omega(self, n: int) -> float:
        if not 1 <= n <= len(self.roots):
            raise IndexError(f"mode index {n} outside 1..{len(self.roots)}")
        return self.frequency(self.roots[n - 1])

    def frequency(self, mu):
        """c mu^2 / l^2 for a root mu (a float or an array of roots), the one
        place where a frequency is formed from a root."""
        return self.c * (mu * mu) / (self.l * self.l)


def beam_spectrum(bc_pair: BeamBC | str, k_max: int, c: float = 1.0, l: float = 1.0) -> BeamSpectrum:
    if not (0.0 < c < math.inf and 0.0 < l < math.inf):
        raise ValueError("need finite c > 0 and l > 0")
    return BeamSpectrum(BeamBC(bc_pair), tuple(beam_char_roots(bc_pair, k_max)), c=c, l=l)


# ----------------------------------------------------------------------
# Mode shapes
# ----------------------------------------------------------------------

def _sigma(bc: BeamBC, mu):
    """sigma = 1 + delta of the end pair and delta e^mu / 2, for the shapes
    (cosh -+ cos) - sigma (sinh -+ sin): sigma is (cosh mu - cos mu)/(sinh mu
    - sin mu), or (cosh mu + cos mu)/(sinh mu + sin mu) for clamped_free,
    with numerator and denominator scaled by e^{-mu}; mu one root or many."""
    f = xp(mu)
    emu = f.exp(-mu)
    if bc == BeamBC.CLAMPED_FREE:
        num = emu + f.cos(mu) - f.sin(mu)
        den = 0.5 * (1.0 - emu * emu) + f.sin(mu) * emu
    else:
        num = emu + f.sin(mu) - f.cos(mu)
        den = 0.5 * (1.0 - emu * emu) - f.sin(mu) * emu
    return 1.0 + emu * num / den, num / (2.0 * den)


def _mode_norm(bc: BeamBC, mu: float, n: int | None = None) -> float:
    """sqrt(int_0^1 X(mu s)^2 ds) of the raw dimensionless shape by a
    160-point Gauss rule: the quadrature reference for the endpoint identity
    of ``beam_mode_norm2_endpoint``."""
    return math.sqrt(fixed_gauss(lambda s: _mode_derivatives(bc, mu, mu * s)[0] ** 2, 0.0, 1.0, n=160))


def _shapes(bc: BeamBC, mu, l: float, x):
    """Modes of unit L2 norm on [0, l] at x (a float or an array in [0, l]):
    one mode for a float root mu, (points x modes) for an array of roots."""
    x = as_arg(x)
    if not inside(x, 0.0, l):
        raise ValueError("x must lie in [0, l]")
    return _mode_derivatives(bc, mu, outer(x, mu) / l)[0] / (xp(mu).sqrt(_norm2(bc, mu)) * math.sqrt(l))


def _unit_shapes(bc: BeamBC, n_modes: int, s):
    """The first n_modes modes of the unit beam (l = 1) at the points s, one
    column each: X_n(x) on [0, l] is this at x/l over sqrt(l)."""
    return _shapes(bc, np.array(beam_char_roots(bc, n_modes)), 1.0, s)


def beam_mode(bc_pair: BeamBC | str, n: int, x, l: float = 1.0):
    """n-th mode shape (n >= 1), normalized to unit L2 norm on [0, l], at x
    (a float or an array)."""
    bc = BeamBC(bc_pair)
    if n < 1:
        raise ValueError("mode index must be >= 1")
    return _shapes(bc, beam_char_roots(bc, n)[n - 1], l, x)


def _mode_derivatives(bc: BeamBC, mu, z):
    """Value and first three z-derivatives of the raw (unnormalized)
    dimensionless shape at z = mu x / l, z in [0, mu] (a float or an array);
    for an array of roots mu, z has a column each.

    The textbook combinations (cosh -+ cos) - sigma (sinh -+ sin) are
    rearranged so every exponentially large piece is multiplied by its
    exponentially small partner before evaluation:
    cosh z - sigma sinh z = e^{-z}(1+sigma)/2 - (delta e^mu/2) e^{z-mu}.
    This hyperbolic part H obeys H'' = H, and the trig part flips sign under
    two derivatives, so all four values come from one evaluation of
    sin z, cos z and the two exponentials.
    """
    f = xp(z)
    sin, cos = f.sin(z), f.cos(z)
    if bc == BeamBC.PINNED_PINNED:
        return sin, cos, -sin, -cos
    sigma, delta_scaled = _sigma(bc, mu)
    ep = f.exp(z - mu)
    em = f.exp(-z)
    h_val = 0.5 * em * (1.0 + sigma) - delta_scaled * ep
    h_der = -0.5 * em * (1.0 + sigma) - delta_scaled * ep
    t_val = -cos + sigma * sin
    t_der = sin + sigma * cos
    # free_free pairs cosh with +cos, the clamped pairs with -cos
    if bc == BeamBC.FREE_FREE:
        t_val, t_der = -t_val, -t_der
    return h_val + t_val, h_der + t_der, h_val - t_val, h_der - t_der


def _norm2(bc: BeamBC, mu):
    """int_0^1 X(mu s)^2 ds of the raw shape from its endpoint values (see
    ``beam_mode_norm2_endpoint``), for one root or an array of roots."""
    v, d1, d2, d3 = _mode_derivatives(bc, mu, mu)
    return 0.25 * (v * v + d2 * d2 - 2.0 * d1 * d3)


def beam_mode_norm2_endpoint(bc_pair: BeamBC | str, n: int) -> float:
    """Norm integral of the raw shape from its endpoint values (unit l):
    int_0^l X^2 dx = (l/4) [X^2 + X''^2 - 2 X' X''']_{z=mu}.

    Derivatives are with respect to the dimensionless argument z; the
    identity follows from differentiating the two-solution boundary bracket
    with respect to the eigenvalue, and every end condition kills the
    off-pattern boundary terms.
    """
    bc = BeamBC(bc_pair)
    return _norm2(bc, beam_char_roots(bc, n)[n - 1])


def beam_response(
    spectrum: BeamSpectrum,
    u0: Callable[[float], float] | None,
    v0: Callable[[float], float] | None,
    n_modes: int,
    x: float,
    t: float,
) -> float:
    """Free bending vibration u(x, t) = sum q_n(t) X_n(x) from initial shape
    u0 and velocity v0, truncated at n_modes.  Each Gauss rung takes the
    unit beam's modes from their cached table, its weights carrying the
    1/sqrt(l)."""
    mode_count("n_modes", n_modes)
    bc, l = spectrum.bc_pair, spectrum.l
    mus = np.array(beam_char_roots(bc, n_modes))
    root_l = math.sqrt(l)

    def rung(n):
        xs, w = gauss_rule(0.0, l, n)
        return project, (mode_table(_unit_shapes, (bc, n_modes), n), w / root_l, sample_rows((u0, v0), xs))

    a, b = gauss_ladder(rung, 192, n_modes)[0]
    return contract(_shapes(bc, mus, l, x), oscillator(spectrum.frequency(mus), a, b, 0.0, t)[0])


def free_free_zero_modes(l: float = 1.0) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Orthonormal pair spanning the doubly degenerate zero eigenvalue of the
    fully free beam: uniform translation and rigid rotation about the
    midpoint."""
    c1 = 1.0 / math.sqrt(l)
    c2 = 2.0 * math.sqrt(3.0) / math.sqrt(l)
    return (lambda x: c1), (lambda x: c2 * (x / l - 0.5))


# ----------------------------------------------------------------------
# Buckling
# ----------------------------------------------------------------------

def _buckling_determinant(bc: BeamBC) -> tuple[Callable[[float], float], float, float]:
    """Determinant g(sigma) whose first positive root gives the critical
    load F = sigma^2 E J / l^2, plus a scan bracket for that root."""
    if bc == BeamBC.CLAMPED_CLAMPED:
        return (lambda s: 2.0 * (1.0 - math.cos(s)) - s * math.sin(s)), 5.0, 7.0
    if bc == BeamBC.PINNED_PINNED:
        return (lambda s: math.sin(s)), 2.0, 4.0
    if bc == BeamBC.CLAMPED_FREE:
        return (lambda s: math.cos(s)), 1.0, 2.0
    raise ValueError(f"buckling determinant not available for {bc}")


def buckling_critical(bc_pair: BeamBC | str, e_mod: float, j_mom: float, l: float) -> float:
    """Smallest compressive load at which the straight equilibrium admits a
    nontrivial bent neighbor."""
    if not all(math.isfinite(v) and v > 0.0 for v in (e_mod, j_mom, l)):
        raise ValueError(f"need finite E, J, l > 0, got {e_mod!r}, {j_mom!r}, {l!r}")
    bc = BeamBC(bc_pair)
    g, lo, hi = _buckling_determinant(bc)
    sigma = refine_root(g, lo, hi, ftol=1e-14)
    return sigma * sigma * e_mod * j_mom / (l * l)
