"""Closed-form eigenbases of the uniform interval.

For constant coefficients the problem X'' + lam X = 0 with Robin, Neumann or
Dirichlet ends reduces to one phase condition in xi = sqrt(lam) * l, linear
(closed-form roots) unless an end is Robin.  This module produces the roots,
the normalized eigenfunctions and their elementary norm constants for every
end-condition combination, including the zero mode of the fully free
interval, and the projection of data on the basis that the string and heat
solvers share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._quad import gauss_rule, gauss_sum, sample
from ._rootfind import refine_root
from ._vec import xp
from .sturm import BoundaryCondition

__all__ = ["UniformMode", "UniformBasis", "uniform_basis", "robin_xi_roots", "robin_norm_constant"]


@dataclass(frozen=True)
class UniformMode:
    """One eigenpair of the uniform interval.

    xi is the dimensionless root (sqrt(lam) * l), lam the eigenvalue, and
    ``shape``/``shape_prime`` evaluate the normalized eigenfunction (unit L2
    norm on [0, l]) and its derivative.
    """

    index: int
    xi: float
    lam: float
    shape: Callable[[float], float]
    shape_prime: Callable[[float], float]
    is_zero_mode: bool = False


class UniformBasis:
    """Eigenbasis of X'' + lam X = 0 on [0, l] under the given end conditions."""

    def __init__(self, l: float, left: BoundaryCondition, right: BoundaryCondition, n_modes: int):
        if l <= 0.0:
            raise ValueError("interval length must be positive")
        self.l = float(l)
        self.left = left
        self.right = right
        self.modes: list[UniformMode] = _build_modes(self.l, left, right, n_modes)

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def eigenvalues(self) -> list[float]:
        return [m.lam for m in self.modes]


def uniform_basis(l: float, left: BoundaryCondition, right: BoundaryCondition, n_modes: int) -> UniformBasis:
    return UniformBasis(l, left, right, n_modes)


# ----------------------------------------------------------------------
# Characteristic roots
# ----------------------------------------------------------------------
#
# With eta_i = h_i l (inf for a Dirichlet end, 0 for a Neumann end) an
# eigenfunction is sin(kx + phi_1) with tan phi_1 = xi/eta_1, and the right
# end condition turns into the phase condition
#     xi + atan2(xi, eta_1) + atan2(xi, eta_2) = n pi,   n = 1, 2, ...
# Its left side increases with xi from 0 and lies in [xi, xi + pi], so the
# n-th root lies in [(n-1) pi, n pi] (at the lower end only for two Neumann
# ends, whose n = 1 root is the constant mode).  Without a Robin end the
# condition is linear in xi.

def _eta(bc: BoundaryCondition, l: float) -> float:
    return math.inf if bc.dirichlet else bc.h * l


def _has_robin(eta1: float, eta2: float) -> bool:
    return 0.0 < eta1 < math.inf or 0.0 < eta2 < math.inf


def _phase_roots(eta1: float, eta2: float, ns: range) -> list[float]:
    """Roots xi_n of the phase condition for each n in ns."""
    if not _has_robin(eta1, eta2):
        # (n - k/2) pi, k the number of Neumann ends
        shift = 0.5 * ((eta1 == 0.0) + (eta2 == 0.0))
        return [(n - shift) * math.pi for n in ns]
    roots = []
    for n in ns:
        npi = n * math.pi
        f = lambda xi: (xi - npi) + math.atan2(xi, eta1) + math.atan2(xi, eta2)
        roots.append(refine_root(f, (n - 1) * math.pi, npi, ftol=0.0))
    return roots


def robin_xi_roots(l: float, h1: float, h2: float, count: int) -> list[float]:
    """First ``count`` positive roots of
    (eta1+eta2) cos(xi) - (xi - eta1 eta2/xi) sin(xi) = 0, eta_i = h_i l,
    from the phase condition xi + atan2(xi, eta1) + atan2(xi, eta2) = n pi
    (the zero root of two Neumann ends is skipped).
    """
    eta1, eta2 = h1 * l, h2 * l
    first = 2 if eta1 == 0.0 and eta2 == 0.0 else 1
    return _phase_roots(eta1, eta2, range(first, first + count))


def _norm_constant(l: float, xi: float, a: float, b: float) -> float:
    """C with C^2 * int_0^l [a cos(kx) + b sin(kx)]^2 dx = 1, k = xi/l."""
    k = xi / l
    n2 = (
        0.5 * l * (a * a + b * b)
        + math.sin(2.0 * xi) / (4.0 * k) * (a * a - b * b)
        + a * b * (1.0 - math.cos(2.0 * xi)) / (2.0 * k)
    )
    return 1.0 / math.sqrt(n2)


def robin_norm_constant(l: float, h1: float, xi: float) -> float:
    """Norm constant C with C^2 * int_0^l [cos(kx) + (h1/k) sin(kx)]^2 dx = 1,
    k = xi/l, in elementary closed form."""
    return _norm_constant(l, xi, 1.0, h1 / (xi / l))


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def _mode(index: int, l: float, left: BoundaryCondition, xi: float, c: float) -> UniformMode:
    """The mode c sin(kx) (Dirichlet left end) or c (cos kx + (h1/k) sin kx);
    shapes accept a float or an array (see ``_vec``)."""
    k = xi / l
    if left.dirichlet:
        def shape(x):
            return c * xp(x).sin(k * x)

        def dshape(x):
            return c * (k * xp(x).cos(k * x))
    else:
        h1 = left.h
        g = h1 / k if h1 else 0.0  # k = 0 only for the constant mode, where h1 = 0

        def shape(x):
            f = xp(x)
            return c * (f.cos(k * x) + g * f.sin(k * x))

        def dshape(x):
            f = xp(x)
            return c * (-k * f.sin(k * x) + h1 * f.cos(k * x))

    return UniformMode(index, xi, k**2, shape, dshape, is_zero_mode=xi == 0.0)


def _build_modes(l: float, left: BoundaryCondition, right: BoundaryCondition, n_modes: int) -> list[UniformMode]:
    etas = (_eta(left, l), _eta(right, l))
    robin = _has_robin(*etas)
    modes = []
    for i, xi in enumerate(_phase_roots(*etas, range(1, n_modes + 1))):
        if not robin:
            # sin(2 xi) = 0 at these roots, so the norm is exactly sqrt(2/l)
            c = 1.0 / math.sqrt(l) if xi == 0.0 else math.sqrt(2.0 / l)
        elif left.dirichlet:
            c = _norm_constant(l, xi, 0.0, 1.0)
        else:
            c = robin_norm_constant(l, left.h, xi)
        modes.append(_mode(i, l, left, xi, c))
    return modes


def _project(basis: UniformBasis, func: Callable[[float], float] | None) -> list[float]:
    """Coefficients <func, X_n> on the 256-point Gauss rule (zeros for None)."""
    if func is None:
        return [0.0] * len(basis)
    xs, _ = gauss_rule(0.0, basis.l, 256)
    data = sample(func, xs)
    return [gauss_sum(data * sample(mode.shape, xs), 0.0, basis.l) for mode in basis.modes]
