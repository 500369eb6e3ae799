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
from functools import partial
from typing import Callable

import numpy as np

from ._quad import gauss_ladder, gauss_rule, sample
from ._rootfind import refine_root
from ._series import outer, project
from ._vec import as_arg, where, xp
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
        if not 0.0 < l < math.inf:
            raise ValueError("interval length must be positive and finite")
        self.l = float(l)
        self.left = left
        self.right = right
        xi, c = _roots_and_norms(self.l, left, right, n_modes)
        self._k = np.array(xi) / self.l
        self._c = np.array(c)
        self.modes: list[UniformMode] = [
            UniformMode(i, x, k**2, partial(_family, left, k, cc), partial(_family, left, k, cc, prime=True), x == 0.0)
            for i, (x, k, cc) in enumerate(zip(xi, self._k.tolist(), c))
        ]

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def eigenvalues(self) -> list[float]:
        return [m.lam for m in self.modes]

    def _shapes(self, x):
        """Phi(x): every normalized mode at x (a float or an array), modes
        along the last axis."""
        return _family(self.left, self._k, self._c, as_arg(x))


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

def _family(left: BoundaryCondition, k, c, x, prime: bool = False):
    """The modes c sin(kx) (Dirichlet left end) or c (cos kx + (h1/k) sin kx),
    or their x-derivatives, at x (a float or an array): one wavenumber k
    keeps x's shape, an array of them (norms c alike) adds one column per
    mode.  k = 0 only for the constant mode, where h1 = 0."""
    kx = outer(x, k)
    f = xp(kx)
    if left.dirichlet:
        return c * (k * f.cos(kx)) if prime else c * f.sin(kx)
    h1 = left.h
    if prime:
        return c * (-k * f.sin(kx) + h1 * f.cos(kx))
    return c * (f.cos(kx) + h1 / where(k > 0.0, k, 1.0) * f.sin(kx))


def _roots_and_norms(l: float, left: BoundaryCondition, right: BoundaryCondition, n_modes: int):
    """Roots xi_n and norm constants c_n of the first n_modes modes."""
    etas = (_eta(left, l), _eta(right, l))
    robin = _has_robin(*etas)
    xi = _phase_roots(*etas, range(1, n_modes + 1))
    if not robin:
        # sin(2 xi) = 0 at these roots, so the norm is exactly sqrt(2/l)
        c = [1.0 / math.sqrt(l) if x == 0.0 else math.sqrt(2.0 / l) for x in xi]
    elif left.dirichlet:
        c = [_norm_constant(l, x, 0.0, 1.0) for x in xi]
    else:
        c = [robin_norm_constant(l, left.h, x) for x in xi]
    return xi, c


def _project(basis: UniformBasis, func: Callable[[float], float] | None) -> list[float]:
    """Coefficients <func, X_n> on the Gauss ladder capped at 256 points
    (zeros for None)."""
    if func is None:
        return [0.0] * len(basis)

    def coeffs(n):
        xs, w = gauss_rule(0.0, basis.l, n)
        return project(basis._shapes(xs), w, sample(func, xs))

    return gauss_ladder(coeffs, 256, len(basis))[0].tolist()
