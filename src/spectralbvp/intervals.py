"""Closed-form eigenbases of the uniform interval.

For constant coefficients the problem X'' + lam X = 0 with Robin, Neumann or
Dirichlet ends reduces to a dimensionless characteristic equation in
xi = sqrt(lam) * l.  This module produces the roots, the normalized
eigenfunctions and their elementary norm constants for every end-condition
combination, including the zero mode of the fully free interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._rootfind import refine_root
from ._vec import full, xp
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

def robin_xi_roots(l: float, h1: float, h2: float, count: int) -> list[float]:
    """Positive roots of (eta1+eta2) cos(xi) - (xi - eta1 eta2/xi) sin(xi) = 0
    with eta_i = h_i l, via the monotone phase form
    xi + arctan((xi - eta1 eta2/xi)/(eta1 + eta2)) = pi/2 + pi (n-1).
    """
    eta1, eta2 = h1 * l, h2 * l
    if eta1 == 0.0 and eta2 == 0.0:
        # pure Neumann: -xi sin(xi) = 0
        return [n * math.pi for n in range(1, count + 1)]
    s = eta1 + eta2

    def phase(xi: float) -> float:
        return xi + math.atan((xi - eta1 * eta2 / xi) / s)

    roots = []
    for n in range(1, count + 1):
        tgt = 0.5 * math.pi + math.pi * (n - 1)
        lo, hi = 1e-12, max(4.0, tgt + 2.0)
        while phase(hi) < tgt:
            hi *= 2.0
        roots.append(refine_root(lambda x: phase(x) - tgt, lo, hi, ftol=1e-14))
    return roots


def robin_norm_constant(l: float, h1: float, xi: float) -> float:
    """Norm constant C with C^2 * int_0^l [cos(kx) + (h1/k) sin(kx)]^2 dx = 1,
    k = xi/l, in elementary closed form."""
    k = xi / l
    s2 = math.sin(2.0 * k * l)
    c2 = math.cos(2.0 * k * l)
    n2 = (
        0.5 * l * (1.0 + h1**2 / k**2)
        + s2 / (4.0 * k) * (1.0 - h1**2 / k**2)
        + h1 * (1.0 - c2) / (2.0 * k**2)
    )
    return 1.0 / math.sqrt(n2)


# Mode shapes accept a float or an array (see ``_vec``).

def _sine_family(l: float, k: float):
    def shape(x, k=k):
        return xp(x).sin(k * x)

    def dshape(x, k=k):
        return k * xp(x).cos(k * x)

    return shape, dshape


def _cos_family(l: float, k: float, h1: float):
    def shape(x, k=k, h1=h1):
        f = xp(x)
        return f.cos(k * x) + (h1 / k) * f.sin(k * x)

    def dshape(x, k=k, h1=h1):
        f = xp(x)
        return -k * f.sin(k * x) + h1 * f.cos(k * x)

    return shape, dshape


def _normalized(shape, dshape, c):
    return (lambda x: c * shape(x)), (lambda x: c * dshape(x))


def _build_modes(l: float, left: BoundaryCondition, right: BoundaryCondition, n_modes: int) -> list[UniformMode]:
    modes: list[UniformMode] = []
    ld, rd = left.dirichlet, right.dirichlet
    if ld and rd:
        xis = [n * math.pi for n in range(1, n_modes + 1)]
        make = lambda xi: _normalized(*_sine_family(l, xi / l), math.sqrt(2.0 / l))
    elif ld and not rd and right.h == 0.0:
        xis = [(n - 0.5) * math.pi for n in range(1, n_modes + 1)]
        make = lambda xi: _normalized(*_sine_family(l, xi / l), math.sqrt(2.0 / l))
    elif ld:
        # Dirichlet-Robin: xi cos xi + eta2 sin xi = 0, roots in ((n-1/2)pi, n pi)
        eta2 = right.h * l
        xis = []
        for n in range(1, n_modes + 1):
            f = lambda xi: xi * math.cos(xi) + eta2 * math.sin(xi)
            lo = (n - 0.5) * math.pi + 1e-12
            hi = n * math.pi - 1e-12
            xis.append(refine_root(f, lo, hi, ftol=1e-14))
        make = lambda xi: _normalized(
            *_sine_family(l, xi / l),
            1.0 / math.sqrt(0.5 * l - math.sin(2.0 * xi) * l / (4.0 * xi)),
        )
    elif rd and left.h == 0.0:
        # Neumann-Dirichlet: cos family with h1=0, xi = (n-1/2) pi
        xis = [(n - 0.5) * math.pi for n in range(1, n_modes + 1)]
        make = lambda xi: _normalized(*_cos_family(l, xi / l, 0.0), math.sqrt(2.0 / l))
    elif rd:
        # Robin-Dirichlet: cos xi + (eta1/xi) sin xi = 0
        eta1 = left.h * l
        xis = []
        for n in range(1, n_modes + 1):
            f = lambda xi: xi * math.cos(xi) + eta1 * math.sin(xi)
            lo = (n - 0.5) * math.pi + 1e-12
            hi = n * math.pi - 1e-12
            xis.append(refine_root(f, lo, hi, ftol=1e-14))
        make = lambda xi: _normalized(
            *_cos_family(l, xi / l, left.h), robin_norm_constant(l, left.h, xi)
        )
    else:
        h1, h2 = left.h, right.h
        if h1 == 0.0 and h2 == 0.0:
            # fully free interval: constant zero mode + cosines
            zero = UniformMode(
                index=0,
                xi=0.0,
                lam=0.0,
                shape=lambda x: full(x, 1.0 / math.sqrt(l)),
                shape_prime=lambda x: full(x, 0.0),
                is_zero_mode=True,
            )
            modes.append(zero)
            xis = [n * math.pi for n in range(1, n_modes)]
            make = lambda xi: _normalized(*_cos_family(l, xi / l, 0.0), math.sqrt(2.0 / l))
        else:
            xis = robin_xi_roots(l, h1, h2, n_modes)
            make = lambda xi: _normalized(*_cos_family(l, xi / l, h1), robin_norm_constant(l, h1, xi))
    for xi in xis:
        shape, dshape = make(xi)
        modes.append(
            UniformMode(index=0, xi=xi, lam=(xi / l) ** 2, shape=shape, shape_prime=dshape)
        )
    for rank, m in enumerate(modes):
        object.__setattr__(m, "index", rank)
    return modes
