"""Eigenvalue counting for product domains and its leading asymptotics.

The counting function of the square/rectangle/cube with Dirichlet or Neumann
walls is an exact lattice-point count (one walk over the leading axes with
a closed-form count along the last); the smooth estimate is the volume term
V lam^{n/2} / ((4 pi a^2)^{n/2} Gamma(1 + n/2)); and the electron-gas
threshold energy follows from filling that count with two particles per
state.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import dataclass

__all__ = [
    "Domain",
    "WallBC",
    "CountingFunction",
    "count_exact",
    "weyl_estimate",
    "fermi_energy",
    "electron_density",
]


class WallBC(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class Domain:
    """Product domain: square(l), rect(l1, l2) or cube(l)."""

    kind: str
    sides: tuple[float, ...]

    @classmethod
    def square(cls, l: float) -> "Domain":
        return cls("square", (l, l))

    @classmethod
    def rect(cls, l1: float, l2: float) -> "Domain":
        return cls("rect", (l1, l2))

    @classmethod
    def cube(cls, l: float) -> "Domain":
        return cls("cube", (l, l, l))

    @property
    def dimension(self) -> int:
        return len(self.sides)

    @property
    def measure(self) -> float:
        out = 1.0
        for s in self.sides:
            out *= s
        return out


class CountingFunction:
    """Exact spectral counting N(lam) = #{eigenvalues < lam, with
    multiplicity} for the Laplacian pi^2 a^2 (j^2/l1^2 + ...) on a product
    domain; Neumann walls admit zero indices, Dirichlet walls start at 1.
    """

    def __init__(self, domain: Domain, bc: WallBC | str, a: float, lambda_max: float = math.inf):
        if not all(0.0 < s < math.inf for s in domain.sides):
            raise ValueError(f"domain sides must be positive and finite, got {domain.sides!r}")
        if not 0.0 < a < math.inf:
            raise ValueError(f"speed a must be positive and finite, got {a!r}")
        if math.isnan(lambda_max):
            raise ValueError("lambda_max must not be NaN")
        self.domain = domain
        self.bc = WallBC(bc)
        self.a = float(a)
        self.lambda_max = float(lambda_max)
        self._start = 0 if self.bc == WallBC.NEUMANN else 1
        self._pref = math.pi**2 * self.a**2

    def count(self, lam: float) -> int:
        if not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam!r}")
        if lam > self.lambda_max:
            raise ValueError(f"count requested above lambda_max = {self.lambda_max}")
        if lam <= 0.0:
            return 0
        *leading, last = self.domain.sides
        return sum(self._axis_count(lam - self._pref * s, last) for s in self._walk(lam, leading))

    def _axis_count(self, budget: float, side: float) -> int:
        """#{k >= start : pi^2 a^2 k^2 / side^2 < budget} with a 1e-9
        relative guard band against ties on the open boundary."""
        if budget <= 0.0:
            return 0
        k_lim = math.sqrt(budget) * side / (math.pi * self.a)
        k_max = int(math.floor(k_lim - 1e-9 * max(1.0, k_lim)))
        return max(0, k_max - self._start + 1)

    def _walk(self, lam: float, sides, s: float = 0.0):
        """Each sum s + j^2/l_1^2 + ... over the indices of ``sides`` whose
        eigenvalue part pi^2 a^2 (sum) stays below lam; sums are built left
        to right, as ``eigenvalues`` completes them with the last axis."""
        if not sides:
            yield s
            return
        j = self._start
        while self._pref * (t := s + j * j / sides[0] ** 2) < lam:
            yield from self._walk(lam, sides[1:], t)
            j += 1

    def eigenvalues(self, lam_max: float) -> list[tuple[float, int]]:
        """Sorted distinct eigenvalues below lam_max with multiplicities: the
        modes that ``count(lam_max)`` counts, guard band included, so the
        multiplicities sum to it.  Modes whose eigenvalues agree to 1e-12
        relative are one eigenvalue (listed at the smallest of them): index
        sums of a degenerate eigenvalue, accumulated in different orders,
        differ in their last bits."""
        if not math.isfinite(lam_max):
            raise ValueError(f"lam_max must be finite, got {lam_max!r}")
        if lam_max > self.lambda_max:
            raise ValueError(f"enumeration requested above lambda_max = {self.lambda_max}")
        *leading, last = self.domain.sides
        lams = sorted(
            self._pref * (s + k * k / last**2)
            for s in self._walk(lam_max, leading)
            for k in range(self._start, self._start + self._axis_count(lam_max - self._pref * s, last))
        )
        out: list[list] = []
        for lam in lams:
            if out and lam - out[-1][0] <= 1e-12 * lam:
                out[-1][1] += 1
            else:
                out.append([lam, 1])
        return [(lam, mult) for lam, mult in out]

    def heat_trace(self, t: float, lam_max: float) -> float:
        """sum over enumerated modes of exp(-lam t), truncated at lam_max."""
        return sum(m * math.exp(-lam * t) for lam, m in self.eigenvalues(lam_max))


def count_exact(cf: CountingFunction, lam: float) -> int:
    return cf.count(lam)


_GAMMA_HALF = {1: math.gamma(1.5), 2: 1.0, 3: math.gamma(2.5)}


def weyl_estimate(measure: float, dimension: int, a: float, lam: float) -> float:
    """Leading counting asymptotics V lam^{n/2}/((4 pi a^2)^{n/2} Gamma(1+n/2))."""
    if dimension not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if lam <= 0.0:
        return 0.0
    return (
        measure
        * lam ** (dimension / 2.0)
        / ((4.0 * math.pi * a * a) ** (dimension / 2.0) * _GAMMA_HALF[dimension])
    )


def fermi_energy(n_density: float, hbar: float, mass: float) -> float:
    """Filling threshold of the free-electron gas:
    eps_F = hbar^2/(2 mu) (3 pi^2 n)^{2/3}."""
    if n_density <= 0.0 or hbar <= 0.0 or mass <= 0.0:
        raise ValueError("inputs must be positive")
    return hbar**2 / (2.0 * mass) * (3.0 * math.pi**2 * n_density) ** (2.0 / 3.0)


def electron_density(eps_f: float, hbar: float, mass: float) -> float:
    """Inverse of ``fermi_energy``: n = (2 mu eps_F/hbar^2)^{3/2}/(3 pi^2)."""
    if eps_f <= 0.0:
        raise ValueError("threshold energy must be positive")
    return (2.0 * mass * eps_f / hbar**2) ** 1.5 / (3.0 * math.pi**2)
