"""Eigenvalue counting for product domains and its leading asymptotics.

The counting function of the square/rectangle/cube with Dirichlet or Neumann
walls is an exact lattice-point count (one index loop with a closed-form
inner count); the smooth estimate is the volume term
V lam^{n/2} / ((4 pi a^2)^{n/2} Gamma(1 + n/2)); and the electron-gas
threshold energy follows from filling that count with two particles per
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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
        if a <= 0.0:
            raise ValueError("speed must be positive")
        self.domain = domain
        self.bc = WallBC(bc)
        self.a = float(a)
        self.lambda_max = float(lambda_max)

    def count(self, lam: float) -> int:
        if lam > self.lambda_max:
            raise ValueError(f"count requested above lambda_max = {self.lambda_max}")
        if lam <= 0.0:
            return 0
        start = 0 if self.bc == WallBC.NEUMANN else 1
        sides = self.domain.sides
        if len(sides) == 2:
            return self._count_2d(lam, sides, start)
        return self._count_3d(lam, sides, start)

    def _axis_count(self, budget: float, side: float, start: int) -> int:
        """#{k >= start : pi^2 a^2 k^2 / side^2 < budget} with a 1e-9
        relative guard band against ties on the open boundary."""
        if budget <= 0.0:
            return 0
        k_lim = math.sqrt(budget) * side / (math.pi * self.a)
        k_max = int(math.floor(k_lim - 1e-9 * max(1.0, k_lim)))
        return max(0, k_max - start + 1)

    def _count_2d(self, lam: float, sides, start: int) -> int:
        l1, l2 = sides
        total = 0
        j = start
        while True:
            mu = math.pi**2 * self.a**2 * j * j / l1**2
            if mu >= lam:
                break
            total += self._axis_count(lam - mu, l2, start)
            j += 1
        return total

    def _count_3d(self, lam: float, sides, start: int) -> int:
        l1, l2, l3 = sides
        total = 0
        j = start
        while True:
            mu = math.pi**2 * self.a**2 * j * j / l1**2
            if mu >= lam:
                break
            k = start
            while True:
                nu = mu + math.pi**2 * self.a**2 * k * k / l2**2
                if nu >= lam:
                    break
                total += self._axis_count(lam - nu, l3, start)
                k += 1
            j += 1
        return total

    def eigenvalues(self, lam_max: float) -> list[tuple[float, int]]:
        """Sorted distinct eigenvalues below lam_max with multiplicities."""
        if lam_max > self.lambda_max:
            raise ValueError(f"enumeration requested above lambda_max = {self.lambda_max}")
        start = 0 if self.bc == WallBC.NEUMANN else 1
        acc: dict[float, int] = {}
        sides = self.domain.sides
        pref = math.pi**2 * self.a**2
        if len(sides) == 2:
            l1, l2 = sides
            j = start
            while pref * j * j / l1**2 < lam_max:
                k = start
                while True:
                    lam = pref * (j * j / l1**2 + k * k / l2**2)
                    if lam >= lam_max:
                        break
                    key = round(lam, 9)
                    acc[key] = acc.get(key, 0) + 1
                    k += 1
                j += 1
        else:
            l1, l2, l3 = sides
            j = start
            while pref * j * j / l1**2 < lam_max:
                k = start
                while pref * (j * j / l1**2 + k * k / l2**2) < lam_max:
                    i = start
                    while True:
                        lam = pref * (j * j / l1**2 + k * k / l2**2 + i * i / l3**2)
                        if lam >= lam_max:
                            break
                        key = round(lam, 9)
                        acc[key] = acc.get(key, 0) + 1
                        i += 1
                    k += 1
                j += 1
        return sorted(acc.items())

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
