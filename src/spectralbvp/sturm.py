"""Sturm-Liouville eigensolver on a finite interval.

Solves -(p u')' + q u = lambda rho u on [0, l] with Robin, Neumann or
Dirichlet conditions at either end, by the classical initial-value route.
Fixed-step RK4 on the linear system for (u, p u') makes each step a 2x2
matrix with entries quadratic in lambda, built once per problem, so a sweep
is a product of step matrices: a pairwise tree product gives the right-end
boundary residual, whose zeros are the eigenvalues, and a log-depth prefix
product gives every node value.  Products of 16 to 256 consecutive steps,
kept as matrix polynomials in lambda truncated by an a-priori tail bound,
stand in for the steps in scans and counts: each lambda goes through the
longest block that is shorter than the spacing of the solution's zeros, so
those multiply up to 256 times fewer matrices.  The sign changes of the
node values at the block ends count the zeros of the left-normalized
solution, and by Sturm's oscillation theorem the eigenvalues below lambda;
bisection on that count isolates each eigenvalue before Brent's iteration
polishes it on the boundary residual.  eigen_solve runs these iterations
for all eigenvalues in lockstep, each round one batched evaluation; a
lambda's block level and polynomial degree depend on that lambda alone, so
a batched value equals the one-lambda value bit for bit and every
eigenvalue takes the path it would take alone.  A Picard iteration on the
equivalent Volterra equation is the independent cross-check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Generator, Sequence

from ._quad import composite_simpson, cumulative_simpson, gauss_ladder, gauss_rule, sample, sample_rows
from ._record import dataclass, field
from ._rootfind import lockstep, zeroin
from ._series import project
from ._vec import as_arg, inside, np

__all__ = [
    "BoundaryCondition",
    "SLProblem",
    "EigenBasis",
    "ThetaSolution",
    "solve_theta",
    "characteristic",
    "characteristic_many",
    "node_count",
    "eigen_solve",
    "const_coeff_eigen",
    "rayleigh_quotient",
    "ResolutionError",
]


@dataclass(frozen=True)
class BoundaryCondition:
    """End condition u' -+ h u = 0 (Robin); h = 0 is Neumann, and a separate
    flag encodes the Dirichlet (clamped) limit h -> infinity."""

    dirichlet: bool = False
    h: float = 0.0

    def __post_init__(self):
        if not self.dirichlet and (not math.isfinite(self.h) or self.h < 0.0):
            raise ValueError("Robin parameter must be finite and >= 0; use dirichlet() for the clamped limit")

    @classmethod
    def robin(cls, h: float) -> "BoundaryCondition":
        if math.isinf(h):
            return cls(dirichlet=True)
        return cls(h=h)

    @classmethod
    def neumann(cls) -> "BoundaryCondition":
        return cls(h=0.0)

    @classmethod
    def dirichlet_bc(cls) -> "BoundaryCondition":
        return cls(dirichlet=True)


DIRICHLET = BoundaryCondition(dirichlet=True)
NEUMANN = BoundaryCondition(h=0.0)


class SLProblem:
    """Coefficients p > 0 (stiffness), q >= 0 (elastic medium), rho > 0
    (mass density) on [0, l], plus the two end conditions.

    Coefficients are supplied as callables and sampled once on a uniform
    grid (default 4096 steps) that all integrations share; min/max bounds
    used by the eigenvalue window come from the same samples.
    """

    def __init__(
        self,
        p: Callable[[float], float],
        q: Callable[[float], float],
        rho: Callable[[float], float],
        l: float,
        left: BoundaryCondition,
        right: BoundaryCondition,
        grid_size: int = 4096,
    ):
        if not (math.isfinite(l) and l > 0.0):
            raise ValueError("interval length must be finite and positive")
        if grid_size < 16 or grid_size % 2:
            raise ValueError("grid_size must be an even integer >= 16")
        self.p, self.q, self.rho = p, q, rho
        self.l = float(l)
        self.left = left
        self.right = right
        self.n = int(grid_size)
        # Samples at half-step resolution: index i corresponds to x = i*h/2.
        xs = np.linspace(0.0, self.l, 2 * self.n + 1)
        self._xs_half = xs
        self._p = sample(p, xs)
        self._q = sample(q, xs)
        self._rho = sample(rho, xs)
        if self._p.min() <= 0.0 or self._rho.min() <= 0.0 or self._q.min() < 0.0:
            raise ValueError("need p > 0, rho > 0, q >= 0 on the sampling grid")
        self._bounds = {
            "p_min": float(self._p.min()),
            "p_max": float(self._p.max()),
            "q_min": float(self._q.min()),
            "q_max": float(self._q.max()),
            "rho_min": float(self._rho.min()),
            "rho_max": float(self._rho.max()),
        }
        step = _rk4_step_coeffs(self._p, self._q, self._rho, self.h_step)
        self._coeffs = {0: (step, 1.0, ()), **_block_tables(step, self.n, self._bounds, self.h_step)}
        # (level, largest |lam| it admits), coarsest first: a level serves
        # 2**L h sqrt((q_max + |lam| rho_max)/p_min) <= 1
        qr = self._bounds["q_max"] / self._bounds["rho_max"]
        self._block_lams = tuple((lv, self._coeffs[lv][1] - qr) for lv in sorted(self._coeffs, reverse=True) if lv)

    @property
    def h_step(self) -> float:
        return self.l / self.n

    @property
    def grid(self) -> np.ndarray:
        """Node grid of the integrator (n+1 points)."""
        return self._xs_half[::2]

    def coefficient_bounds(self) -> dict[str, float]:
        """Minima and maxima of p, q and rho over the samples (a copy)."""
        return dict(self._bounds)

    def eigenvalue_window(self, n: int) -> tuple[float, float]:
        """Two-sided estimate for the n-th eigenvalue from the constant-
        coefficient comparison problems (n >= 1)."""
        b = self._bounds
        lo = b["p_min"] * math.pi**2 * (n - 1) ** 2 / (b["rho_max"] * self.l**2) + b["q_min"] / b["rho_max"]
        hi = b["p_max"] * math.pi**2 * n**2 / (b["rho_min"] * self.l**2) + b["q_max"] / b["rho_min"]
        return lo, hi

    def left_initial_data(self) -> tuple[float, float]:
        """Initial data (value, derivative) of the solution satisfying the
        left boundary condition, in the fixed sign convention."""
        if self.left.dirichlet:
            return 0.0, 1.0
        return 1.0, self.left.h


@dataclass(frozen=True)
class ThetaSolution:
    """Dense output of the initial-value integration.

    Stores values and derivatives at the integrator nodes; evaluation between
    nodes is cubic Hermite, matching the fourth-order step accuracy.  A point
    outside [0, l], or NaN, raises ValueError naming it.
    """

    problem: SLProblem
    lam: float
    values: np.ndarray
    derivs: np.ndarray

    def _cell(self, x):
        """Step length h, offset s in [0, 1] of x in its step, and the node
        values y0, y1 and derivatives d0, d1 at the step's ends."""
        x, l = as_arg(x), self.problem.l
        if not inside(x, 0.0, l):
            bad = x if type(x) is float else float(x.flat[np.argmin((x >= 0.0) & (x <= l))])
            raise ValueError(f"x = {bad!r} is outside [0, {l!r}]")
        x = np.asarray(x)
        h = self.problem.h_step
        idx = np.clip((x / h).astype(int), 0, self.problem.n - 1)
        s = (x - idx * h) / h
        return h, s, self.values[idx], self.values[idx + 1], self.derivs[idx], self.derivs[idx + 1]

    def __call__(self, x):
        h, s, y0, y1, d0, d1 = self._cell(x)
        h00 = 1.0 + s * s * (2.0 * s - 3.0)
        h10 = s * (1.0 + s * (s - 2.0))
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        y = h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
        return y if y.shape else float(y)

    def derivative(self, x):
        # Hermite derivative of the value interpolant.
        h, s, y0, y1, d0, d1 = self._cell(x)
        dy = (
            (6.0 * s * s - 6.0 * s) * y0
            + (-6.0 * s * s + 6.0 * s) * y1
            + h * (3.0 * s * s - 4.0 * s + 1.0) * d0
            + h * (3.0 * s * s - 2.0 * s) * d1
        ) / h
        return dy if dy.shape else float(dy)

    @property
    def end_value(self) -> float:
        return float(self.values[-1])

    @property
    def end_derivative(self) -> float:
        return float(self.derivs[-1])


def _rk4_step_coeffs(p: np.ndarray, q: np.ndarray, rho: np.ndarray, h: float) -> np.ndarray:
    """RK4 step matrices of theta' = w/p, w' = (q - lam rho) theta as
    polynomials in lam, from the half-step samples p, q, rho.

    One step maps (theta, w) at node i to M_i(lam) (theta, w) at node i+1.
    Returns c of shape (3, 4 n): c[0] + lam c[1] + lam^2 c[2] lists M11, M12,
    M21 and M22 of every step in turn.
    """
    p0, pm, p1 = p[:-1:2], p[1::2], p[2::2]
    zero = np.zeros_like(p0)
    # q - lam rho at the start, middle and end of each step
    g0, gm, g1 = (np.stack([q[k::2][: len(p0)], -rho[k::2][: len(p0)], zero]) for k in (0, 1, 2))
    e = np.stack([np.ones_like(p0), zero, zero])

    def mul(u, v):  # product of two polynomials of degree <= 1
        return np.stack([u[0] * v[0], u[0] * v[1] + u[1] * v[0], u[1] * v[1]])

    # Expanding the four RK4 stages of y' = A y with A = [[0, 1/p], [g, 0]]
    # gives M = I + h/6 (A0 + 4 Am + A1) + h^2/6 (Am A0 + Am^2 + A1 Am)
    # + h^3/12 (Am^2 A0 + A1 Am^2) + h^4/24 A1 Am^2 A0, where products of two
    # A's are diagonal and Am^2 = (gm/pm) I.
    m11 = e + h**2 / 6.0 * (g0 + gm) / pm + h**2 / 6.0 * gm / p1 + h**4 / 24.0 * mul(gm, g0) / (pm * p1)
    m12 = h / 6.0 * (1.0 / p0 + 4.0 / pm + 1.0 / p1) * e + h**3 / 12.0 * gm / pm * (1.0 / p0 + 1.0 / p1)
    m21 = h / 6.0 * (g0 + 4.0 * gm + g1) + h**3 / 12.0 * mul(gm, g0 + g1) / pm
    m22 = e + h**2 / 6.0 * gm / p0 + h**2 / 6.0 * (gm + g1) / pm + h**4 / 24.0 * mul(gm, g1) / (pm * p0)
    return np.stack([m11, m12, m21, m22], axis=1).reshape(3, -1)


# A level-L block is the product of 2**L consecutive steps, a 2x2 matrix
# polynomial in lambda; each lambda goes through the coarsest level whose
# block bound admits it.
_BLOCK_LEVELS = range(4, 9)
# A trailing degree is dropped where its term is at most this share of its
# entry's size.
_TAIL = 2.0**-60


def _block_tables(step: np.ndarray, n: int, bounds: dict[str, float], h: float) -> dict:
    """Block polynomials, from the step coefficients of _rk4_step_coeffs, for
    every level of _BLOCK_LEVELS whose block fits the grid and admits some
    lambda: {L: (table, unit, cuts)}.

    A level's table, laid out like the step table (degrees, 4 blocks), is in
    the variable lam/unit with unit = p_min/(rho_max (2**L h)**2), so its
    coefficients stay O(1) at any interval length; the level admits
    |lam| <= unit - q_max/rho_max.
    Built by doubling from the steps: each level multiplies neighbouring
    products (later @ earlier; an identity block pads an odd count), moves
    to its own unit and drops the degrees that _truncate allows where the
    level is used: |lam| < unit for a stored level, and for a finer one the
    range of the finest stored level."""
    unit = bounds["p_min"] / (bounds["rho_max"] * h * h)
    qr = bounds["q_max"] / bounds["rho_max"]
    top = max((lv for lv in _BLOCK_LEVELS if 2**lv <= n and unit / 4**lv >= qr), default=0)
    c, s = step.reshape(3, 2, 2, n), unit / 4  # the steps are in lam itself
    tables = {}
    for level in range(1, top + 1):
        if c.shape[-1] % 2:
            eye = np.zeros(c.shape[:-1] + (1,))
            eye[0, 0, 0] = eye[0, 1, 1] = 1.0
            c = np.concatenate([c, eye], axis=-1)
        c, cuts = _truncate(_double(c, s), 4.0 ** min(0, level - _BLOCK_LEVELS[0]))
        s = 0.25
        if level >= _BLOCK_LEVELS[0]:
            tables[level] = (c.reshape(len(c), -1), unit / 4**level, cuts)
    return tables


def _double(c: np.ndarray, s: float) -> np.ndarray:
    """Products later @ earlier of neighbouring matrix polynomials c
    (degrees, 2, 2, blocks) in z, as polynomials in z/s, one degree of the
    later factor at a time."""
    d = len(c)
    scale = s ** np.arange(d)[:, None, None, None]  # z**k = s**k (z/s)**k
    later, earlier = c[..., 1::2] * scale, c[..., 0::2] * scale
    out = np.zeros((2 * d - 1,) + later.shape[1:])
    part = np.empty_like(earlier)
    for a in range(d):
        out[a : a + d] += np.einsum("ijn,bjkn->bikn", later[a], earlier, out=part)
    return out


def _truncate(c: np.ndarray, r: float) -> tuple[np.ndarray, tuple[float, ...]]:
    """Block polynomials c (degrees, 2, 2, blocks) in a variable z cut to
    their last degree that matters at |z| <= r <= 1, and the cuts for a
    smaller |z|.

    Per entry, the term of degree k >= 2 is negligible at |z| <= r when
    max_blocks |c_k| r**(k-1) <= _TAIL min_blocks max(|c_0|, |c_1|).
    cuts[k - 2] is the r above which degree k or a higher one is not
    negligible, so 2 + bisect_left(cuts, r) degrees serve |z| <= r."""
    size = np.maximum(np.abs(c[0]), np.abs(c[1])).min(axis=-1)
    ratio = (np.maximum(c.max(axis=-1), -c.min(axis=-1)) / size).reshape(len(c), 4).max(axis=1)[2:]
    # a degree that is zero in every block is never needed
    reach = (_TAIL / np.maximum(ratio, 1e-300)) ** (1.0 / np.arange(1, ratio.size + 1))
    keep = np.flatnonzero(reach < r)
    cuts = np.minimum.accumulate(reach[: keep[-1] + 1 if keep.size else 0][::-1])[::-1]
    return c[: 2 + cuts.size], tuple(cuts.tolist())


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Matrix products later @ earlier of stacked 2x2 matrices (2, 2, ...)."""
    return np.einsum("ij...,jk...->ik...", later, earlier)


def _end_transfer(m: np.ndarray) -> np.ndarray:
    """Ordered product M_{n-1} ... M_1 M_0 of the stacked matrices
    m (2, 2, ..., n) by pairwise tree reduction; an odd count is padded with
    the identity."""
    while m.shape[-1] > 1:
        if m.shape[-1] % 2:
            eye = np.zeros_like(m[..., :1])
            eye[0, 0] = eye[1, 1] = 1.0
            m = np.concatenate([m, eye], axis=-1)
        m = _compose(m[..., 1::2], m[..., 0::2])
    return m[..., 0]


def _node_transfers(m: np.ndarray) -> np.ndarray:
    """Prefix products M_k ... M_0 (k = 0 .. n-1) of the stacked matrices,
    by recursive doubling in ceil(log2 n) rounds that alternate between m
    and one more buffer of its layout (m is overwritten)."""
    out = np.empty_like(m)
    d = 1
    while d < m.shape[-1]:
        out[..., :d] = m[..., :d]
        np.einsum("ij...,jk...->ik...", m[..., d:], m[..., :-d], out=out[..., d:])
        m, out = out, m
        d *= 2
    return m


# _transfer keeps the batch innermost for a tree product over at most this
# many factors and more lambdas than factors: there its tree product saves
# more than its polynomial evaluation costs (measured at 4 to 256 factors).
_SHORT_TREE = 32


def _transfer(problem: SLProblem, lams: np.ndarray, level: int, a, w0, nodes: bool = False):
    """theta and p theta' from theta(0) = a, p theta'(0) = w0 at each lambda of
    the 1-d batch lams, through factors of 2**level steps (level is 0 or one
    of _BLOCK_LEVELS that admits every lambda of the batch): at the right
    end, shape (batch,), or with nodes=True at the end of every factor, shape
    (batch, factors).  Each factor's matrix polynomial is evaluated by one
    ``einsum`` with the powers of lambda, cut for each lambda to the degrees
    its own |lambda| needs (the powers above its cut are zero), so a value
    does not depend on the rest of the batch; the factors are multiplied out
    by tree or prefix products.  A tree product over at most _SHORT_TREE
    factors and more lambdas than factors keeps the batch innermost in
    memory; each entry is the same sum of the same products either way, and
    tests check the bits."""
    coeffs, unit, cuts = problem._coeffs[level]
    z = lams / unit
    if cuts:
        coeffs = coeffs[: 2 + bisect_left(cuts, float(np.abs(z).max()))]
    powers = np.vander(z, len(coeffs), increasing=True)
    if cuts and len(lams) > 1:
        # each lambda keeps only the degrees its own |lambda| needs
        keep = 2 + np.array(cuts).searchsorted(np.abs(z))
        powers[np.arange(len(coeffs)) >= keep[:, None]] = 0.0
    factors = coeffs.shape[1] // 4
    if not nodes and factors <= _SHORT_TREE and factors < len(lams):
        # the same matrices with the batch innermost in memory, so that the
        # einsum loops of the tree product run along the longer axis
        m = np.einsum("bd,dk->kb", powers, coeffs, order="C").reshape(2, 2, factors, len(lams))
        m = m.transpose(0, 1, 3, 2)
    else:
        m = np.einsum("bd,dk->bk", powers, coeffs).reshape(len(lams), 2, 2, factors).transpose(1, 2, 0, 3)
    t = _node_transfers(m) if nodes else _end_transfer(m)
    return t[0, 0] * a + t[0, 1] * w0, t[1, 0] * a + t[1, 1] * w0


def _level(problem: SLProblem, lam: float) -> int:
    """The coarsest block level that admits lam, or 0 (the steps)."""
    return next((lv for lv, top in problem._block_lams if abs(lam) <= top), 0)


def _sweeps(problem: SLProblem, lams: np.ndarray, nodes: bool = False):
    """Yield (index, theta, p theta') of the left-normalized solution for the
    1-d batch lams, each lambda through the coarsest block level that admits
    it, or else the step matrices, in groups of one level and at most
    4 << level lambdas, so every working array has the size of (2, 2, 4, n);
    index picks the group's lambdas from lams (see _transfer for nodes)."""
    a, b = problem.left_initial_data()
    w0 = problem._p[0] * b
    levels = problem._block_lams
    # index of the coarsest admitting level; len(levels) for the steps
    pick = np.array([top for _, top in levels]).searchsorted(np.abs(lams))
    for i in sorted(set(pick.tolist())):
        level = levels[i][0] if i < len(levels) else 0
        idx = (pick == i).nonzero()[0]
        for k in range(0, idx.size, 4 << level):
            part = idx[k : k + (4 << level)]
            yield (part, *_transfer(problem, lams[part], level, a, w0, nodes))


def _solutions(problem: SLProblem, lams: Sequence[float], a: float, b: float) -> list[ThetaSolution]:
    """Node values and derivatives of the solutions with theta(0) = a,
    theta'(0) = b, one step-matrix sweep per lambda."""
    w0 = problem._p[0] * b
    sols = []
    for lam in lams:
        theta, w = _transfer(problem, np.array([lam]), 0, a, w0, nodes=True)
        values = np.concatenate([[a], theta[0]])
        derivs = np.concatenate([[w0], w[0]]) / problem._p[::2]
        sols.append(ThetaSolution(problem=problem, lam=lam, values=values, derivs=derivs))
    return sols


def _picard_integrate(problem: SLProblem, lam: float, a: float, b: float):
    """Successive approximations on the Volterra form of the initial-value
    problem; converges for every lambda by the factorial bound on iterates."""
    xs = problem.grid
    h = problem.h_step
    p = problem._p[::2]
    g = problem._q[::2] - lam * problem._rho[::2]
    inv_p = 1.0 / p
    big_p = cumulative_simpson(inv_p, h)  # P(x) = int_0^x dx'/p
    f0 = a + b * problem._p[0] * big_p
    f = f0.copy()
    for _ in range(400):
        gf = g * f
        i1 = cumulative_simpson(gf, h)
        i2 = cumulative_simpson(gf * big_p, h)
        f_new = f0 + big_p * i1 - i2
        delta = float(np.max(np.abs(f_new - f)))
        f = f_new
        if delta < 1e-12:
            break
    # derivative from the integrated flux: p f' = p(0) b + int_0^x g f
    derivs = (problem._p[0] * b + cumulative_simpson(g * f, h)) / p
    return f, derivs


def solve_theta(
    problem: SLProblem,
    lam: float,
    a: float,
    b: float,
    method: str = "rk4",
) -> ThetaSolution:
    """Solution of -(p u')' + q u = lam rho u with u(0) = a, u'(0) = b.

    method="rk4" integrates the first-order system with a fixed fourth-order
    step; method="picard" iterates the equivalent Volterra integral equation
    until successive iterates differ by < 1e-12.  The two routes are
    independent implementations of the same contract.  The iteration
    converges for every lambda, but its intermediate iterates grow like
    cosh(l sqrt(|lam| rho_max / p_min)) before cancelling, so the cross-check
    mode is meaningful at moderate spectral parameters only.
    """
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if method == "rk4":
        # fixed-step RK4 as products of the step matrices, at every node
        return _solutions(problem, [lam], a, b)[0]
    if method != "picard":
        raise ValueError("method must be 'rk4' or 'picard'")
    vals, ders = _picard_integrate(problem, lam, a, b)
    return ThetaSolution(problem=problem, lam=lam, values=vals, derivs=ders)


def _end_residual(problem: SLProblem, value, deriv):
    if problem.right.dirichlet:
        return value
    return deriv + problem.right.h * value


def characteristic(problem: SLProblem, lam: float) -> float:
    """Right-end boundary residual of the left-normalized solution.

    Its zeros are exactly the eigenvalues: m(lam) = theta'(l) + h2 theta(l)
    for a Robin right end, theta(l) for a Dirichlet right end.
    """
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    a, b = problem.left_initial_data()
    theta, w = _transfer(problem, np.array([lam]), _level(problem, lam), a, problem._p[0] * b)
    return float(_end_residual(problem, theta[0], w[0] / problem._p[-1]))


def characteristic_many(problem: SLProblem, lams: Sequence[float]) -> np.ndarray:
    """Vectorized characteristic over an array of lambda values, used for
    dense scans and by eigen_solve.  Each value goes through the coarsest
    block level that admits it, or else the step matrices, and equals
    characteristic(problem, lam) bit for bit whatever the batch."""
    lams = np.asarray(lams, dtype=float)
    flat = lams.ravel()
    out = np.empty(flat.shape)
    for part, theta, w in _sweeps(problem, flat):
        out[part] = _end_residual(problem, theta, w / problem._p[-1])
    return out.reshape(lams.shape)


class ResolutionError(RuntimeError):
    """Raised when the grid is too coarse for the requested spectral parameter:
    h sqrt(max(lam, 0) rho_max / p_min) > 1.  By Sturm-Picone comparison with
    the constants p_min and lam rho_max - q_min, zeros of a solution lie at
    least pi sqrt(p_min/(lam rho_max - q_min)) apart, so within that bound a
    step, like a block of every level that admits lam, holds at most one."""


_MAX_STEP_ANGLE = 1.0


def _sign_changes(values: np.ndarray) -> int:
    return int(np.count_nonzero(np.signbit(values[1:]) != np.signbit(values[:-1])))


def _step_angle(problem: SLProblem, lam: float) -> float:
    b = problem._bounds
    return problem.h_step * math.sqrt(max(lam, 0.0) * b["rho_max"] / b["p_min"])


def _resolved_top(problem: SLProblem) -> float:
    """The largest lambda, to a few ulp, that the grid resolves."""
    b = problem._bounds
    top = b["p_min"] / (b["rho_max"] * problem.h_step**2)
    while _step_angle(problem, top) > _MAX_STEP_ANGLE:
        top = math.nextafter(top, 0.0)
    return top


def _zeros_below(problem: SLProblem, theta: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(zeros, below) for each row of the node values theta and p theta'
    (batch, factors) of the left-normalized solution at the ends of the
    blocks of the coarsest level that admits its lambda, else of the steps:
    the zeros on (0, l] and the number of eigenvalues below lambda, for a
    lambda that the grid resolves.

    Each zero is one sign change (see ResolutionError).  By Sturm's
    oscillation theorem the zeros are the eigenvalues below lambda for a
    Dirichlet right end; a Robin or Neumann end adds one when
    m(lambda) theta(l) < 0, where the solution has passed the right
    condition but not yet its next zero."""
    sign = np.signbit(theta)
    start = np.signbit(problem.left_initial_data()[0])
    zeros = (sign[:, 1:] != sign[:, :-1]).sum(axis=1) + (sign[:, 0] != start)
    if problem.right.dirichlet:
        return zeros, zeros
    end = theta[:, -1]
    return zeros, zeros + (_end_residual(problem, end, w[:, -1] / problem._p[-1]) * end < 0.0)


def _below_many(problem: SLProblem, lams: np.ndarray) -> np.ndarray:
    """The number of eigenvalues below each lambda of the batch (see _zeros_below)."""
    below = np.empty(len(lams), dtype=int)
    for part, theta, w in _sweeps(problem, lams, nodes=True):
        below[part] = _zeros_below(problem, theta, w)[1]
    return below


def _count(problem: SLProblem, lam: float) -> tuple[int, int]:
    """_zeros_below at one lambda; ResolutionError if the grid under-resolves it."""
    step_angle = _step_angle(problem, lam)
    if step_angle > _MAX_STEP_ANGLE:
        raise ResolutionError(
            f"grid of {problem.n} steps under-resolves lambda={lam}: "
            f"h*sqrt(lam*rho_max/p_min) = {step_angle:.3f} > {_MAX_STEP_ANGLE}"
        )
    ((_, theta, w),) = _sweeps(problem, np.array([lam]), nodes=True)
    zeros, below = _zeros_below(problem, theta, w)
    return int(zeros[0]), int(below[0])


def node_count(problem: SLProblem, lam: float) -> int:
    """Number of interior zeros on (0, l) of the left-normalized solution;
    ResolutionError if the grid under-resolves lam."""
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    return _count(problem, lam)[0]


class BracketingError(RuntimeError):
    """Raised when an eigenvalue cannot be bracketed, isolated or certified."""


@dataclass
class EigenBasis:
    """First eigenpairs of a Sturm-Liouville problem.

    Eigenfunctions are normalized to unit rho-weighted norm, with the sign
    fixed so that the first nonzero of {X(0), X'(0)} is positive; the n-th
    one has exactly n-1 interior sign changes.
    """

    problem: SLProblem
    eigenvalues: list[float]
    norm_constants: list[float]
    _solutions: list[ThetaSolution] = field(repr=False, default_factory=list)
    node_counts: list[int] = field(default_factory=list)

    def _mode(self, n: int) -> tuple[ThetaSolution, float]:
        """The n-th solution and its norm constant; IndexError outside 1..len."""
        if not 1 <= n <= len(self.eigenvalues):
            raise IndexError(f"mode index {n} outside 1..{len(self.eigenvalues)}")
        return self._solutions[n - 1], self.norm_constants[n - 1]

    def eigenfunction(self, n: int) -> Callable[[float], float]:
        """n-th normalized eigenfunction (n >= 1) as a callable on [0, l]."""
        sol, c = self._mode(n)
        return lambda x: c * sol(x)

    def eigenfunction_derivative(self, n: int) -> Callable[[float], float]:
        sol, c = self._mode(n)
        return lambda x: c * sol.derivative(x)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def coefficient(self, f: Callable[[float], float], n: int) -> float:
        """rho-weighted inner product <X_n, f>, on the Gauss ladder
        (``_quad.gauss_ladder``, n the mode floor): each rung contracts X_n's
        Hermite interpolant, rho and f at the nodes of its rule on [0, l]."""
        sol, c = self._mode(n)
        l, rho = self.problem.l, self.problem.rho

        def rung(m):
            xs, w = gauss_rule(0.0, l, m)
            return project, (sol(xs)[:, None], w * sample(rho, xs), sample(f, xs))

        # The cap is 256 points, as for the interval modes, up to n = 64;
        # above, the next power of two >= 4 n, so that the cap and its half
        # rung both hold 2 n nodes and the ladder always compares two rungs.
        cap = max(256, 1 << (4 * int(n) - 1).bit_length())
        return c * float(gauss_ladder(rung, cap, n)[0][0])


# Widenings of an eigenvalue bracket by its width on both sides before BracketingError.
_MAX_EXPANSIONS = 6


def _isolate(problem: SLProblem, n: int, lo: float, hi: float, top: float) -> Generator[tuple, list, tuple]:
    """Coroutine (see _rootfind.lockstep) that is sent the counts below(lam)
    of the lambdas it yields and returns a bracket that holds the n-th
    eigenvalue alone: below(lo) = n - 1 and below(hi) = n.  [lo, hi], capped
    at the resolved top, is widened by its width on both sides while it
    misses the eigenvalue, then bisected on the count; ResolutionError if
    fewer than n eigenvalues lie below top."""
    lo, hi = min(lo, top), min(hi, top)
    b_lo, b_hi = yield lo, hi
    for _ in range(_MAX_EXPANSIONS):
        if b_lo < n <= b_hi or b_hi < n and hi == top:
            break
        width = hi - lo
        lo, hi = lo - width, min(hi + width, top)
        b_lo, b_hi = yield lo, hi
    if b_hi < n and hi == top:
        raise ResolutionError(
            f"grid of {problem.n} steps under-resolves eigenvalue {n}: it resolves lambda <= {top} "
            f"(h*sqrt(lam*rho_max/p_min) <= {_MAX_STEP_ANGLE}), below which lie {b_hi} eigenvalues"
        )
    if not b_lo < n <= b_hi:
        raise BracketingError(f"eigenvalue {n} not bracketed after expansion; counted [{lo}, {hi}]")
    while (b_lo, b_hi) != (n - 1, n):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise BracketingError(f"eigenvalue {n} not isolated from its neighbours in [{lo}, {hi}]")
        (b_mid,) = yield (mid,)
        if b_mid < n:
            lo, b_lo = mid, b_mid
        else:
            hi, b_hi = mid, b_mid
    return lo, hi


# An eigenvalue is certified by |m(lam)| <= _M_TOL times the local scale of m.
_M_TOL = 1e-10


def eigen_solve(problem: SLProblem, n_max: int) -> EigenBasis:
    """First n_max eigenpairs.

    All eigenvalues are solved in lockstep: each round of the iterations
    below evaluates every eigenvalue's next lambda in one batch (one
    transfer per block level), and each value equals the one-lambda value
    bit for bit, so every eigenvalue takes the path it would take alone.
    Each eigenvalue is isolated by bisection on the count of eigenvalues
    below lambda, from the spectral window capped at the largest lambda
    the grid resolves, then found by Brent's iteration as the root of the
    characteristic in that bracket and certified by |m(lam)| <= _M_TOL
    times its local scale (the three values of every eigenvalue are one
    more batch).  Raises ResolutionError, naming the count, when fewer than
    n_max eigenvalues lie below the largest resolved lambda.  When several
    eigenvalues fail, the error is the first one of the lowest of them, the
    error that solving them one at a time in order would raise.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    top = _resolved_top(problem)
    windows = []
    for n in range(1, n_max + 1):
        lo, hi = problem.eigenvalue_window(n)
        windows.append((lo - (1e-6 + 1e-3 * abs(lo)), hi + (1e-6 + 1e-3 * abs(hi))))
    below = lambda lams: _below_many(problem, np.array(lams)).tolist()
    g = lambda lams: characteristic_many(problem, lams).tolist()
    # each eigenvalue's bracket, then its root; an exception in its place once it fails
    lanes = lockstep([_isolate(problem, n, lo, hi, top) for n, (lo, hi) in enumerate(windows, start=1)], below)
    live = [i for i, lane in enumerate(lanes) if not isinstance(lane, Exception)]
    for i, lam in zip(live, lockstep([zeroin(*lanes[i], 0.0) for i in live], g)):
        lanes[i] = lam
    live = [i for i in live if not isinstance(lanes[i], Exception)]
    # the local scale of m, from m at lam +- span
    spans = [max(1e-9, 1e-7 * max(1.0, abs(hi))) for _, hi in windows]
    m = g([x for i in live for x in (lanes[i] - spans[i], lanes[i] + spans[i], lanes[i])])
    for k, i in enumerate(live):
        m_lo, m_hi, mval = m[3 * k : 3 * k + 3]
        if abs(mval) > _M_TOL * max(1.0, abs(m_lo), abs(m_hi)):
            lanes[i] = BracketingError(
                f"characteristic residual {mval:.3e} exceeds tolerance at eigenvalue {i + 1} (lam={lanes[i]})"
            )
    error = next((lane for lane in lanes if isinstance(lane, Exception)), None)
    if error is not None:
        raise error
    sols = _solutions(problem, lanes, *problem.left_initial_data())
    rho_nodes = problem._rho[::2]
    return EigenBasis(
        problem=problem,
        eigenvalues=lanes,
        norm_constants=[1.0 / math.sqrt(composite_simpson(rho_nodes * sol.values**2, problem.h_step)) for sol in sols],
        _solutions=sols,
        # a Dirichlet right end's node is zero only up to rounding
        node_counts=[_sign_changes(sol.values[:-1] if problem.right.dirichlet else sol.values) for sol in sols],
    )


def const_coeff_eigen(mu: float, q: float, rho: float, x1: float, x2: float, n_max: int) -> list[float]:
    """Closed-form Dirichlet eigenvalues (mu pi^2 n^2/(x2-x1)^2 + q)/rho."""
    if x2 <= x1:
        raise ValueError("need x2 > x1")
    if rho <= 0.0:
        raise ValueError("need rho > 0")
    ll = x2 - x1
    return [(mu * math.pi**2 * n**2 / ll**2 + q) / rho for n in range(1, n_max + 1)]


def rayleigh_quotient(
    problem: SLProblem,
    f: Callable[[float], float],
    fprime: Callable[[float], float] | None = None,
) -> float:
    """Energy ratio (int p f'^2 + int q f^2 + boundary terms) / int rho f^2.

    Bounds the lowest eigenvalue from above for any admissible f.  The three
    integrals are one Gauss ladder (``_quad.gauss_ladder``, capped at 256
    points): each rung samples p, q, rho, f and f' at the nodes of its rule
    on [0, l].  When the derivative is not supplied it is taken there by
    central differences, clamped to [0, l].  The Robin terms take p at the
    ends from the problem's samples and f(0), f(l).
    """
    l = problem.l
    step = np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, l)

    def rung(m):
        xs, w = gauss_rule(0.0, l, m)
        fv = sample(f, xs)
        if fprime is not None:
            fd = sample(fprime, xs)
        else:
            right = np.minimum(l, xs + step)
            left = np.maximum(0.0, xs - step)
            fd = (sample(f, right) - sample(f, left)) / (right - left)
        pqr = sample_rows((problem.p, problem.q, problem.rho), xs)
        return (lambda w, c, s: np.einsum("n,kn,kn->k", w, c, s)), (w, pqr, np.array([fd * fd, fv * fv, fv * fv]))

    (stiff, medium, den), _ = gauss_ladder(rung, 256, 1)
    f0, fl = sample(f, np.array([0.0, l]))
    num = stiff + medium
    if not problem.left.dirichlet:
        num += problem.left.h * problem._p[0] * f0**2
    if not problem.right.dirichlet:
        num += problem.right.h * problem._p[-1] * fl**2
    if den <= 0.0:
        raise ValueError("trial function is numerically zero")
    return float(num / den)
