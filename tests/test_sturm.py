"""Sturm-Liouville engine: initial-value solutions against closed forms and a
finer-grid reference, characteristic zeros, oscillation counts, eigenpairs
against the dimensionless Robin characteristic, and the spectral
monotonicity/bound properties."""

import math
import re
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralbvp import WaveMedium, beam_spectrum, string_modes, sturm
from spectralbvp._quad import composite_simpson, gauss_rule
from spectralbvp._rootfind import lockstep, refine_root, scan_brackets
from spectralbvp.sturm import (
    DIRICHLET,
    NEUMANN,
    BoundaryCondition,
    ResolutionError,
    SLProblem,
    characteristic,
    characteristic_many,
    const_coeff_eigen,
    eigen_solve,
    node_count,
    rayleigh_quotient,
    solve_theta,
)

ONE = lambda x: 1.0
ZERO = lambda x: 0.0


def dirichlet_problem(l=1.0, grid=4096):
    return SLProblem(ONE, ZERO, ONE, l, DIRICHLET, DIRICHLET, grid_size=grid)


def test_problem_rejects_nonfinite_input():
    nan, inf = math.nan, math.inf
    for p, q, rho in [
        (lambda x: nan, ZERO, ONE),
        (lambda x: inf, ZERO, ONE),
        (ONE, lambda x: nan if x > 0.5 else 0.0, ONE),
        (ONE, lambda x: inf, ONE),
        (ONE, ZERO, lambda x: inf),
        (ONE, ZERO, lambda x: nan),
    ]:
        with pytest.raises(ValueError):
            SLProblem(p, q, rho, 1.0, DIRICHLET, DIRICHLET, grid_size=64)
    for l in (nan, inf, -inf):
        with pytest.raises(ValueError):
            SLProblem(ONE, ZERO, ONE, l, DIRICHLET, DIRICHLET, grid_size=64)


# ----------------------------------------------------------------------
# Initial-value solutions
# ----------------------------------------------------------------------

def test_theta_closed_form_sine():
    prob = dirichlet_problem()
    lam = math.pi**2
    sol = solve_theta(prob, lam, 0.0, 1.0)
    assert abs(sol.end_value) < 1e-12
    for x in (0.2, 0.5, 0.77):
        assert sol(x) == pytest.approx(math.sin(math.pi * x) / math.pi, abs=1e-12)
        assert sol.derivative(x) == pytest.approx(math.cos(math.pi * x), abs=1e-10)


def test_theta_solution_is_the_cubic_hermite_interpolant():
    """Between nodes x_i and x_i + h, with s = (x - x_i)/h, the value is
    y0 (2s^3 - 3s^2 + 1) + h d0 (s^3 - 2s^2 + s) + y1 (3s^2 - 2s^3) + h d1 (s^3 - s^2),
    and the derivative that polynomial's derivative in x."""
    prob = dirichlet_problem(l=2.0, grid=16)
    rng = np.random.default_rng(7)
    vals, ders = rng.normal(size=17), rng.normal(size=17)
    sol = sturm.ThetaSolution(problem=prob, lam=0.0, values=vals, derivs=ders)
    h = prob.h_step
    xs = np.concatenate([rng.uniform(0.0, 2.0, 40), prob.grid])
    got, dgot = sol(xs), sol.derivative(xs)
    for k, x in enumerate(xs.tolist()):
        i = min(int(x / h), 15)
        s = (x - i * h) / h
        y0, y1, d0, d1 = vals[i], vals[i + 1], ders[i], ders[i + 1]
        want = y0 * (2 * s**3 - 3 * s**2 + 1) + h * d0 * (s**3 - 2 * s**2 + s) + y1 * (3 * s**2 - 2 * s**3) \
            + h * d1 * (s**3 - s**2)
        dwant = (y0 * (6 * s**2 - 6 * s) + h * d0 * (3 * s**2 - 4 * s + 1) + y1 * (6 * s - 6 * s**2)
                 + h * d1 * (3 * s**2 - 2 * s)) / h
        assert got[k] == pytest.approx(want, rel=1e-13, abs=1e-13)
        assert dgot[k] == pytest.approx(dwant, rel=1e-13, abs=1e-13)
        assert sol(x) == got[k] and sol.derivative(x) == dgot[k]
        assert type(sol(x)) is float and type(sol.derivative(x)) is float
    assert np.array_equal(sol(prob.grid), vals) and np.array_equal(sol.derivative(prob.grid), ders)


def test_theta_lambda_zero_is_linear():
    prob = dirichlet_problem()
    sol = solve_theta(prob, 0.0, 2.0, 3.0)
    for x in (0.0, 0.31, 1.0):
        assert sol(x) == pytest.approx(2.0 + 3.0 * x, abs=1e-13)


def test_theta_variable_coefficients_fine_grid_reference():
    # reference = same scheme on a 10x finer grid; order measured on coarse
    # grids where truncation still dominates roundoff
    p = lambda x: 1.0 + x
    q = lambda x: x
    fine = SLProblem(p, q, ONE, 1.0, NEUMANN, NEUMANN, grid_size=40960)
    v_fine = solve_theta(fine, 3.0, 1.0, 0.0).end_value
    default = SLProblem(p, q, ONE, 1.0, NEUMANN, NEUMANN, grid_size=4096)
    v_default = solve_theta(default, 3.0, 1.0, 0.0).end_value
    assert abs(v_default - v_fine) <= 1e-7 * abs(v_fine)
    errs = []
    for grid in (128, 256):
        prob = SLProblem(p, q, ONE, 1.0, NEUMANN, NEUMANN, grid_size=grid)
        errs.append(abs(solve_theta(prob, 3.0, 1.0, 0.0).end_value - v_fine))
    order = math.log2(errs[0] / errs[1])
    assert order > 3.5


def test_theta_picard_matches_rk4():
    p = lambda x: 1.0 + 0.5 * math.sin(x)
    q = lambda x: 0.3 * x
    rho = lambda x: 1.0 + 0.2 * x * x
    prob = SLProblem(p, q, rho, 1.0, BoundaryCondition.robin(0.7), DIRICHLET)
    for lam in (-2.0, 0.0, 7.3):
        a = solve_theta(prob, lam, 1.0, 0.7)
        b = solve_theta(prob, lam, 1.0, 0.7, method="picard")
        assert a.end_value == pytest.approx(b.end_value, rel=1e-9, abs=1e-11)
        assert a.end_derivative == pytest.approx(b.end_derivative, rel=1e-8, abs=1e-10)


def test_coefficient_bounds_are_a_copy():
    prob = SLProblem(lambda x: 1.0 + x, lambda x: x, ONE, 1.0, NEUMANN, NEUMANN, grid_size=64)
    bnd = prob.coefficient_bounds()
    assert bnd == {"p_min": 1.0, "p_max": 2.0, "q_min": 0.0, "q_max": 1.0, "rho_min": 1.0, "rho_max": 1.0}
    bnd["p_min"] = -1.0
    assert prob.coefficient_bounds()["p_min"] == 1.0


def test_theta_growth_bound():
    # |theta| <= (|a| + (pM/pm)|b| l) cosh(sqrt((|lam| rhoM + qM)/pm) x)
    p = lambda x: 1.0 + 0.5 * x
    q = lambda x: 0.4 + 0.1 * x
    rho = lambda x: 1.0 + 0.3 * math.sin(3 * x)
    prob = SLProblem(p, q, rho, 1.0, NEUMANN, NEUMANN)
    bnd = prob.coefficient_bounds()
    a, b = 0.7, -1.3
    for lam in (-9.0, -1.0, 2.0):
        sol = solve_theta(prob, lam, a, b)
        pref = abs(a) + bnd["p_max"] / bnd["p_min"] * abs(b) * prob.l
        rate = math.sqrt((abs(lam) * bnd["rho_max"] + bnd["q_max"]) / bnd["p_min"])
        for x in np.linspace(0.0, 1.0, 21):
            assert abs(sol(float(x))) <= pref * math.cosh(rate * float(x)) + 1e-9


def rk4_step_loop(prob, lam, a, b):
    """Reference: the RK4 scheme stepped node by node on (theta, p theta')."""
    h = prob.h_step
    p, q, rho = prob._p, prob._q, prob._rho
    g = q - lam * rho
    y = np.array([a, p[0] * b])
    out = [y]
    for i in range(prob.n):
        a0 = np.array([[0.0, 1.0 / p[2 * i]], [g[2 * i], 0.0]])
        am = np.array([[0.0, 1.0 / p[2 * i + 1]], [g[2 * i + 1], 0.0]])
        a1 = np.array([[0.0, 1.0 / p[2 * i + 2]], [g[2 * i + 2], 0.0]])
        k1 = a0 @ y
        k2 = am @ (y + 0.5 * h * k1)
        k3 = am @ (y + 0.5 * h * k2)
        k4 = a1 @ (y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    out = np.array(out)
    return out[:, 0], out[:, 1] / p[::2]


def test_propagator_matches_step_loop():
    # the step-matrix products regroup the loop's arithmetic, so values agree
    # to rounding that grows with the number of steps
    p = lambda x: 1.0 + 0.4 * math.sin(2.0 * x + 0.3)
    q = lambda x: 0.3 * (1.0 + math.sin(3.0 * x))
    rho = lambda x: 1.0 + 0.5 * math.cos(1.5 * x) ** 2
    for grid in (16, 250, 1030):
        for left, right in [(DIRICHLET, DIRICHLET), (BoundaryCondition.robin(0.7), NEUMANN)]:
            prob = SLProblem(p, q, rho, 1.3, left, right, grid_size=grid)
            a, b = prob.left_initial_data()
            lams = [-30.0, 0.0, 5.0, 120.0]
            many = characteristic_many(prob, lams)
            for lam, m_many in zip(lams, many):
                vals, ders = rk4_step_loop(prob, lam, a, b)
                sol = solve_theta(prob, lam, a, b)
                tol = 16 * grid * np.finfo(float).eps * max(np.abs(vals).max(), np.abs(ders).max())
                assert np.abs(sol.values - vals).max() <= tol
                assert np.abs(sol.derivs - ders).max() <= tol
                m_ref = vals[-1] if right.dirichlet else ders[-1] + right.h * vals[-1]
                assert abs(characteristic(prob, lam) - m_ref) <= tol
                assert abs(m_many - m_ref) <= tol


BLOCK_COEFFS = {
    # variable coefficients like the benchmark's, and a stiffness ratio
    # p_max/p_min = 49 with rho_max/rho_min = 1.5 (kappa near 50)
    "mild": (
        lambda x: 1.0 + 0.4 * math.sin(2.0 * x + 0.3),
        lambda x: 0.3 * (1.0 + math.sin(3.0 * x)),
        lambda x: 1.0 + 0.5 * math.cos(1.5 * x) ** 2,
    ),
    "kappa50": (
        lambda x: 1.0 + 48.0 * x * x,
        lambda x: 0.2 * x,
        lambda x: 1.0 + 0.5 * math.sin(2.0 * x),
    ),
}


END_PAIRS = [(True, True), (True, False), (False, True), (False, False)]


def level_lams(prob):
    """Lambdas across the range of every block level, ending at its bound."""
    out = []
    for _, top in prob._block_lams:
        assert top > 0.0
        out.extend(top * np.array([-1.0, -0.3, -1e-3, 0.0, 1e-3, 0.05, 0.2, 0.45, 0.7, 0.9, 1.0]))
    return out


def assert_blocked_paths_match_steps(prob, lams):
    """characteristic and characteristic_many agree with the per-step node
    values of solve_theta to 1e-12 of the solution's size, and node_count
    with their sign changes."""
    many = characteristic_many(prob, lams)
    a, b = prob.left_initial_data()
    for lam, m_many in zip(lams, many):
        sol = solve_theta(prob, float(lam), a, b)
        w = prob._p[::2] * sol.derivs
        scale = max(1.0, np.abs(sol.values).max(), np.abs(w).max())
        right = prob.right
        m_ref = sol.values[-1] if right.dirichlet else sol.derivs[-1] + right.h * sol.values[-1]
        assert abs(m_many - m_ref) <= 1e-12 * scale
        assert abs(characteristic(prob, float(lam)) - m_ref) <= 1e-12 * scale
        assert node_count(prob, float(lam)) == int(np.sum(np.signbit(sol.values[1:]) != np.signbit(sol.values[:-1])))


@pytest.mark.parametrize("grid", [16, 18, 30, 64, 4096])
@pytest.mark.parametrize("coeffs", sorted(BLOCK_COEFFS))
def test_blocked_propagator_matches_step_path(grid, coeffs):
    """Up to each block level's bound the scans and the count run on products
    of 2**L steps (identity-padded when 2**L does not divide the grid)."""
    p, q, rho = BLOCK_COEFFS[coeffs]
    for ends in END_PAIRS:
        left = DIRICHLET if ends[0] else BoundaryCondition.robin(0.8)
        right = DIRICHLET if ends[1] else BoundaryCondition.robin(1.7)
        prob = SLProblem(p, q, rho, 1.0, left, right, grid_size=grid)
        assert_blocked_paths_match_steps(prob, level_lams(prob))


@settings(max_examples=25, deadline=None)
@given(
    half_grid=st.integers(min_value=8, max_value=2048),
    ends=st.sampled_from(END_PAIRS),
    coeffs=st.sampled_from(sorted(BLOCK_COEFFS)),
)
def test_every_block_level_matches_step_path(half_grid, ends, coeffs):
    """At each level's bound, on grids of 16 to 4096 steps that need not be
    multiples of any block."""
    p, q, rho = BLOCK_COEFFS[coeffs]
    left = DIRICHLET if ends[0] else BoundaryCondition.robin(0.8)
    right = DIRICHLET if ends[1] else BoundaryCondition.robin(1.7)
    prob = SLProblem(p, q, rho, 1.0, left, right, grid_size=2 * half_grid)
    levels = [lv for lv, _ in prob._block_lams]
    assert levels == [lv for lv in (8, 7, 6, 5, 4) if 2**lv <= prob.n]
    tops = [top for _, top in prob._block_lams]
    assert_blocked_paths_match_steps(prob, tops + [-t for t in tops])


def test_block_levels_fit_the_grid_and_admit_some_lambda():
    """No block is longer than the grid, and a level whose bound is negative
    (q_max/rho_max above its unit) is not built."""
    for grid, levels in ((16, [4]), (30, [4]), (200, [7, 6, 5, 4]), (300, [8, 7, 6, 5, 4])):
        prob = SLProblem(ONE, ZERO, ONE, 1.0, DIRICHLET, DIRICHLET, grid_size=grid)
        assert [lv for lv, _ in prob._block_lams] == levels
        assert sorted(prob._coeffs) == [0] + levels[::-1]
    # unit at level L is (4096 / 2**L)**2: a q of 5000 leaves levels 4 and 5
    prob = SLProblem(ONE, lambda x: 5000.0, ONE, 1.0, DIRICHLET, DIRICHLET)
    assert [lv for lv, _ in prob._block_lams] == [5, 4]
    assert prob._block_lams[0][1] == pytest.approx(128.0**2 - 5000.0)
    stiff = SLProblem(ONE, lambda x: 1e5, ONE, 1.0, DIRICHLET, DIRICHLET)
    assert stiff._block_lams == ()
    assert characteristic(stiff, 10.0) == pytest.approx(float(characteristic_many(stiff, [10.0])[0]), rel=1e-12)


def full_block_tables(prob):
    """Reference: the block doubling of the step table at full degree (no
    truncation), one degree of the later block at a time."""
    step = prob._coeffs[0][0]
    b = prob.coefficient_bounds()
    unit = b["p_min"] / (b["rho_max"] * prob.h_step**2)
    c = (step * unit ** np.arange(3)[:, None]).reshape(3, 2, 2, prob.n)  # (degree, 2, 2, blocks)
    tables = {}
    for level in range(1, max(prob._coeffs) + 1):
        if c.shape[-1] % 2:
            eye = np.zeros(c.shape[:3] + (1,))
            eye[0, 0, 0] = eye[0, 1, 1] = 1.0
            c = np.concatenate([c, eye], axis=-1)
        later, earlier = c[..., 1::2], c[..., 0::2]
        d = len(c)
        c = np.zeros((2 * d - 1,) + later.shape[1:])
        for i in range(d):
            c[i : i + d] += np.einsum("ijn,ajkn->aikn", later[i], earlier)
        c *= 0.25 ** np.arange(2 * d - 1)[:, None, None, None]
        if level in prob._coeffs:
            tables[level] = c
    return tables


@pytest.mark.parametrize("coeffs", sorted(BLOCK_COEFFS))
def test_truncated_block_tables_match_full_degree(coeffs):
    """Each level's table, cut by the tail bound, agrees with the full-degree
    product to 2**-50 of each entry's size, over the level's whole range of
    lambda and, with the degrees _transfer keeps, at smaller |lambda|."""
    p, q, rho = BLOCK_COEFFS[coeffs]
    prob = SLProblem(p, q, rho, 1.0, DIRICHLET, DIRICHLET, grid_size=300)
    full = full_block_tables(prob)
    assert sorted(full) == [4, 5, 6, 7, 8]
    for level, ref in full.items():
        table, unit, cuts = prob._coeffs[level]
        assert len(table) == 2 + len(cuts) < 16
        blocks = table.reshape(len(table), 2, 2, -1)
        top = dict(prob._block_lams)[level] / unit
        assert 0.5 < top < 1.0
        for r in (top, 0.5 * top, 1e-3 * top):
            z = np.linspace(-r, r, 41)
            want = np.polynomial.polynomial.polyval(z, ref)  # (2, 2, blocks, z)
            kept = blocks[: 2 + bisect_left(cuts, r)]
            got = np.polynomial.polynomial.polyval(z, kept)
            size = np.abs(want).max(axis=(2, 3), keepdims=True)
            assert np.all(np.abs(got - want) <= 2.0**-50 * size)


def test_block_bound_selects_the_path(monkeypatch):
    """A lambda at a level's bound goes through that level; the next float
    above it through the next finer level, or the step matrices above the
    finest, in the scan, the characteristic and the count."""
    p, q, rho = BLOCK_COEFFS["mild"]
    prob = SLProblem(p, q, rho, 1.0, BoundaryCondition.robin(0.8), DIRICHLET, grid_size=4096)
    bnd = prob.coefficient_bounds()
    levels = []
    transfer = sturm._transfer

    def spy(problem, lams, lv, *args, **kwargs):
        levels.append((lv, list(lams)))
        return transfer(problem, lams, lv, *args, **kwargs)

    monkeypatch.setattr(sturm, "_transfer", spy)
    assert [lv for lv, _ in prob._block_lams] == [8, 7, 6, 5, 4]
    finer = [7, 6, 5, 4, 0]
    for (level, top), next_level in zip(prob._block_lams, finer):
        above = math.nextafter(top, math.inf)
        bound = 2**level * prob.h_step * math.sqrt((bnd["q_max"] + top * bnd["rho_max"]) / bnd["p_min"])
        assert bound == pytest.approx(1.0, rel=1e-15)
        for lam in (top, -top):
            levels.clear()
            characteristic_many(prob, [above, lam])
            assert sorted(levels) == sorted([(next_level, [above]), (level, [lam])])
        levels.clear()
        characteristic(prob, top)
        characteristic(prob, above)
        node_count(prob, top)
        node_count(prob, above)
        assert levels == [(level, [top]), (next_level, [above])] * 2


def constant_coefficient_solution(pc, qc, rc, lam, a, b, x):
    """u, u' and the wavenumber of -pc u'' + qc u = lam rc u, u(0) = a, u'(0) = b."""
    k2 = (lam * rc - qc) / pc
    if k2 >= 0.0:
        k = math.sqrt(k2)
        return a * np.cos(k * x) + b * x * np.sinc(k * x / math.pi), -a * k * np.sin(k * x) + b * np.cos(k * x), k
    k = math.sqrt(-k2)
    return a * np.cosh(k * x) + b * np.sinh(k * x) / k, a * k * np.sinh(k * x) + b * np.cosh(k * x), k


@settings(max_examples=60, deadline=None)
@given(
    half_grid=st.integers(min_value=8, max_value=2048),
    ends=st.sampled_from(END_PAIRS),
    h_left=st.floats(min_value=0.0, max_value=5.0),
    h_right=st.floats(min_value=0.0, max_value=5.0),
    pc=st.floats(min_value=0.5, max_value=2.0),
    qc=st.floats(min_value=0.0, max_value=3.0),
    rc=st.floats(min_value=0.5, max_value=2.0),
    l=st.floats(min_value=0.5, max_value=2.0),
    s=st.floats(min_value=-1.0, max_value=1.0),
)
def test_propagator_constant_coefficients_closed_form(half_grid, ends, h_left, h_right, pc, qc, rc, l, s):
    left = DIRICHLET if ends[0] else BoundaryCondition.robin(h_left)
    right = DIRICHLET if ends[1] else BoundaryCondition.robin(h_right)
    prob = SLProblem(lambda x: pc, lambda x: qc, lambda x: rc, l, left, right, grid_size=2 * half_grid)
    h = prob.h_step
    # h k up to 0.5 on the oscillatory side, growth up to exp(15) on the other
    k2 = s * (0.5 / h) ** 2 if s >= 0.0 else s * (15.0 / l) ** 2
    lam = (k2 * pc + qc) / rc
    a, b = prob.left_initial_data()
    u, du, k = constant_coefficient_solution(pc, qc, rc, lam, a, b, prob.grid)
    # RK4 advances each step by the degree-4 Taylor polynomial of the exact
    # propagator: an error of at most (h k)^5/120 per step in the norm that
    # the exact solution keeps, hence k l (h k)^4/120 over the interval
    amp = (abs(a) + abs(b) * (l if k * l <= 1.0 else 1.0 / k)) * (math.cosh(k * l) if k2 < 0.0 else 1.0)
    trunc = 1.25 * k * l * (h * k) ** 4 / 120.0
    roundoff = 16 * prob.n * np.finfo(float).eps
    sol = solve_theta(prob, lam, a, b)
    assert np.abs(sol.values - u).max() <= (trunc + roundoff) * amp
    m_exact = u[-1] if right.dirichlet else du[-1] + right.h * u[-1]
    m_scale = (k + 1.0 + (0.0 if right.dirichlet else right.h)) * amp
    m_rk4 = characteristic(prob, lam)
    assert abs(m_rk4 - m_exact) <= (trunc + roundoff) * m_scale
    if abs(lam) <= 40.0 and prob.n <= 1024:
        # the Volterra route carries its own O(h^4) Simpson bias
        pic = solve_theta(prob, lam, a, b, method="picard")
        m_picard = pic.values[-1] if right.dirichlet else pic.derivs[-1] + right.h * pic.values[-1]
        assert abs(m_picard - m_rk4) <= (trunc + 0.125 * (h * k) ** 4 * (1.0 + k * l) + roundoff + 1e-11) * m_scale


def test_theta_rejects_nonfinite_lambda():
    with pytest.raises(ValueError):
        solve_theta(dirichlet_problem(grid=256), math.inf, 0.0, 1.0)


# ----------------------------------------------------------------------
# Characteristic function
# ----------------------------------------------------------------------

def test_characteristic_free_ends_constant():
    prob = SLProblem(ONE, ZERO, ONE, 1.0, NEUMANN, NEUMANN, grid_size=1024)
    lam = math.pi**2
    # m(lam) = -sqrt(lam) sin(sqrt(lam) l) vanishes at lam = pi^2/l^2
    assert abs(characteristic(prob, lam)) < 1e-9
    assert characteristic(prob, 0.5 * lam) == pytest.approx(
        -math.sqrt(0.5 * lam) * math.sin(math.sqrt(0.5 * lam)), abs=1e-10
    )


def test_characteristic_dirichlet_zeros():
    prob = dirichlet_problem(grid=1024)
    for n in (1, 2, 3):
        assert abs(characteristic(prob, math.pi**2 * n**2)) < 1e-8
        assert abs(characteristic(prob, math.pi**2 * (n + 0.45) ** 2)) > 1e-3


def robin_xi_oracle(eta1, eta2, count):
    """Dense-scan oracle on the dimensionless characteristic
    (eta1+eta2) cos(xi) - (xi - eta1 eta2/xi) sin(xi)."""

    def f(xi):
        return (eta1 + eta2) * math.cos(xi) - (xi - eta1 * eta2 / xi) * math.sin(xi)

    roots = []
    gen = scan_brackets(f, 1e-6, 0.01)
    while len(roots) < count:
        a, b = next(gen)
        roots.append(refine_root(f, a, b, ftol=1e-13))
    return roots


def test_characteristic_robin_smallest_zero_matches_oracle():
    prob = SLProblem(
        ONE, ZERO, ONE, 1.0, BoundaryCondition.robin(1.0), BoundaryCondition.robin(1.0)
    )
    xi1 = robin_xi_oracle(1.0, 1.0, 1)[0]
    lam1 = xi1 * xi1
    assert abs(characteristic(prob, lam1)) < 1e-8
    basis = eigen_solve(prob, 1)
    assert basis.eigenvalues[0] == pytest.approx(lam1, rel=1e-9)


# ----------------------------------------------------------------------
# Node counts
# ----------------------------------------------------------------------

def test_node_count_nonpositive_lambda():
    prob = SLProblem(ONE, lambda x: 0.2, ONE, 1.0, NEUMANN, DIRICHLET, grid_size=512)
    for lam in (-25.0, -1.0, 0.0):
        assert node_count(prob, lam) == 0


def test_node_count_constant_dirichlet():
    prob = dirichlet_problem(grid=2048)
    for k in (1, 2, 3, 5):
        lam = (k * math.pi) ** 2 + 1e-3
        assert node_count(prob, lam) == k
        assert node_count(prob, (k * math.pi) ** 2 - 1e-3) == k - 1


def test_node_count_rejects_underresolved_lambda():
    prob = dirichlet_problem(grid=64)
    assert node_count(prob, (19.5 * math.pi) ** 2) == 19
    with pytest.raises(ResolutionError):
        node_count(prob, 64.5**2)


def test_resolution_error_fires_at_its_stated_bound():
    """h sqrt(lam rho_max/p_min) = 1 is the last resolved lambda, for
    node_count and for the highest lambda eigen_solve's search evaluates."""
    p = lambda x: 1.0 + 0.5 * x
    rho = lambda x: 1.0 + 0.3 * x
    prob = SLProblem(p, ZERO, rho, 1.0, DIRICHLET, NEUMANN, grid_size=64)
    bnd = prob.coefficient_bounds()
    edge = bnd["p_min"] / (prob.h_step**2 * bnd["rho_max"])
    assert node_count(prob, edge * (1.0 - 1e-9) ** 2) >= 0
    with pytest.raises(ResolutionError):
        node_count(prob, edge * (1.0 + 1e-9) ** 2)
    # the top of eigen_solve's widened window, hi (1 + 1e-3) + 1e-6 with
    # hi = pi^2 n^2 + q for p = rho = l = 1, lies above the bound when mode 5
    # lies just under it; the search is capped at the bound, so mode 5 is
    # solved, and one just over the bound is refused, naming the count
    n, grid = 5, 64
    for side in (-1.0, 1.0):
        qc = grid**2 * (1.0 + side * 1e-4) - (n * math.pi) ** 2
        stiff = SLProblem(ONE, lambda x: qc, ONE, 1.0, DIRICHLET, DIRICHLET, grid_size=grid)
        if side < 0:
            lam = eigen_solve(stiff, n).eigenvalues[-1]
            assert lam == pytest.approx((n * math.pi) ** 2 + qc, rel=1e-5)
        else:
            with pytest.raises(ResolutionError, match=f"eigenvalue {n}: .* below which lie {n - 1} eigenvalues"):
                eigen_solve(stiff, n)


@pytest.mark.parametrize("grid, resolved", [(64, 7), (256, 28)])
def test_eigen_solve_reaches_every_eigenvalue_the_grid_resolves(grid, resolved):
    """A stiff p (p_max/p_min = 49) puts the top of the spectral window far
    above lambda_n, and above the resolution bound for eigenvalues below it
    (at 64 steps from n = 3 on); eigen_solve still solves every eigenvalue
    below the bound and raises, naming their count, only for the next one."""
    p, q, rho = BLOCK_COEFFS["kappa50"]
    prob = SLProblem(p, q, rho, 1.0, DIRICHLET, DIRICHLET, grid_size=grid)
    bnd = prob.coefficient_bounds()
    edge = bnd["p_min"] / (prob.h_step**2 * bnd["rho_max"])
    assert prob.eigenvalue_window(resolved)[1] > edge
    basis = eigen_solve(prob, resolved)
    fine = eigen_solve(SLProblem(p, q, rho, 1.0, DIRICHLET, DIRICHLET), resolved + 1).eigenvalues
    assert basis.node_counts == list(range(resolved))
    assert basis.eigenvalues == pytest.approx(fine[:resolved], rel=2e-3)
    assert basis.eigenvalues[-1] <= edge < fine[-1]
    with pytest.raises(ResolutionError, match=f"eigenvalue {resolved + 1}: .* below which lie {resolved} eigenvalues"):
        eigen_solve(prob, resolved + 1)


@pytest.mark.parametrize(
    "coeffs, grid, n_max",
    [("mild", 16, 3), ("mild", 64, 5), ("mild", 256, 8), ("mild", 4096, 8),
     ("kappa50", 64, 2), ("kappa50", 256, 8), ("kappa50", 4096, 8)],
)
def test_count_brackets_every_eigenvalue(coeffs, grid, n_max):
    """The count of eigenvalues below lambda is n - 1 just under the n-th
    eigenvalue and n just over it, at every pair of Dirichlet, Neumann and
    Robin ends: the zeros alone for a Dirichlet right end, plus the
    m(lam) theta(l) < 0 rule for the others."""
    p, q, rho = BLOCK_COEFFS[coeffs]
    ends = [DIRICHLET, NEUMANN, BoundaryCondition.robin(0.7), BoundaryCondition.robin(25.0)]
    for left in ends:
        for right in ends:
            prob = SLProblem(p, q, rho, 1.0, left, right, grid_size=grid)
            for n, lam in enumerate(eigen_solve(prob, n_max).eigenvalues, start=1):
                step = 1e-9 * abs(lam)
                assert sturm._count(prob, lam - step)[1] == n - 1
                assert sturm._count(prob, lam + step)[1] == n


@pytest.mark.parametrize("coeffs", sorted(BLOCK_COEFFS))
def test_characteristic_many_equals_characteristic_bit_for_bit(coeffs):
    """Each value of a batch is the one-lambda value, whatever else the batch
    holds: shuffled sub-batches of lambdas on both sides of every level's
    bound and of every degree cut within a level."""
    p, q, rho = BLOCK_COEFFS[coeffs]
    rng = np.random.default_rng(25)
    for grid in (30, 300, 4096):
        prob = SLProblem(p, q, rho, 1.0, BoundaryCondition.robin(0.8), NEUMANN, grid_size=grid)
        tops = [top for _, top in prob._block_lams]
        cuts = [r * prob._coeffs[lv][1] for lv, _ in prob._block_lams for r in prob._coeffs[lv][2]]
        lams = np.concatenate([
            level_lams(prob),
            [math.nextafter(top, math.inf) for top in tops],
            np.outer(cuts, [-1.001, -0.999, 0.999, 1.001]).ravel(),
            rng.uniform(-2.0, 2.0, 20) * tops[-1],
        ])
        one = {lam: characteristic(prob, lam).hex() for lam in lams.tolist()}
        for size in (2, 3, 7, len(lams)):
            for _ in range(4):
                batch = rng.permutation(lams)[:size]
                assert [v.hex() for v in characteristic_many(prob, batch).tolist()] == [one[x] for x in batch.tolist()]


def test_eigenvalues_do_not_depend_on_how_many_are_solved():
    """Every eigenvalue takes its own path in the lockstep solve, so the
    first k of n_max eigenpairs are the eigen_solve(prob, k) ones."""
    p, q, rho = BLOCK_COEFFS["mild"]
    for left, right in ((DIRICHLET, BoundaryCondition.robin(0.7)), (NEUMANN, DIRICHLET)):
        prob = SLProblem(p, q, rho, 1.0, left, right, grid_size=1024)
        full = eigen_solve(prob, 10)
        for k in range(1, 11):
            part = eigen_solve(prob, k)
            assert part.eigenvalues == full.eigenvalues[:k]
            assert part.norm_constants == full.norm_constants[:k]
            assert part.node_counts == full.node_counts[:k]


def isolate_alone(prob, n):
    """The n-th eigenvalue's count bracket, each count a one-lambda call."""
    lo, hi = prob.eigenvalue_window(n)
    lo -= 1e-6 + 1e-3 * abs(lo)
    hi += 1e-6 + 1e-3 * abs(hi)
    isolate = sturm._isolate(prob, n, lo, hi, sturm._resolved_top(prob))
    points = next(isolate)
    try:
        while True:
            points = isolate.send([sturm._count(prob, x)[1] for x in points])
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize("grid", [16, 30, 64, 256, 4096])
@pytest.mark.parametrize("coeffs", sorted(BLOCK_COEFFS))
def test_lockstep_solve_equals_one_eigenvalue_at_a_time(coeffs, grid):
    """Each eigenvalue equals refine_root on the scalar characteristic from
    its bracket isolated with one-lambda counts, and each norm constant the
    one of its own solve_theta, bit for bit, at every pair of Dirichlet,
    Neumann and Robin ends."""
    p, q, rho = BLOCK_COEFFS[coeffs]
    ends = [DIRICHLET, NEUMANN, BoundaryCondition.robin(0.7), BoundaryCondition.robin(25.0)]
    for left in ends:
        for right in ends:
            prob = SLProblem(p, q, rho, 1.0, left, right, grid_size=grid)
            n_max = min(6, sturm._count(prob, sturm._resolved_top(prob))[1])
            basis = eigen_solve(prob, n_max)
            a, b = prob.left_initial_data()
            for n in range(1, n_max + 1):
                lam = refine_root(lambda t: characteristic(prob, t), *isolate_alone(prob, n), ftol=0.0)
                values = solve_theta(prob, lam, a, b).values
                norm = 1.0 / math.sqrt(composite_simpson(prob._rho[::2] * values**2, prob.h_step))
                assert basis.eigenvalues[n - 1] == lam
                assert basis.norm_constants[n - 1] == norm


def test_lockstep_keeps_each_coroutines_exception_as_its_result():
    """A coroutine that raises stops there with its exception as its result,
    while the others go on; every round is one evaluate call."""

    def walk(steps, fail):
        x = 0.0
        for _ in range(steps):
            (x,) = yield (x + 1.0,)
        if fail:
            raise ValueError(f"failed at {x}")
        return x

    calls = []
    evaluate = lambda xs: calls.append(list(xs)) or [2.0 * x for x in xs]
    results = lockstep([walk(3, False), walk(1, True), walk(2, False), walk(0, True)], evaluate)
    assert results[0] == 14.0 and results[2] == 6.0
    assert [str(r) for r in results[1::2]] == ["failed at 2.0", "failed at 0.0"]
    assert all(isinstance(r, ValueError) for r in results[1::2])
    assert calls == [[1.0, 1.0, 1.0], [3.0, 3.0], [7.0]]
    assert lockstep([], evaluate) == [] and len(calls) == 3


def test_the_lowest_failing_eigenvalue_decides_the_error(monkeypatch):
    """When several eigenvalues fail, eigen_solve raises the first error of
    the lowest one, as solving them one at a time in order would: at 64
    steps kappa50 resolves 7 eigenvalues, so 8 to 10 are refused, naming 8;
    with every certificate failing, eigenvalue 1's BracketingError comes
    first although the refusals happen earlier in the lockstep solve."""
    p, q, rho = BLOCK_COEFFS["kappa50"]
    prob = SLProblem(p, q, rho, 1.0, DIRICHLET, DIRICHLET, grid_size=64)
    with pytest.raises(ResolutionError, match="eigenvalue 8: .* below which lie 7 eigenvalues"):
        eigen_solve(prob, 10)
    monkeypatch.setattr(sturm, "_M_TOL", -1.0)
    with pytest.raises(sturm.BracketingError, match="at eigenvalue 1 "):
        eigen_solve(prob, 10)


def test_node_count_monotone():
    p = lambda x: 1.0 + 0.3 * x
    q = lambda x: 0.5 * x
    rho = lambda x: 1.0 + 0.1 * math.cos(2 * x)
    prob = SLProblem(p, q, rho, 1.0, BoundaryCondition.robin(0.5), DIRICHLET, grid_size=1024)
    lams = np.linspace(-5.0, 300.0, 100)
    counts = [node_count(prob, float(l)) for l in lams]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[0] == 0
    assert counts[-1] >= 4


# ----------------------------------------------------------------------
# Eigen solve
# ----------------------------------------------------------------------

def test_eigen_solve_dirichlet_constant():
    prob = dirichlet_problem()
    basis = eigen_solve(prob, 4)
    for n, lam in enumerate(basis.eigenvalues, start=1):
        assert lam == pytest.approx(math.pi**2 * n**2, rel=1e-10)
    xn = basis.eigenfunction(2)
    for x in (0.1, 0.33, 0.8):
        assert xn(x) == pytest.approx(math.sqrt(2.0) * math.sin(2 * math.pi * x), abs=1e-9)
    assert basis.node_counts == [0, 1, 2, 3]


def test_eigen_solve_window_bounds():
    p = lambda x: 1.0 + 0.4 * math.sin(2 * x)
    q = lambda x: 0.7 * x * x
    rho = lambda x: 1.2 + 0.3 * x
    prob = SLProblem(p, q, rho, 1.3, BoundaryCondition.robin(0.9), BoundaryCondition.robin(2.0))
    basis = eigen_solve(prob, 4)
    for n, lam in enumerate(basis.eigenvalues, start=1):
        lo, hi = prob.eigenvalue_window(n)
        assert lo - 1e-9 <= lam <= hi + 1e-9
        assert lam >= 0.0


def test_eigen_solve_robin_against_closed_form():
    prob = SLProblem(
        ONE, ZERO, ONE, 1.0, BoundaryCondition.robin(1.0), BoundaryCondition.robin(1.0)
    )
    basis = eigen_solve(prob, 3)
    xis = robin_xi_oracle(1.0, 1.0, 3)
    for lam, xi in zip(basis.eigenvalues, xis):
        assert lam == pytest.approx(xi * xi, rel=1e-8)
    # norm constants against the closed-form normalizer (elementary
    # antiderivative of the cos + (h1/k) sin shape) and direct quadrature
    from spectralbvp.intervals import robin_norm_constant

    for n, xi in enumerate(xis, start=1):
        c_closed = robin_norm_constant(1.0, 1.0, xi)
        shape = lambda x: math.cos(xi * x) + (1.0 / xi) * math.sin(xi * x)
        xn = basis.eigenfunction(n)
        for x in (0.0, 0.37, 0.9):
            assert xn(x) == pytest.approx(c_closed * shape(x), rel=1e-7, abs=1e-9)


def test_eigenbasis_orthonormality_and_nodes():
    p = lambda x: 1.0 + 0.2 * x
    q = lambda x: 0.3 + 0.4 * x
    rho = lambda x: 1.0 + 0.25 * math.sin(3.0 * x)
    prob = SLProblem(p, q, rho, 1.0, BoundaryCondition.robin(0.4), BoundaryCondition.robin(1.5))
    basis = eigen_solve(prob, 4)
    xs = prob.grid
    rho_vals = np.array([rho(float(x)) for x in xs])
    funcs = [np.array([basis.eigenfunction(n)(float(x)) for x in xs]) for n in range(1, 5)]
    h = prob.h_step
    for i in range(4):
        for j in range(4):
            val = composite_simpson(rho_vals * funcs[i] * funcs[j], h)
            want = 1.0 if i == j else 0.0
            assert abs(val - want) < 1e-8
    # exactly n-1 sign changes on a 2048-point interior grid
    grid = np.linspace(0.0, 1.0, 2048)[1:-1]
    for n in range(1, 5):
        vals = np.array([basis.eigenfunction(n)(float(x)) for x in grid])
        changes = int(np.sum(np.signbit(vals[1:]) != np.signbit(vals[:-1])))
        assert changes == n - 1
    assert basis.node_counts == [0, 1, 2, 3]


@pytest.mark.parametrize("grid", [64, 128, 4096])
def test_node_counts_at_every_grid(grid):
    prob = dirichlet_problem(grid=grid)
    basis = eigen_solve(prob, 12)
    assert basis.node_counts == list(range(12))
    inner = np.linspace(0.0, 1.0, 4001)[1:-1]
    for n in range(1, 13):
        vals = basis.eigenfunction(n)(inner)
        assert int(np.sum(np.signbit(vals[1:]) != np.signbit(vals[:-1]))) == n - 1


def test_eigen_solve_underresolved_grid_raises_resolution_error():
    with pytest.raises(ResolutionError):
        eigen_solve(dirichlet_problem(grid=64), 29)


def test_eigenvalues_are_python_floats():
    prob = SLProblem(ONE, lambda x: 0.3 * x, ONE, 1.0, BoundaryCondition.robin(0.5), DIRICHLET, grid_size=256)
    basis = eigen_solve(prob, 3)
    assert all(type(lam) is float for lam in basis.eigenvalues)
    assert all(type(c) is float for c in basis.norm_constants)


def test_monotonicity_under_stiffening_and_loading():
    # raising q or the end stiffness raises eigenvalues; raising rho lowers them
    base = SLProblem(ONE, lambda x: 0.5, ONE, 1.0, BoundaryCondition.robin(0.5), BoundaryCondition.robin(0.5))
    stiffer = SLProblem(
        ONE, lambda x: 0.5 + 0.8 * x, ONE, 1.0, BoundaryCondition.robin(1.5), BoundaryCondition.robin(2.5)
    )
    heavier = SLProblem(
        ONE, lambda x: 0.5, lambda x: 1.0 + 0.7 * x, 1.0,
        BoundaryCondition.robin(0.5), BoundaryCondition.robin(0.5),
    )
    eb = eigen_solve(base, 4).eigenvalues
    es = eigen_solve(stiffer, 4).eigenvalues
    eh = eigen_solve(heavier, 4).eigenvalues
    for lb, ls, lh in zip(eb, es, eh):
        assert ls >= lb - 1e-10
        assert lh <= lb + 1e-10


def test_positive_spectrum_unless_fully_free():
    free = SLProblem(ONE, ZERO, ONE, 1.0, NEUMANN, NEUMANN)
    lam1 = eigen_solve(free, 1).eigenvalues[0]
    assert abs(lam1) < 1e-9  # constant mode
    pinned = SLProblem(ONE, ZERO, ONE, 1.0, BoundaryCondition.robin(0.3), NEUMANN)
    assert eigen_solve(pinned, 1).eigenvalues[0] > 1e-3


def test_parseval_completeness_proxy():
    prob = dirichlet_problem(grid=1024)
    basis = eigen_solve(prob, 50)
    f = lambda x: x * (1.0 - x)
    total = sum(basis.coefficient(f, n) ** 2 for n in range(1, 51))
    xs = prob.grid
    fv = np.array([f(float(x)) for x in xs])
    exact = composite_simpson(fv * fv, prob.h_step)
    assert abs(total - exact) <= 1e-4


# ----------------------------------------------------------------------
# Closed-form helpers
# ----------------------------------------------------------------------

def test_const_coeff_eigen():
    assert const_coeff_eigen(1.0, 0.0, 1.0, 0.0, 1.0, 3) == pytest.approx(
        [math.pi**2, 4 * math.pi**2, 9 * math.pi**2]
    )
    got = const_coeff_eigen(2.0, 3.0, 1.0, 0.0, math.pi, 4)
    assert got == pytest.approx([2 * n * n + 3 for n in (1, 2, 3, 4)])
    shifted = const_coeff_eigen(2.0, 3.0, 1.0, 5.0, 5.0 + math.pi, 4)
    assert shifted == pytest.approx(got)


def test_rayleigh_quotient():
    prob = dirichlet_problem(grid=1024)
    basis = eigen_solve(prob, 1)
    x1 = basis.eigenfunction(1)
    lam1 = basis.eigenvalues[0]
    assert rayleigh_quotient(prob, x1, basis.eigenfunction_derivative(1)) == pytest.approx(
        lam1, abs=1e-8
    )
    # parabola: (int f'^2)/(int f^2) = (1/3)/(1/30) = 10
    quot = rayleigh_quotient(prob, lambda x: x * (1 - x), lambda x: 1 - 2 * x)
    assert quot == pytest.approx(10.0, rel=1e-10)
    # any admissible trial function sits above the ground eigenvalue
    for f, fp in [
        (lambda x: math.sin(math.pi * x) + 0.2 * math.sin(2 * math.pi * x),
         lambda x: math.pi * math.cos(math.pi * x) + 0.4 * math.pi * math.cos(2 * math.pi * x)),
        (lambda x: x * (1 - x * x), lambda x: 1 - 3 * x * x),
    ]:
        assert rayleigh_quotient(prob, f, fp) >= lam1 - 1e-8


def test_rayleigh_zero_denominator():
    prob = dirichlet_problem(grid=256)
    with pytest.raises(ValueError):
        rayleigh_quotient(prob, lambda x: 0.0, lambda x: 0.0)


def test_nonfinite_data_is_refused_by_every_projection():
    prob = dirichlet_problem(grid=256)
    basis = eigen_solve(prob, 2)
    bad = lambda x: math.nan if x > 0.5 else x
    # mode 1's ladder starts on the 32-point Gauss rule
    first = min(x for x in gauss_rule(0.0, 1.0, 32)[0].tolist() if x > 0.5)
    with pytest.raises(ValueError, match=f"not finite at x = {re.escape(repr(first))}"):
        basis.coefficient(bad, 1)
    with pytest.raises(ValueError, match="not finite"):
        rayleigh_quotient(prob, bad, lambda x: 1.0)
    with pytest.raises(ValueError, match="not finite"):
        rayleigh_quotient(prob, lambda x: x * (1 - x), lambda x: math.inf)


def test_coefficients_match_a_fine_grid_solve():
    p = lambda x: 1.0 + 0.4 * math.sin(2.0 * x + 0.7)
    q = lambda x: 0.3 * (1.0 + math.sin(3.0 * x + 1.9))
    rho = lambda x: 1.0 + 0.5 * math.cos(1.5 * x + 1.9) ** 2
    f = lambda x: 0.6 * x * (1.0 - x) - 0.8 * math.cos(2.0 * x)
    robin = BoundaryCondition.robin
    for left, right in [(DIRICHLET, DIRICHLET), (DIRICHLET, robin(1.3)), (robin(0.7), DIRICHLET), (robin(2.2), NEUMANN)]:
        basis = eigen_solve(SLProblem(p, q, rho, 1.0, left, right), 8)
        fine = SLProblem(p, q, rho, 1.0, left, right, grid_size=16384)
        ref = eigen_solve(fine, 8)
        weighted = fine._rho[::2] * np.array([f(x) for x in fine.grid.tolist()])
        for n in (1, 3, 8):
            # Simpson over the fine solve's nodes, independent of the ladder
            want = composite_simpson(weighted * ref.norm_constants[n - 1] * ref._solutions[n - 1].values, fine.h_step)
            assert abs(basis.coefficient(f, n) - want) <= 1e-12


def test_eigenfunctions_refuse_points_outside_the_interval():
    prob = dirichlet_problem(grid=256)
    basis = eigen_solve(prob, 1)
    sol = solve_theta(prob, 5.0, 0.0, 1.0)
    for fn in (basis.eigenfunction(1), basis.eigenfunction_derivative(1), sol, sol.derivative):
        for x, name in [(1.5, "1.5"), (-0.25, "-0.25"), (math.nan, "nan"), (math.inf, "inf"),
                        (np.array([0.2, 1.0, 1.5]), "1.5"), (np.array([0.3, math.nan]), "nan")]:
            with pytest.raises(ValueError, match=f"x = {name} is outside"):
                fn(x)
        assert np.isfinite(fn(np.array([0.0, 0.5, 1.0]))).all() and math.isfinite(fn(1))


@pytest.mark.parametrize("call", ["eigenfunction", "eigenfunction_derivative", "coefficient", "mode_energy", "omega"])
def test_mode_index_outside_one_to_count_is_refused(call):
    basis = eigen_solve(dirichlet_problem(grid=256), 3)
    string = string_modes(WaveMedium(a=1.0, l=1.0), (DIRICHLET, DIRICHLET), lambda x: x * (1.0 - x), None, 3)
    spectrum = beam_spectrum("clamped_clamped", 3)
    calls = {
        "eigenfunction": basis.eigenfunction,
        "eigenfunction_derivative": basis.eigenfunction_derivative,
        "coefficient": lambda n: basis.coefficient(lambda x: x, n),
        "mode_energy": lambda n: string.mode_energy(n, 0.5),
        "omega": spectrum.omega,
    }
    for n in (0, -1, 4):
        with pytest.raises(IndexError, match=f"mode index {n} outside 1..3"):
            calls[call](n)


def test_characteristic_matches_dimensionless_closed_form():
    h1, h2 = 0.6, 1.4
    prob = SLProblem(
        ONE, ZERO, ONE, 1.0, BoundaryCondition.robin(h1), BoundaryCondition.robin(h2),
        grid_size=2048,
    )
    for lam in (0.7, 3.0, 21.5, 60.0):
        rt = math.sqrt(lam)
        want = (h1 + h2) * math.cos(rt) + (h1 * h2 / rt - rt) * math.sin(rt)
        assert characteristic(prob, lam) == pytest.approx(want, rel=1e-9, abs=1e-11)
