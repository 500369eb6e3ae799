"""The closed-form interval eigenbasis: roots of the phase condition, end
conditions and norms of the modes for every end pair, and the rectangle
factors built from it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralbvp import DIRICHLET, NEUMANN, BoundaryCondition, RectMembrane, rect_membrane_modes
from spectralbvp._quad import gauss_rule, gauss_sum
from spectralbvp.intervals import uniform_basis

ends = st.one_of(
    st.just(DIRICHLET),
    st.just(NEUMANN),
    st.floats(min_value=1e-6, max_value=50.0).map(BoundaryCondition.robin),
)


def _pq(bc: BoundaryCondition, xi: float, l: float) -> tuple[float, float]:
    """(p, q) with the end solution p sin(kx) + q cos(kx) (left end, x = 0):
    (1, 0) clamped, (h l, xi) otherwise."""
    return (1.0, 0.0) if bc.dirichlet else (bc.h * l, xi)


def _end_residual(bc: BoundaryCondition, x: float, sign: float, mode) -> float:
    """X = 0 at a Dirichlet end, X' - sign h X = 0 otherwise (sign +1 at 0)."""
    if bc.dirichlet:
        return abs(mode.shape(x))
    return abs(mode.shape_prime(x) - sign * bc.h * mode.shape(x))


@settings(max_examples=150, deadline=None)
@given(left=ends, right=ends, l=st.floats(min_value=0.3, max_value=3.0), n_modes=st.integers(1, 64))
def test_uniform_basis_roots_ends_and_norms(left, right, l, n_modes):
    basis = uniform_basis(l, left, right, n_modes)
    assert len(basis) == n_modes
    xs, _ = gauss_rule(0.0, l, 256)
    grid = np.linspace(0.0, l, 2049)
    free_free = not left.dirichlet and not right.dirichlet and left.h == 0.0 and right.h == 0.0
    for n, mode in enumerate(basis.modes, start=1):
        xi = mode.xi
        assert mode.index == n - 1
        if free_free:
            # xi + pi = n pi: the zero mode, then the lower end of each bracket
            assert xi == (n - 1) * math.pi
            assert mode.is_zero_mode == (n == 1)
        else:
            assert (n - 1) * math.pi < xi <= n * math.pi
            assert not mode.is_zero_mode
            # the characteristic of the two end conditions:
            # (p1 p2 - q1 q2) sin(xi) + (p1 q2 + q1 p2) cos(xi) = 0
            p1, q1 = _pq(left, xi, l)
            p2, q2 = _pq(right, xi, l)
            char = (p1 * p2 - q1 * q2) * math.sin(xi) + (p1 * q2 + q1 * p2) * math.cos(xi)
            assert abs(char) <= 1e-12 * math.hypot(p1, q1) * math.hypot(p2, q2)
        assert mode.lam == (xi / l) ** 2
        k = xi / l
        amp = float(np.max(np.abs(mode.shape(grid))))
        for bc, x, sign in ((left, 0.0, 1.0), (right, l, -1.0)):
            scale = amp if bc.dirichlet else (k + bc.h) * amp
            assert _end_residual(bc, x, sign, mode) <= 1e-12 * scale
        assert abs(gauss_sum(mode.shape(xs) ** 2, 0.0, l) - 1.0) <= 1e-12


@pytest.mark.parametrize("left", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("right", [DIRICHLET, NEUMANN])
def test_uniform_basis_closed_forms(left, right):
    l = 1.7
    basis = uniform_basis(l, left, right, 12)
    shift = 0.5 * ((not left.dirichlet) + (not right.dirichlet))
    assert [m.xi for m in basis.modes] == [(n - shift) * math.pi for n in range(1, 13)]
    x = np.linspace(0.0, l, 9)
    for mode in basis.modes:
        k = mode.xi / l
        if mode.is_zero_mode:
            want = np.full(x.shape, 1.0 / math.sqrt(l))
        elif left.dirichlet:
            want = math.sqrt(2.0 / l) * np.sin(k * x)
        else:
            want = math.sqrt(2.0 / l) * np.cos(k * x)
        assert np.array_equal(mode.shape(x), want)


EDGES = [("fixed", "fixed"), ("fixed", "free"), ("free", "fixed"), ("free", "free")]
EDGE_BC = {"fixed": DIRICHLET, "free": NEUMANN}


@pytest.mark.parametrize("bc_x", EDGES)
@pytest.mark.parametrize("bc_y", EDGES)
def test_rect_membrane_is_product_of_interval_modes(bc_x, bc_y):
    spec = RectMembrane(1.3, 0.8, bc_x=bc_x, bc_y=bc_y)
    bx = uniform_basis(spec.l1, EDGE_BC[bc_x[0]], EDGE_BC[bc_x[1]], 5)
    by = uniform_basis(spec.l2, EDGE_BC[bc_y[0]], EDGE_BC[bc_y[1]], 5)
    first_x = 0 if bc_x == ("free", "free") else 1
    first_y = 0 if bc_y == ("free", "free") else 1
    x, y = np.meshgrid(np.linspace(0.0, spec.l1, 7), np.linspace(0.0, spec.l2, 5))
    for i, fx in enumerate(bx.modes):
        for j, fy in enumerate(by.modes):
            lam, phi = rect_membrane_modes(spec, i + first_x, j + first_y)
            assert lam == pytest.approx(fx.lam + fy.lam, rel=4e-16, abs=0.0)
            assert np.array_equal(phi(x, y), fx.shape(x) * fy.shape(y))
            assert phi(0.4, 0.3) == fx.shape(0.4) * fy.shape(0.3)


@pytest.mark.parametrize("bc", EDGES)
def test_rect_membrane_index_errors(bc):
    first = 0 if bc == ("free", "free") else 1
    for spec, idx in (
        (RectMembrane(1.0, 1.0, bc_x=bc), lambda m: (m, 1)),
        (RectMembrane(1.0, 1.0, bc_y=bc), lambda m: (1, m)),
    ):
        with pytest.raises(ValueError, match=f"{bc[0]}-{bc[1]} index starts at {first}"):
            rect_membrane_modes(spec, *idx(first - 1))
        rect_membrane_modes(spec, *idx(first))
