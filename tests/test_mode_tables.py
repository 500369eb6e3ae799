"""Mode tables on the reference Gauss rules (``_quad.mode_table``): every
series projection evaluates its modes once per process and rung size, keyed
by integers alone, in a cache whose retained bytes ``_TABLE_BYTES`` bounds."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spectralbvp import (
    DIRICHLET,
    NEUMANN,
    BallSpec,
    BoundaryCondition,
    DiskMembrane,
    HeatMedium,
    WaveMedium,
    ball_solution,
    beam_response,
    beam_spectrum,
    cylinder_cooling,
    disk_axisym_solution,
    expand_series,
    heat_interval_modes,
    string_modes,
)
from spectralbvp import _quad
from spectralbvp._quad import gauss_rule, mode_table
from spectralbvp.beams import BeamBC, _shapes as _beam_shapes, _unit_shapes, beam_char_roots
from spectralbvp.geomnd import _ball_gamma, _ball_modes, _unit_ball_modes
from spectralbvp.intervals import uniform_basis
from spectralbvp.specfun import _legendre_columns


@pytest.fixture
def tables(monkeypatch):
    """A cold cache of this test's own."""
    fresh = _quad._ArrayCache()
    monkeypatch.setattr(_quad, "_TABLES", fresh)
    return fresh


def _solves(length=1.3, h=0.8):
    """One call of every solver that projects on a cached table; each
    returns floats or arrays.  ``length`` is every length and radius, ``h``
    every Robin constant."""
    f = lambda x: np.cos(1.7 * x / length) + 0.3
    g = lambda x: np.sin(2.1 * x / length)
    ball = BallSpec(radius=length, a2=0.8)
    robin = (NEUMANN, BoundaryCondition.robin(h))
    heat = lambda ends: heat_interval_modes(ends, f, HeatMedium(a2=0.7), length, 12, source=lambda x, t: x * t)
    return {
        "fourier_bessel": lambda: expand_series("fourier_bessel", f, 5, m=1, radius=length).coefficients,
        "legendre": lambda: expand_series("legendre", lambda x: np.exp(x), 7).coefficients,
        "string": lambda: string_modes(WaveMedium(a=1.1, l=length), (DIRICHLET, NEUMANN), f, g, 24)(0.4 * length, 0.3),
        "string_robin": lambda: string_modes(WaveMedium(a=1.1, l=length), robin, f, g, 24)(0.4 * length, 0.3),
        "heat": lambda: heat((DIRICHLET, DIRICHLET))(0.4 * length, 0.3),
        "heat_robin": lambda: heat(robin)(0.4 * length, 0.3),
        "beam": lambda: beam_response(beam_spectrum("clamped_free", 6, l=length), f, g, 6, 0.7 * length, 0.2),
        "disk": lambda: disk_axisym_solution(DiskMembrane(radius=length), f, g, 5, 0.4 * length, 0.3,
                                             force=lambda r, t: 1.0 - (r / length) ** 2),
        "cylinder_rz": lambda: cylinder_cooling(length, 1.7 * length, 0.9, lambda r, z: f(r) * g(z + length), 4, 3,
                                                (0.3 * length, 0.2 * length), 0.05),
        "cylinder_r": lambda: cylinder_cooling(length, 1.7 * length, 0.9, lambda r: math.cos(r), 4, 3,
                                               (0.3 * length, 0.2 * length), 0.05),
        "ball_cooling": lambda: ball_solution(ball, "cooling", f, 6, 0.4 * length, 0.05),
        "ball_neumann": lambda: ball_solution(BallSpec(radius=length, bc="neumann"), "sources", 1.0, 6,
                                              0.4 * length, 0.05),
        "ball_robin": lambda: ball_solution(BallSpec(radius=length, bc="robin", h=h), "cooling", f, 6,
                                            0.4 * length, 0.05),
        "ball_axisym": lambda: ball_solution(ball, "axisym_cooling", lambda r, th: f(r) * np.cos(th), 3,
                                             (0.4 * length, 0.7), 0.05),
        "ball_laplace": lambda: ball_solution(ball, "laplace_dirichlet", lambda th: np.cos(th) ** 2, 8,
                                              (0.4 * length, 0.7)),
    }


def test_a_cache_hit_equals_the_miss_bit_for_bit(monkeypatch):
    """Each solve from a cold cache, then again from the tables it kept (a
    Robin end keeps none)."""
    for name, solve in _solves().items():
        tables = _quad._ArrayCache()
        monkeypatch.setattr(_quad, "_TABLES", tables)
        miss = solve()
        kept = len(tables)
        hit = solve()
        assert np.array_equal(miss, hit), name
        assert len(tables) == kept, name
        assert (kept == 0) == name.endswith("_robin"), name


def test_cached_tables_are_read_only(tables):
    expand_series("legendre", lambda x: x * x, 5)
    table = mode_table(_legendre_columns, (5,), 20, -1)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    assert len(tables) >= 1 and all(not a.flags.writeable for a in tables._arrays.values())


def test_lengths_radii_and_robin_constants_add_no_tables(tables):
    for solve in _solves().values():
        solve()
    kept = len(tables)
    for length, h in ((0.6, 0.3), (2.4, 5.0), (1.0, 1.0)):
        for solve in _solves(length, h).values():
            solve()
    assert len(tables) == kept


def test_sweeping_mode_counts_keeps_the_retained_bytes_under_the_bound(tables, monkeypatch):
    """Tables of 256 x n modes for n = 100 .. 139, 9.8 MB in all, kept in
    1 MB: each call's table is kept and the oldest evicted."""
    monkeypatch.setattr(_quad, "_TABLE_BYTES", 2**20)
    medium = WaveMedium(a=1.0, l=1.0)
    for n in range(100, 140):
        string_modes(medium, (DIRICHLET, DIRICHLET), lambda x: x * (1.0 - x), None, n)
        assert tables.nbytes == sum(a.nbytes for a in tables._arrays.values()) <= 2**20
        assert (True, True, n) in (key[1][1] for key in tables._arrays)
    assert len(tables) == 2**20 // (256 * 139 * 8)


def test_a_table_larger_than_the_bound_is_returned_not_kept(tables, monkeypatch):
    monkeypatch.setattr(_quad, "_TABLE_BYTES", 1000)
    small = mode_table(_legendre_columns, (3,), 8, -1)
    big = mode_table(_legendre_columns, (40,), 80, -1)
    assert big.shape == (80, 40) and not big.flags.writeable
    assert len(tables) == 1 and next(iter(tables._arrays.values())) is small


def test_tables_over_their_scale_are_the_physical_modes():
    """Each reference table, divided by the physical scale, is the family
    evaluated at the physical Gauss nodes, to rounding."""
    length, n = 1.7, 48
    xs = gauss_rule(0.0, length, n)[0]
    for ends in ((DIRICHLET, NEUMANN), (NEUMANN, NEUMANN), (BoundaryCondition.robin(0.7), DIRICHLET)):
        basis = uniform_basis(length, *ends, 20)
        np.testing.assert_allclose(basis._on_rule(n) / math.sqrt(length), basis._shapes(xs), rtol=0, atol=1e-13)
    for bc in BeamBC:
        mus = np.array(beam_char_roots(bc, 8))
        np.testing.assert_allclose(mode_table(_unit_shapes, (bc, 8), n) / math.sqrt(length),
                                   _beam_shapes(bc, mus, length, xs), rtol=0, atol=1e-12)
    for bc in ("dirichlet", "neumann"):
        spec = BallSpec(radius=length, bc=bc)
        phi = _ball_modes(spec, np.array([_ball_gamma(spec, k) for k in range(1, 9)]))[1]
        np.testing.assert_allclose(mode_table(_unit_ball_modes, (spec.bc, 8), n) / length**1.5, phi(xs),
                                   rtol=0, atol=1e-13)


def test_threads_sharing_the_cache_keep_its_byte_count(tables, monkeypatch):
    """Eight threads fill and evict one small cache at once; each gets its
    tables, and the byte count stays the sum of what is kept, within the
    bound."""
    monkeypatch.setattr(_quad, "_TABLE_BYTES", 64 * 2**10)

    def work(seed):
        # threads only collect; the asserts run in the main thread
        return [mode_table(_legendre_columns, (1 + (seed * 7 + i) % 13,), 64, -1).shape for i in range(60)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(work, k) for k in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    for seed, shapes in enumerate(results):
        assert shapes == [(64, 1 + (seed * 7 + i) % 13) for i in range(60)]
    assert tables.nbytes == sum(a.nbytes for a in tables._arrays.values()) <= 64 * 2**10
