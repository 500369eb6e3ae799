"""Eigenvalue counting: exact lattice counts, asymptotic bands, heat-trace
consistency and the electron-gas threshold."""

import math
import os
import subprocess
import sys

import pytest

from spectralbvp.weyl import (
    CountingFunction,
    Domain,
    WallBC,
    count_exact,
    electron_density,
    fermi_energy,
    weyl_estimate,
)


def brute_force_square(lam, l, a, start):
    pref = math.pi**2 * a**2
    kmax = int(math.sqrt(lam) * l / (math.pi * a)) + 2
    return sum(
        1
        for j in range(start, kmax + 1)
        for k in range(start, kmax + 1)
        if pref * (j * j + k * k) / l**2 < lam
    )


def test_counts_match_brute_force():
    l, a = 1.3, 0.7
    for lam_scale in (10.5, 200.3, 1777.7):
        lam = lam_scale * math.pi**2 * a**2 / l**2
        for bc, start in ((WallBC.DIRICHLET, 1), (WallBC.NEUMANN, 0)):
            cf = CountingFunction(Domain.square(l), bc, a)
            assert cf.count(lam) == brute_force_square(lam, l, a, start)


def test_rectangle_and_cube_counts():
    cf = CountingFunction(Domain.rect(1.0, 2.0), WallBC.DIRICHLET, 1.0)
    # eigenvalues pi^2 (j^2 + k^2/4); below 3 pi^2: (1,1)=1.25 pi^2,
    # (1,2)=2 pi^2, (1,3)=3.25 pi^2 no, (2,1)? 4.25 no -> 2 modes
    assert cf.count(3.0 * math.pi**2) == 2
    cf3 = CountingFunction(Domain.cube(1.0), WallBC.DIRICHLET, 1.0)
    # below 7 pi^2: (1,1,1)=3, (2,1,1)x3=6 -> 4 modes
    assert cf3.count(7.0 * math.pi**2) == 4
    assert cf3.count(3.0 * math.pi**2 + 1e-9) == 0
    assert cf3.count(3.0 * math.pi**2 + 1.0) == 1


def test_first_dirichlet_mode():
    cf = CountingFunction(Domain.square(1.0), WallBC.DIRICHLET, 1.0)
    lam_11 = 2.0 * math.pi**2
    assert cf.count(lam_11 * 1.0001) == 1
    assert cf.count(lam_11 * 0.9999) == 0


def test_neumann_band():
    l, a = 1.0, 1.0
    lam = math.pi**2 * a**2 * 200.5**2 / l**2
    cf = CountingFunction(Domain.square(l), WallBC.NEUMANN, a)
    nb = cf.count(lam)
    lo = l * l * lam / (4 * math.pi * a * a)
    hi = lo + l * math.sqrt(lam) / (math.sqrt(2) * a) + math.pi / 2
    assert lo <= nb <= hi


def test_dirichlet_neumann_difference():
    l, a = 1.0, 1.0
    for radius in (25.5, 99.5, 200.5):
        lam = math.pi**2 * a**2 * radius**2 / l**2
        cf_n = CountingFunction(Domain.square(l), WallBC.NEUMANN, a)
        cf_d = CountingFunction(Domain.square(l), WallBC.DIRICHLET, a)
        edge = int(l * math.sqrt(lam) / (math.pi * a))
        assert cf_n.count(lam) - cf_d.count(lam) == 2 * edge + 1


def test_weyl_estimate_forms():
    assert weyl_estimate(2.0, 2, 1.0, 7.0) == pytest.approx(2.0 * 7.0 / (4 * math.pi))
    assert weyl_estimate(3.0, 3, 2.0, 5.0) == pytest.approx(3.0 * 5.0**1.5 / (6 * math.pi**2 * 8.0))
    assert weyl_estimate(1.0, 1, 1.0, 4.0) == pytest.approx(
        1.0 * 2.0 / (math.sqrt(4 * math.pi) * math.gamma(1.5))
    )
    with pytest.raises(ValueError):
        weyl_estimate(1.0, 4, 1.0, 1.0)


def test_count_to_weyl_ratio():
    l, a = 1.0, 1.0
    lam = math.pi**2 * 200.5**2
    cf = CountingFunction(Domain.square(l), WallBC.DIRICHLET, a)
    ratio = count_exact(cf, lam) / weyl_estimate(l * l, 2, a, lam)
    assert 0.97 <= ratio <= 1.03


def test_counting_function_steps_and_multiplicities():
    cf = CountingFunction(Domain.square(1.0), WallBC.DIRICHLET, 1.0)
    eigs = cf.eigenvalues(60.0 * math.pi**2)
    # jumps of the counting function equal the listed multiplicities
    for lam, mult in eigs[:20]:
        assert cf.count(lam + 1e-6) - cf.count(lam - 1e-6) == mult
    # off-diagonal pairs are at least doubly degenerate
    for lam, mult in eigs:
        pairs = [
            (j, k)
            for j in range(1, 20)
            for k in range(1, 20)
            if abs(math.pi**2 * (j * j + k * k) - lam) < 1e-6
        ]
        if any(j != k for j, k in pairs):
            assert mult >= 2


def test_eigenvalues_list_exactly_what_count_counts():
    """The enumeration keeps count's guard band, so the multiplicities sum to
    count(lam) at every lam, also just above an eigenvalue."""
    cf = CountingFunction(Domain.square(1.0), WallBC.DIRICHLET, 1.0)
    lam = 2.0 * math.pi**2 * (1.0 + 1e-11)
    assert cf.count(lam) == 0
    assert cf.eigenvalues(lam) == []
    assert cf.heat_trace(0.01, lam) == 0.0
    for domain in (Domain.square(1.3), Domain.rect(1.0, 2.0), Domain.cube(0.9)):
        for bc in WallBC:
            cf = CountingFunction(domain, bc, 0.7)
            for mode, _ in cf.eigenvalues(400.0)[:25]:
                for rel in (-1e-6, -1e-12, 0.0, 1e-12, 1e-11, 2e-9, 1e-6):
                    lam = mode * (1.0 + rel)
                    assert sum(m for _, m in cf.eigenvalues(lam)) == cf.count(lam)


@pytest.mark.parametrize("bc", list(WallBC))
def test_degenerate_eigenvalues_listed_once(bc):
    """The cube's degenerate eigenvalues are reached by index sums added in
    different orders; each is still one entry, and the multiplicities still
    sum to count."""
    cf = CountingFunction(Domain.cube(0.7), bc, 1.0)
    eigs = cf.eigenvalues(2e5)
    lams = [lam for lam, _ in eigs]
    assert all(b - a > 1e-12 * b for a, b in zip(lams, lams[1:]))
    assert sum(m for _, m in eigs) == cf.count(2e5)


def test_lambda_max_guard():
    cf = CountingFunction(Domain.square(1.0), WallBC.DIRICHLET, 1.0, lambda_max=100.0)
    cf.count(99.0)
    with pytest.raises(ValueError):
        cf.count(101.0)


def test_heat_trace_matches_area_term():
    l, a = 1.0, 1.0
    cf = CountingFunction(Domain.square(l), WallBC.NEUMANN, a)
    lam_max = 2.0e5
    t = math.log(1e8) / lam_max  # enumeration tail below 1e-8
    trace = cf.heat_trace(t, lam_max)
    leading = l * l / (4 * math.pi * a * a * t)
    assert abs(trace - leading) <= 0.05 * leading


def test_fermi_energy_scaling_and_roundtrip():
    hbar, mu = 1.054571817e-34, 9.1093837015e-31
    n = 8.5e28
    ef = fermi_energy(n, hbar, mu)
    assert fermi_energy(8 * n, hbar, mu) == pytest.approx(4 * ef, rel=1e-13)
    assert electron_density(ef, hbar, mu) == pytest.approx(n, rel=1e-12)


def test_fermi_consistency_with_counting():
    hbar, mu = 1.054571817e-34, 9.1093837015e-31
    n = 2.5e28
    ef = fermi_energy(n, hbar, mu)
    vol = 1.0
    filled = 2.0 * weyl_estimate(vol, 3, hbar / math.sqrt(2 * mu), ef)
    assert filled == pytest.approx(n * vol, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
def test_nonfinite_or_nonpositive_sizes_are_refused(bad):
    for domain in (Domain.square(bad), Domain.rect(1.0, bad), Domain.cube(bad), Domain("square", (bad, 1.0))):
        with pytest.raises(ValueError, match="domain sides"):
            CountingFunction(domain, "dirichlet", 1.0)
    with pytest.raises(ValueError, match="speed a"):
        CountingFunction(Domain.square(1.0), "dirichlet", bad)


def test_nan_arguments_are_refused():
    cf = CountingFunction(Domain.square(1.0), "dirichlet", 1.0)
    with pytest.raises(ValueError, match="lam must be finite"):
        cf.count(math.nan)
    with pytest.raises(ValueError, match="lam_max must be finite"):
        cf.eigenvalues(math.nan)
    with pytest.raises(ValueError, match="lambda_max"):
        CountingFunction(Domain.square(1.0), "dirichlet", 1.0, lambda_max=math.nan)


@pytest.mark.parametrize("call", ["count(math.inf)", "eigenvalues(math.inf)"])
def test_infinite_lambda_is_refused_not_walked(call):
    """Without a guard the lattice walk up to lambda = inf never ends, so
    the call runs in a subprocess with a timeout."""
    code = (
        "import math; from spectralbvp.weyl import CountingFunction, Domain\n"
        "cf = CountingFunction(Domain.square(1.0), 'dirichlet', 1.0)\n"
        f"try:\n    cf.{call}\nexcept ValueError as e:\n    print('ValueError', e)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.startswith("ValueError lam"), proc.stdout + proc.stderr
