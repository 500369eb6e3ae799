"""The three benchmark workloads: seeded inputs, one operation, and the
reference check of its output.

Each workload is a ``Workload`` with

* ``inputs(seed, i, workdir)``: the i-th operation's inputs, a pure
  function of the seed and the index, so a traced replay sees the same
  inputs (``cli_oneshot`` writes its problem file into ``workdir``);
* ``run(inp, tr)``: the timed operation, calling spectralbvp only through
  its public functions, with spans around each call when ``tr`` traces;
* ``check(inp, out, chk)``: the reference check, run outside the timed
  region; every miss is recorded on ``chk`` and fails the operation;
* ``probe(inp, out, tr)``: traced-run-only calls that time a layer the
  operation reaches only from inside the package.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import spectralbvp as sb
from spectralbvp import cli
from spectralbvp._quad import composite_simpson
from spectralbvp._rootfind import refine_root
from spectralbvp.intervals import uniform_basis
from spectralbvp.specfun import ZeroFamily, bessel_j, bessel_zero
from spectralbvp.sturm import characteristic_many

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Checker:
    """Collects reference-check misses for one operation.

    ``perturb`` shifts every numeric reference by that share of its size
    (at least that much in absolute terms); the self-test sets it to show
    that each check can miss.
    """

    def __init__(self, perturb: float = 0.0):
        self.perturb = perturb
        self.misses: list[str] = []
        self.numeric = 0
        self.numeric_missed = 0

    def close(self, label: str, got: float, want: float, tol: float) -> None:
        want = want + self.perturb * max(1.0, abs(want))
        self.numeric += 1
        if not abs(got - want) <= tol:
            self.numeric_missed += 1
            self.misses.append(f"{label}: got {got!r}, want {want!r} +- {tol:.1e}")

    def true(self, label: str, cond: bool) -> None:
        if not cond:
            self.misses.append(label)


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


# ----------------------------------------------------------------------
# sturm_eigen: one certified Sturm-Liouville solve (acceptance criterion 6)
# ----------------------------------------------------------------------

N_EIGS = 3
SCAN_POINTS = 1400


def sturm_inputs(seed: int, i: int, workdir: str) -> dict:
    r = _rng(seed, i)
    a1, a2 = r.uniform(0.2, 0.6, 2)
    b1, b2 = r.uniform(0.0, 2.0 * math.pi, 2)
    c0 = r.uniform(0.0, 0.8)
    h1, h2 = r.uniform(0.2, 3.0, 2)
    # The four end pairings in turn; three operations in every sixteen put
    # a Neumann end (Robin h = 0) on a Robin side.
    pairing = i % 4
    if i % 16 in (2, 7):
        h1 = 0.0
    if i % 16 == 11:
        h2 = 0.0
    left = sb.DIRICHLET if pairing in (0, 1) else sb.BoundaryCondition.robin(float(h1))
    right = sb.DIRICHLET if pairing in (0, 2) else sb.BoundaryCondition.robin(float(h2))
    f1, f2 = r.uniform(-1.0, 1.0, 2)
    return {
        "p": lambda x, a=a1, b=b1: 1.0 + a * math.sin(2.0 * x + b),
        "q": lambda x, c=c0, b=b2: c * (1.0 + math.sin(3.0 * x + b)) / 2.0,
        "rho": lambda x, a=a2, b=b2: 1.0 + a * math.cos(1.5 * x + b) ** 2,
        "left": left,
        "right": right,
        "f": lambda x, u=f1, v=f2: u * x * (1.0 - x) + v * math.cos(2.0 * x),
    }


def sturm_run(inp: dict, tr) -> dict:
    with tr.span("sturm.SLProblem.init"):
        prob = sb.SLProblem(inp["p"], inp["q"], inp["rho"], 1.0, inp["left"], inp["right"])
    with tr.span("sturm.eigen_solve"):
        basis = sb.eigen_solve(prob, N_EIGS)
    # Independent scan: sign changes of the characteristic on a dense
    # lambda grid, each refined on the characteristic itself.
    lams = np.linspace(-0.5, prob.eigenvalue_window(N_EIGS)[1] * 1.05, SCAN_POINTS)
    with tr.span("sturm.characteristic_many"):
        vals = characteristic_many(prob, lams)
    char = tr.wrap("sturm.characteristic", lambda t: sb.characteristic(prob, t))
    roots: list[float] = []
    for k in range(SCAN_POINTS - 1):
        if vals[k] == 0.0:
            roots.append(float(lams[k]))
        elif vals[k] * vals[k + 1] < 0.0:
            with tr.span("rootfind.refine_root"):
                roots.append(refine_root(char, float(lams[k]), float(lams[k + 1]), ftol=1e-12))
        if len(roots) == N_EIGS:
            break
    a, b = prob.left_initial_data()
    with tr.span("sturm.solve_theta.picard"):
        picard = sb.solve_theta(prob, basis.eigenvalues[0], a, b, method="picard")
    with tr.span("sturm.EigenBasis.coefficient"):
        coef = basis.coefficient(inp["f"], 1)
    return {"prob": prob, "basis": basis, "roots": roots, "picard": picard, "coef": coef}


def sturm_probe(inp: dict, out: dict, tr) -> None:
    with tr.span("sturm.node_count"):
        sb.node_count(out["prob"], out["basis"].eigenvalues[0])


def _end_residual(prob, values_end: float, derivs_end: float) -> float:
    if prob.right.dirichlet:
        return values_end
    return derivs_end + prob.right.h * values_end


def sturm_check(inp: dict, out: dict, chk: Checker) -> None:
    prob, basis, roots = out["prob"], out["basis"], out["roots"]
    chk.true(f"scan found {len(roots)} of {N_EIGS} eigenvalues", len(roots) == N_EIGS)
    for n, (lam, ref) in enumerate(zip(basis.eigenvalues, roots), start=1):
        chk.close(f"lambda_{n} solver vs scan", lam, ref, 1e-7 * max(1.0, abs(ref)))
        lo, hi = prob.eigenvalue_window(n)
        chk.true(f"lambda_{n}={lam!r} outside window [{lo!r}, {hi!r}]", lo - 1e-9 <= lam <= hi + 1e-9)
    chk.true(f"node counts {basis.node_counts} != [0, 1, 2]", list(basis.node_counts) == list(range(N_EIGS)))
    rho = np.array([prob.rho(float(x)) for x in prob.grid])
    funcs = [basis.norm_constants[k] * basis._solutions[k].values for k in range(N_EIGS)]
    for j in range(N_EIGS):
        for k in range(j, N_EIGS):
            val = composite_simpson(rho * funcs[j] * funcs[k], prob.h_step)
            chk.close(f"<X{j + 1}, X{k + 1}>_rho", val, 1.0 if j == k else 0.0, 1e-8)
    picard = out["picard"]
    m_picard = _end_residual(prob, picard.end_value, picard.end_derivative)
    m_rk4 = sb.characteristic(prob, basis.eigenvalues[0])
    scale = max(1.0, float(np.max(np.abs(picard.values))))
    chk.close("picard vs rk4 characteristic at lambda_1", m_picard, m_rk4, 1e-10 * scale)
    chk.true("coefficient is finite", math.isfinite(out["coef"]))


# ----------------------------------------------------------------------
# series_expand: one instance of a recipe calling every separable solver
# ----------------------------------------------------------------------

# Recipe sizes, each from the package or its own worked examples:
# string_modes' default n_modes (waves1d.py); the registered default
# n_modes of the heat.interval CLI kind (cli.py); the mode counts of the
# examples in tests/test_beams.py (beam_response completeness, 8 modes)
# and tests/test_geomnd.py (Fourier-Bessel 5 terms, exact Legendre
# polynomial 6 terms, separable cylinder T0(r, z) 6 x 6, ball axisym
# cooling 3, ball Laplace 8, disk single mode 5).
N_STRING = 128
N_HEAT = 32
N_BEAM = 8
N_FB = 5
N_LEG = 6
CYL_RADIAL, CYL_AXIAL = 6, 6  # T0(r, z) path; the T0(r) path takes the CYL_AXIAL // 2 odd modes among them
BALL_AXISYM_MODES = 3
BALL_LAPLACE_MODES = 8
DISK_MODES = 5
# First positive root of tan(x) = x, the first zero of j_1.
J1_ZERO = 4.493409457909064


def _end(r: np.random.Generator):
    kind = r.integers(0, 3)
    if kind == 0:
        return sb.DIRICHLET
    if kind == 1:
        return sb.NEUMANN
    return sb.BoundaryCondition.robin(float(r.uniform(0.2, 4.0)))


def series_inputs(seed: int, i: int, workdir: str) -> dict:
    r = _rng(seed, i)
    heat_bc = (_end(r), _end(r))
    if heat_bc[0] == sb.NEUMANN and heat_bc[1] == sb.NEUMANN:
        heat_bc = (sb.DIRICHLET, sb.NEUMANN)
    lh = float(r.uniform(0.5, 2.0))
    a2 = float(r.uniform(0.5, 2.0))
    beam_bcs = [b.value for b in sb.BeamBC]
    return {
        "string": {"a": float(r.uniform(0.5, 2.0)), "l": float(r.uniform(0.5, 2.0)),
                   "amp": float(r.uniform(0.5, 2.0)), "x": r.uniform(0.05, 0.95, 4), "t": float(r.uniform(0.0, 2.0))},
        "heat": {"bc": heat_bc, "l": lh, "a2": a2, "T0": float(r.uniform(0.5, 3.0)),
                 "x": r.uniform(0.0, 1.0, 4) * lh, "t": float(r.uniform(0.02, 0.2)) * lh * lh / a2},
        "beam": {"bc": beam_bcs[int(r.integers(0, len(beam_bcs)))], "mode": int(r.integers(1, 4)),
                 "c": float(r.uniform(0.5, 2.0)), "l": float(r.uniform(0.5, 2.0)), "amp": float(r.uniform(0.5, 2.0)),
                 "x": float(r.uniform(0.0, 1.0)), "t": float(r.uniform(0.0, 1.0))},
        "fb": {"R": float(r.uniform(0.5, 2.0)), "amp": float(r.uniform(0.5, 2.0)), "r": r.uniform(0.0, 1.0, 3)},
        "leg": {"b": r.uniform(-1.0, 1.0, N_LEG), "x": r.uniform(-1.0, 1.0, 3)},
        "cyl": {"R": float(r.uniform(0.5, 2.0)), "H": float(r.uniform(0.5, 3.0)), "a2": float(r.uniform(0.5, 2.0)),
                "amp": float(r.uniform(0.5, 2.0)), "r": float(r.uniform(0.0, 1.0)), "z": float(r.uniform(-0.5, 0.5)),
                "t": float(r.uniform(0.01, 0.2))},
        "ball": {"R": float(r.uniform(0.5, 2.0)), "a2": float(r.uniform(0.5, 2.0)),
                 "A": float(r.uniform(0.5, 2.0)), "B": float(r.uniform(-1.0, 1.0)), "C": float(r.uniform(-1.0, 1.0)),
                 "r": float(r.uniform(0.0, 1.0)), "theta": float(r.uniform(0.0, math.pi)), "t": float(r.uniform(0.01, 0.1))},
        "disk": {"R": float(r.uniform(0.5, 2.0)), "a": float(r.uniform(0.5, 2.0)), "mode": int(r.integers(1, 4)),
                 "amp": float(r.uniform(0.5, 2.0)), "r": float(r.uniform(0.0, 1.0)), "t": float(r.uniform(0.0, 1.0))},
    }


def series_run(inp: dict, tr) -> dict:
    out: dict = {}

    s = inp["string"]
    with tr.span("waves1d.string_modes"):
        sol = sb.string_modes(sb.WaveMedium(a=s["a"], l=s["l"]), (sb.DIRICHLET, sb.DIRICHLET),
                              lambda x, A=s["amp"], l=s["l"]: A * x * (l - x), None, N_STRING)
    out["string_energy"] = (sol.mode_energy(1, 0.0), sol.energy(0.0))
    vals = []
    for x in s["x"] * s["l"]:
        with tr.span("waves1d.ModalSolution.eval"):
            vals.append(sol(float(x), s["t"]))
    out["string_vals"] = vals

    h = inp["heat"]
    with tr.span("heat1d.heat_interval_modes"):
        hsol = sb.heat_interval_modes(h["bc"], lambda x, T0=h["T0"]: T0, sb.HeatMedium(a2=h["a2"]), h["l"], N_HEAT)
    out["heat_modes"] = hsol.basis.modes
    out["heat_coeffs"] = list(hsol.coefficients)
    vals = []
    for x in h["x"]:
        with tr.span("heat1d.HeatModalSolution.eval"):
            vals.append(hsol(float(x), h["t"]))
    out["heat_vals"] = vals

    b = inp["beam"]
    spectrum = sb.beam_spectrum(b["bc"], N_BEAM, c=b["c"], l=b["l"])
    x_beam = b["x"] * b["l"]
    with tr.span("beams.beam_response"):
        out["beam"] = sb.beam_response(
            spectrum, lambda x, bc=b["bc"], j=b["mode"], l=b["l"], A=b["amp"]: A * sb.beam_mode(bc, j, x, l),
            None, N_BEAM, x_beam, b["t"])

    f = inp["fb"]
    with tr.span("geomnd.expand_series.fourier_bessel"):
        fb = sb.expand_series("fourier_bessel", lambda r, A=f["amp"], R=f["R"]: A * (1.0 - (r / R) ** 2),
                              N_FB, m=0, radius=f["R"])
    out["fb_coeffs"] = list(fb.coefficients)
    vals = []
    for r in f["r"] * f["R"]:
        with tr.span("geomnd.SeriesExpansion.reconstruct"):
            vals.append(fb.reconstruct(float(r)))
    out["fb_vals"] = vals

    g = inp["leg"]
    with tr.span("geomnd.expand_series.legendre"):
        leg = sb.expand_series("legendre", lambda x, c=g["b"]: float(np.polynomial.legendre.legval(x, c)), N_LEG)
    out["leg_coeffs"] = list(leg.coefficients)
    vals = []
    for x in g["x"]:
        with tr.span("geomnd.SeriesExpansion.reconstruct"):
            vals.append(leg.reconstruct(float(x)))
    out["leg_vals"] = vals

    c = inp["cyl"]
    radial = _cyl_radial(c["amp"], c["R"])
    point = (c["r"] * c["R"], c["z"] * c["H"])
    with tr.span("geomnd.cylinder_cooling"):
        out["cyl_rz"] = sb.cylinder_cooling(c["R"], c["H"], c["a2"], lambda r, z: radial(r),
                                            CYL_RADIAL, CYL_AXIAL, point, c["t"])
    with tr.span("geomnd.cylinder_cooling"):
        out["cyl_r"] = sb.cylinder_cooling(c["R"], c["H"], c["a2"], radial, CYL_RADIAL, CYL_AXIAL // 2, point,
                                           c["t"])

    d = inp["ball"]
    spec = sb.BallSpec(radius=d["R"], a2=d["a2"])
    r_ball = d["r"] * d["R"]
    with tr.span("geomnd.ball_solution.axisym_cooling"):
        out["ball_axisym"] = sb.ball_solution(
            spec, "axisym_cooling", lambda r, th: _ball_t0(d, r, th), BALL_AXISYM_MODES, (r_ball, d["theta"]), d["t"])
    with tr.span("geomnd.ball_solution.laplace_dirichlet"):
        out["ball_laplace"] = sb.ball_solution(
            spec, "laplace_dirichlet", lambda th, A=d["A"], C=d["C"]: C + A * math.cos(th),
            BALL_LAPLACE_MODES, (r_ball, d["theta"]))

    m = inp["disk"]
    alpha = bessel_zero(ZeroFamily.BESSEL_J, 0, m["mode"])
    with tr.span("geomnd.disk_axisym_solution"):
        out["disk"] = sb.disk_axisym_solution(
            sb.DiskMembrane(radius=m["R"], a=m["a"]),
            lambda r, A=m["amp"], R=m["R"]: A * bessel_j(0, alpha * r / R), None, DISK_MODES, m["r"] * m["R"], m["t"])
    return out


def _cyl_radial(amp: float, radius: float):
    """T0(r) = A cos(pi r / 2R), as a one-argument callable: cylinder_cooling
    tells T0(r) from T0(r, z) by the number of parameters."""

    def t0(r):
        return amp * math.cos(0.5 * math.pi * r / radius)

    return t0


def _sph_j0(x: float) -> float:
    return 1.0 if x == 0.0 else math.sin(x) / x


def _sph_j1(x: float) -> float:
    if abs(x) < 1e-4:
        return x / 3.0
    return math.sin(x) / (x * x) - math.cos(x) / x


def _ball_t0(d: dict, r: float, th: float) -> float:
    """A j_0(pi r/R) + B j_1(beta r/R) cos(theta): two clamped-ball modes."""
    return d["A"] * _sph_j0(math.pi * r / d["R"]) + d["B"] * _sph_j1(J1_ZERO * r / d["R"]) * math.cos(th)


def series_probe(inp: dict, out: dict, tr) -> None:
    h = inp["heat"]
    with tr.span("intervals.uniform_basis"):
        uniform_basis(h["l"], h["bc"][0], h["bc"][1], N_HEAT)


def series_check(inp: dict, out: dict, chk: Checker) -> None:
    s = inp["string"]
    e1, etot = out["string_energy"]
    chk.close("plucked-string energy fraction", e1 / etot, 96.0 / math.pi**4, 1e-4)
    chk.true("string values finite", all(math.isfinite(v) for v in out["string_vals"]))

    # Integral of T0 against each normalized mode, in closed form: modes
    # with a Dirichlet left end are c sin(kx) with c = X'(0)/k, the others
    # c (cos kx + (h1/k) sin kx) with c = X(0), the zero mode 1/sqrt(l).
    h = inp["heat"]
    left, l, T0 = h["bc"][0], h["l"], h["T0"]
    for mode, got in zip(out["heat_modes"], out["heat_coeffs"]):
        k = mode.xi / l
        if mode.is_zero_mode:
            want = T0 * math.sqrt(l)
        elif left.dirichlet:
            c = mode.shape_prime(0.0) / k
            want = T0 * c * (1.0 - math.cos(k * l)) / k
        else:
            c = mode.shape(0.0)
            want = T0 * c * (math.sin(k * l) / k + left.h * (1.0 - math.cos(k * l)) / (k * k))
        chk.close(f"heat coefficient {mode.index}", got, want, 1e-10 * T0 * max(1.0, math.sqrt(l)))
    chk.true("heat values finite", all(math.isfinite(v) for v in out["heat_vals"]))

    b = inp["beam"]
    mu = sb.beam_char_roots(b["bc"], b["mode"])[b["mode"] - 1]
    omega = b["c"] * mu * mu / (b["l"] ** 2)
    want = b["amp"] * sb.beam_mode(b["bc"], b["mode"], b["x"] * b["l"], b["l"]) * math.cos(omega * b["t"])
    chk.close("beam single-mode response", out["beam"], want, 1e-8 * b["amp"] / math.sqrt(b["l"]))

    f = inp["fb"]
    alphas = [bessel_zero(ZeroFamily.BESSEL_J, 0, k) for k in range(1, N_FB + 1)]
    ref = [8.0 * f["amp"] / (a**3 * bessel_j(1, a)) for a in alphas]
    for k, (got, want) in enumerate(zip(out["fb_coeffs"], ref), start=1):
        chk.close(f"Fourier-Bessel c_{k} of 1-r^2", got, want, 1e-9 * f["amp"])
    for r, got in zip(f["r"] * f["R"], out["fb_vals"]):
        want = sum(c * bessel_j(0, a * r / f["R"]) for c, a in zip(ref, alphas))
        chk.close(f"Fourier-Bessel reconstruction at r={r:.3f}", got, want, 1e-9 * f["amp"])

    g = inp["leg"]
    size = float(np.max(np.abs(g["b"])))
    for n, got in enumerate(out["leg_coeffs"]):
        chk.close(f"Legendre c_{n}", got, float(g["b"][n]), 1e-10 * size)
    for x, got in zip(g["x"], out["leg_vals"]):
        chk.close(f"Legendre reconstruction at x={x:.3f}", got, float(np.polynomial.legendre.legval(x, g["b"])),
                  1e-10 * size * N_LEG)

    c = inp["cyl"]
    chk.close("cylinder T0(r, z) path vs T0(r) path", out["cyl_rz"], out["cyl_r"], 1e-9 * c["amp"])

    d = inp["ball"]
    r, th, R = d["r"] * d["R"], d["theta"], d["R"]
    want = (d["A"] * _sph_j0(math.pi * r / R) * math.exp(-(math.pi / R) ** 2 * d["a2"] * d["t"])
            + d["B"] * _sph_j1(J1_ZERO * r / R) * math.cos(th) * math.exp(-(J1_ZERO / R) ** 2 * d["a2"] * d["t"]))
    chk.close("ball axisymmetric cooling of two modes", out["ball_axisym"], want, 1e-8 * (abs(d["A"]) + abs(d["B"])))
    want = d["C"] + d["A"] * (r / R) * math.cos(th)
    chk.close("ball Laplace with cos(theta) data", out["ball_laplace"], want, 1e-10 * (abs(d["A"]) + abs(d["C"])))

    m = inp["disk"]
    alpha = bessel_zero(ZeroFamily.BESSEL_J, 0, m["mode"])
    want = m["amp"] * bessel_j(0, alpha * m["r"]) * math.cos(alpha * m["a"] * m["t"] / m["R"])
    chk.close("disk single-mode motion", out["disk"], want, 1e-8 * m["amp"])


# ----------------------------------------------------------------------
# cli_oneshot: one fresh `python -m spectralbvp.cli` process per operation
# ----------------------------------------------------------------------

# Si(pi), the Wilbraham-Gibbs constant (A&S 5.2.1 tabulation).
SI_PI = 1.851937051982466
# Runner of each registered kind -> the package module doing its work.
RUNNER_LAYER = {
    "ball.radial": "geomnd",
    "beam.buckling": "beams",
    "beam.roots": "beams",
    "bessel.zeros": "specfun",
    "brachistochrone.fit": "varsolve",
    "gibbs.scan": "waves1d",
    "heat.interval": "heat1d",
    "membrane.disk": "geomnd",
    "sturm.eigen": "intervals",
    "weyl.count": "weyl",
}
KINDS = sorted(cli.REGISTRY)
BESSEL_FAMILIES = [f.value for f in ZeroFamily if f != ZeroFamily.RADIAL_ROBIN]  # radial_robin needs a param the CLI has no key for


def _scaled(r, default: float) -> float:
    return float(default * r.uniform(1.0, 3.0))


def _iscaled(r, default: int) -> int:
    return int(r.integers(default, 3 * default + 1))


def _end_str(r) -> str:
    kind = r.integers(0, 3)
    if kind == 0:
        return "dirichlet"
    if kind == 1:
        return "neumann"
    return repr(float(r.uniform(0.2, 4.0)))  # continuous draw: no Robin h repeats


def cli_params(kind: str, r) -> dict:
    """Seeded parameters: registered defaults scaled up to three times."""
    if kind == "ball.radial":
        bc = ["dirichlet", "neumann", "robin"][int(r.integers(0, 3))]
        p = {"R": _scaled(r, 1.0), "a2": _scaled(r, 1.0), "bc": bc, "k_max": _iscaled(r, 5)}
        if bc == "robin":
            p["h"] = float(r.uniform(0.2, 4.0))
        return p
    if kind == "beam.buckling":
        bc = ["clamped_clamped", "pinned_pinned", "clamped_free"][int(r.integers(0, 3))]
        return {"bc": bc, "E": _scaled(r, 1.0), "J": _scaled(r, 1.0), "l": _scaled(r, 1.0)}
    if kind == "beam.roots":
        bcs = [b.value for b in sb.BeamBC]
        return {"bc": bcs[int(r.integers(0, len(bcs)))], "k_max": _iscaled(r, 3), "c": _scaled(r, 1.0), "l": _scaled(r, 1.0)}
    if kind == "bessel.zeros":
        family = BESSEL_FAMILIES[int(r.integers(0, len(BESSEL_FAMILIES)))]
        return {"family": family, "order": int(r.integers(0, 4)), "k_max": _iscaled(r, 5)}
    if kind == "brachistochrone.fit":
        return {"l": float(r.uniform(0.5, 3.0)), "h": float(r.uniform(0.5, 3.0)), "g": _scaled(r, 9.80665)}
    if kind == "gibbs.scan":
        return {"d": _scaled(r, 1.0), "l": _scaled(r, 1.0), "n_max": _iscaled(r, 512)}
    if kind == "heat.interval":
        l, a2 = _scaled(r, 1.0), _scaled(r, 1.0)
        # t >= 0.02 l^2/a2 keeps the discarded modes below 1e-14
        return {"l": l, "a2": a2, "T0": _scaled(r, 1.0), "t": float(r.uniform(0.02, 0.2)) * l * l / a2,
                "left": _end_str(r), "right": _end_str(r), "n_modes": _iscaled(r, 32), "grid": _iscaled(r, 16)}
    if kind == "membrane.disk":
        return {"R": _scaled(r, 1.0), "a": _scaled(r, 1.0), "m_max": _iscaled(r, 2), "k_max": _iscaled(r, 3)}
    if kind == "sturm.eigen":
        return {"l": _scaled(r, 1.0), "a": _scaled(r, 1.0), "left": _end_str(r), "right": _end_str(r),
                "n_max": _iscaled(r, 5)}
    if kind == "weyl.count":
        l, a = _scaled(r, 1.0), _scaled(r, 1.0)
        return {"l": l, "a": a, "bc": ["dirichlet", "neumann"][int(r.integers(0, 2))],
                "lam": float(r.uniform(50.0, 500.0)) * (a / l) ** 2, "samples": _iscaled(r, 8)}
    raise KeyError(f"no parameter generator for registered kind {kind!r}")


def cli_inputs(seed: int, i: int, workdir: str) -> dict:
    r = _rng(seed, i)
    kind = KINDS[i % len(KINDS)]
    fmt = "json" if (i // len(KINDS)) % 2 else "csv"
    params = cli_params(kind, r)
    spec = os.path.join(workdir, f"op{i}.txt")
    lines = ["schema_version = 1", f"kind = {kind}"]
    lines += [f"param.{k} = {v!r}" if isinstance(v, float) else f"param.{k} = {v}" for k, v in params.items()]
    lines.append(f"output.format = {fmt}")
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"kind": kind, "fmt": fmt, "params": params, "spec": spec, "out": os.path.join(workdir, f"op{i}.{fmt}")}


def cli_run(inp: dict, tr) -> dict:
    if not tr.enabled:
        cmd = [sys.executable, "-m", "spectralbvp.cli", "--spec", inp["spec"], "--out", inp["out"]]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        return {"code": proc.returncode, "stderr": proc.stderr}
    # Traced: a benchmark-owned child replays cli.run through its public
    # pieces and reports its spans on stdout.
    cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), inp["spec"], inp["out"]]
    with tr.span("cli.child", layer="process"):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            for name, start, end in json.loads(proc.stdout.splitlines()[-1]):
                kind = name[len("cli.runner."):] if name.startswith("cli.runner.") else None
                tr.add(name, RUNNER_LAYER[kind] if kind else "cli", start, end)
    return {"code": proc.returncode, "stderr": proc.stderr}


def _read_table(path: str, fmt: str) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        payload = json.loads(text)
        return payload["metadata"], payload["columns"]
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    columns = {name: [float(row[j]) for row in rows[1:]] for j, name in enumerate(rows[0])}
    return meta, columns


def _xi_residual(xi: float, left: str, right: str, l: float) -> float:
    """Scaled characteristic of X'' + k^2 X = 0 on [0, l] at xi = k l.

    With X = sin(kx) for a Dirichlet left end and cos(kx) + (h1/k) sin(kx)
    otherwise, the right end asks X(l) = 0 (Dirichlet) or l X'(l) + eta2 X(l) = 0."""
    def eta(end):
        return 0.0 if end == "neumann" else float(end) * l
    if left == "dirichlet":
        x_l, dx_l = math.sin(xi), xi * math.cos(xi)
        size = 1.0 + xi
    else:
        e1 = eta(left)
        x_l, dx_l = math.cos(xi) + e1 / xi * math.sin(xi), -xi * math.sin(xi) + e1 * math.cos(xi)
        size = (1.0 + e1 / xi) * (1.0 + xi + e1)
    if right == "dirichlet":
        return x_l / size
    e2 = eta(right)
    return (dx_l + e2 * x_l) / (size * (1.0 + e2))


def _heat_series(p: dict, x: float) -> float:
    """u(x, t) of the heat.interval kind, independent of the package:
    xi_n = k_n l from sign changes of ``_xi_residual`` on a grid that
    misses the multiples of pi/2 (refined by bisection), the modes of
    ``_xi_residual``'s docstring, and the integrals of X and X^2 over
    [0, l] in closed form.  Expects an end pair other than
    Dirichlet-Dirichlet and Neumann-Neumann."""
    left, right, l = p["left"], p["right"], p["l"]
    h1 = 0.0 if left in ("dirichlet", "neumann") else float(left)

    def res(xi):
        return _xi_residual(xi, left, right, l)

    grid = (np.arange(200 * (p["n_modes"] + 2)) + 0.5) * (math.pi / 200.0)
    vals = [res(float(g)) for g in grid]
    total = 0.0
    roots = 0
    for j in range(len(grid) - 1):
        if roots == p["n_modes"]:
            break
        if vals[j] * vals[j + 1] >= 0.0:
            continue
        lo, hi, f_lo = float(grid[j]), float(grid[j + 1]), vals[j]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            f_mid = res(mid)
            if f_mid * f_lo > 0.0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        roots += 1
        k = 0.5 * (lo + hi) / l
        s2 = math.sin(2.0 * k * l) / (4.0 * k)
        if left == "dirichlet":
            int_x, int_x2, here = (1.0 - math.cos(k * l)) / k, l / 2.0 - s2, math.sin(k * x)
        else:
            beta = h1 / k
            int_x = math.sin(k * l) / k + beta * (1.0 - math.cos(k * l)) / k
            int_x2 = l / 2.0 + s2 + beta * math.sin(k * l) ** 2 / k + beta * beta * (l / 2.0 - s2)
            here = math.cos(k * x) + beta * math.sin(k * x)
        total += p["T0"] * int_x / int_x2 * here * math.exp(-p["a2"] * k * k * p["t"])
    if roots != p["n_modes"]:
        raise ValueError(f"found {roots} of {p['n_modes']} heat modes")
    return total


def _beam_residual(bc: str, mu: float, n: int) -> float:
    if bc == "pinned_pinned":
        return mu - n * math.pi
    if bc in ("clamped_clamped", "free_free"):
        return math.cos(mu) - 1.0 / math.cosh(mu)
    if bc == "clamped_free":
        return math.cos(mu) + 1.0 / math.cosh(mu)
    return math.sin(mu) - math.cos(mu) * math.tanh(mu)  # clamped_pinned: tan = tanh


def cli_check(inp: dict, out: dict, chk: Checker) -> None:
    kind, p = inp["kind"], inp["params"]
    chk.true(f"{kind}: exit code {out['code']}: {out['stderr'].strip()[-300:]}", out["code"] == 0)
    if out["code"] != 0:
        return
    try:
        meta, cols = _read_table(inp["out"], inp["fmt"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        chk.true(f"{kind}: output does not parse: {exc!r}", False)
        return
    chk.true(f"{kind}: metadata kind {meta.get('kind')!r}", meta.get("kind") == kind)
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for col in cols.values() for v in col)
    chk.true(f"{kind}: non-finite or non-numeric cell", finite)
    if kind == "sturm.eigen":
        l, left, right = p["l"], p["left"], p["right"]
        chk.true(f"{kind}: {len(cols['lambda'])} rows", len(cols["lambda"]) == p["n_max"])
        for n, (lam, om) in enumerate(zip(cols["lambda"], cols["omega"]), start=1):
            chk.close(f"{kind}: omega_{n}", om, p["a"] * math.sqrt(lam), 1e-12 * max(1.0, om))
            if left == right == "dirichlet":
                chk.close(f"{kind}: Dirichlet lambda_{n}", lam, (n * math.pi / l) ** 2, 1e-12 * lam)
                continue
            xi = math.sqrt(lam) * l
            if xi == 0.0:
                chk.true(f"{kind}: zero mode outside Neumann-Neumann", left == right == "neumann" and n == 1)
                continue
            chk.close(f"{kind}: characteristic at xi_{n}", _xi_residual(xi, left, right, l), 0.0, 1e-9)
            chk.true(f"{kind}: xi_{n}={xi!r} not in [(n-1)pi, n pi]",
                     (n - 1) * math.pi - 1e-9 <= xi <= n * math.pi + 1e-9)
    elif kind == "beam.roots":
        mus = cols["mu"]
        chk.true(f"{kind}: {len(mus)} rows", len(mus) == p["k_max"])
        chk.true(f"{kind}: roots not ascending", all(a < b for a, b in zip(mus, mus[1:])))
        for n, (mu, om) in enumerate(zip(mus, cols["omega"]), start=1):
            chk.close(f"{kind}: {p['bc']} residual at mu_{n}", _beam_residual(p["bc"], mu, n), 0.0, 1e-9)
            chk.close(f"{kind}: omega_{n}", om, p["c"] * mu * mu / p["l"] ** 2, 1e-12 * om)
    elif kind == "beam.buckling":
        factor = {"clamped_clamped": 4.0, "pinned_pinned": 1.0, "clamped_free": 0.25}[p["bc"]]
        want = factor * math.pi**2 * p["E"] * p["J"] / p["l"] ** 2
        chk.close(f"{kind}: {p['bc']} critical load", cols["F_critical"][0], want, 1e-8 * want)
    elif kind == "bessel.zeros":
        chk.true(f"{kind}: {len(cols['root'])} rows", len(cols["root"]) == p["k_max"])
        for k, got in enumerate(cols["root"], start=1):
            want = bessel_zero(p["family"], p["order"], k)
            chk.close(f"{kind}: {p['family']} order {p['order']} root {k}", got, want, 1e-12 * want)
    elif kind == "membrane.disk":
        chk.true(f"{kind}: rows", len(cols["omega"]) == (p["m_max"] + 1) * p["k_max"])
        for m, k, om in zip(cols["m"], cols["k"], cols["omega"]):
            want = bessel_zero(ZeroFamily.BESSEL_J, int(m), int(k)) * p["a"] / p["R"]
            chk.close(f"{kind}: omega_{int(m)},{int(k)}", om, want, 1e-12 * want)
    elif kind == "ball.radial":
        hr = p.get("h", 0.0) * p["R"]
        for k, gam, lam in zip(cols["k"], cols["gamma"], cols["lambda"]):
            if p["bc"] == "dirichlet":
                chk.close(f"{kind}: gamma_{int(k)}", gam, k * math.pi, 1e-12 * gam)
            elif p["bc"] == "neumann":
                chk.close(f"{kind}: tan(gamma_{int(k)}) = gamma", (math.sin(gam) - gam * math.cos(gam)) / (1.0 + gam), 0.0, 1e-9)
            else:
                res = (gam * math.cos(gam) + (hr - 1.0) * math.sin(gam)) / (1.0 + gam + abs(hr - 1.0))
                chk.close(f"{kind}: Robin residual at gamma_{int(k)}", res, 0.0, 1e-9)
            chk.close(f"{kind}: lambda_{int(k)}", lam, (gam / p["R"]) ** 2, 1e-12 * lam)
    elif kind == "gibbs.scan":
        limit = 2.0 * SI_PI / math.pi * p["d"]
        chk.close(f"{kind}: overshoot limit", cols["limit"][0], limit, 1e-12 * limit)
        # the overshoot approaches its limit as 1/N; N doubles per row, so
        # Richardson extrapolation from the last two rows is O(1/N^2) off
        extrapolated = 2.0 * cols["overshoot"][-1] - cols["overshoot"][-2]
        chk.close(f"{kind}: overshoot extrapolated from N={int(cols['N'][-1])}", extrapolated, limit, 1e-4 * limit)
    elif kind == "heat.interval":
        T0, l, a2, t = p["T0"], p["l"], p["a2"], p["t"]
        ends = (p["left"], p["right"])
        for x, u in zip(cols["x"], cols["u"]):
            if ends == ("dirichlet", "dirichlet"):
                want = sum(4.0 * T0 / (n * math.pi) * math.sin(n * math.pi * x / l) * math.exp(-a2 * (n * math.pi / l) ** 2 * t)
                           for n in range(1, 2 * p["n_modes"], 2))
                chk.close(f"{kind}: Dirichlet closed form at x={x!r}", u, want, 1e-9 * T0)
            elif ends == ("neumann", "neumann"):
                chk.close(f"{kind}: insulated rod keeps T0 at x={x!r}", u, T0, 1e-9 * abs(T0))
            else:
                chk.close(f"{kind}: {ends[0]}/{ends[1]} series at x={x!r}", u, _heat_series(p, x), 1e-9 * T0)
            chk.true(f"{kind}: u({x!r}) = {u!r} breaks the maximum principle", abs(u) <= T0 * (1.0 + 1e-9))
        if p["left"] == "dirichlet":
            chk.close(f"{kind}: u at a Dirichlet left end", cols["u"][0], 0.0, 1e-12 * T0)
    elif kind == "weyl.count":
        lams = cols["lambda"]
        chk.true(f"{kind}: a count decreases along the lambda grid", all(a <= b for a, b in zip(cols["count"], cols["count"][1:])))
        for j, (lam, est) in enumerate(zip(lams, cols["weyl"]), start=1):
            chk.close(f"{kind}: lambda grid {j}", lam, p["lam"] * j / p["samples"], 1e-12 * lam)
            want = p["l"] ** 2 * lam / (4.0 * math.pi * p["a"] ** 2)
            chk.close(f"{kind}: Weyl estimate {j}", est, want, 1e-12 * want)
    elif kind == "brachistochrone.fit":
        phi, c1, travel = cols["phi2"][0], cols["C1"][0], cols["travel_time"][0]
        chk.close(f"{kind}: x(phi2) = l", c1 * (phi - math.sin(phi)), p["l"], 1e-9 * p["l"])
        chk.close(f"{kind}: y(phi2) = h", c1 * (1.0 - math.cos(phi)), p["h"], 1e-9 * p["h"])
        chk.close(f"{kind}: travel time", travel, phi * math.sqrt(c1 / p["g"]), 1e-12 * travel)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable
    run: Callable
    check: Callable
    probe: Callable | None = None
    warmup: bool = False  # one untimed operation before timing starts
    children_rss: bool = False  # peak RSS is that of the child processes


# Why each workload was chosen: bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sturm_eigen", sturm_inputs, sturm_run, sturm_check, sturm_probe),
        Workload("series_expand", series_inputs, series_run, series_check, series_probe, warmup=True),
        Workload("cli_oneshot", cli_inputs, cli_run, cli_check, children_rss=True),
    )
}
