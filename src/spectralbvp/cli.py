"""Command-line front end: parse a problem file, dispatch to the solvers and
emit a reproducible table as CSV or JSON.

Problem files are flat ``key = value`` text with dotted keys forming a small
tree::

    schema_version = 1
    kind = beam.roots
    param.bc = clamped_clamped
    param.k_max = 3
    output.format = csv

Unknown keys are rejected; values are overridable from the command line with
repeatable ``--set key=value`` flags.  Output is written atomically and is
byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from . import __version__

if TYPE_CHECKING:
    from .sturm import BoundaryCondition

__all__ = ["main", "run", "list_problems", "ValidationError", "SolverError"]

EXIT_VALIDATION = 2
EXIT_SOLVER = 3


class ValidationError(Exception):
    """Problem file failed validation; carries the offending field path."""


class SolverError(Exception):
    """The dispatched solver failed or produced non-finite output."""


@dataclass
class Param:
    type: type
    required: bool = True
    default: object = None
    choices: tuple | None = None
    positive: bool = False


@dataclass
class ProblemKind:
    name: str
    params: dict[str, Param]
    runner: Callable[[dict], tuple[dict[str, list], dict]]
    description: str = ""


@dataclass
class ResultTable:
    """Named columns of equal length plus run metadata."""

    columns: dict[str, list]
    metadata: dict

    def validate(self) -> None:
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise SolverError("ragged result table")
        for name, col in self.columns.items():
            for v in col:
                if isinstance(v, float) and not math.isfinite(v):
                    raise SolverError(f"non-finite value in column {name!r}")


# ----------------------------------------------------------------------
# Problem runners
#
# Each runner imports its solver when it runs, so a process loads only the
# modules of the kind it dispatches (and --list/--help load none).
# ----------------------------------------------------------------------

def _bc_from_string(s: str) -> BoundaryCondition:
    from .sturm import BoundaryCondition

    if s == "dirichlet":
        return BoundaryCondition.dirichlet_bc()
    if s == "neumann":
        return BoundaryCondition.neumann()
    try:
        return BoundaryCondition.robin(float(s))
    except ValueError:
        raise ValidationError(f"boundary condition must be 'dirichlet', 'neumann' or a Robin h value, got {s!r}")


def _run_sturm_eigen(p: dict):
    from .intervals import uniform_basis

    basis = uniform_basis(p["l"], _bc_from_string(p["left"]), _bc_from_string(p["right"]), p["n_max"])
    rows = {
        "n": list(range(1, len(basis) + 1)),
        "lambda": [m.lam for m in basis.modes],
        "omega": [p["a"] * math.sqrt(m.lam) for m in basis.modes],
    }
    return rows, {"tolerance": 1e-12}


def _run_beam_roots(p: dict):
    from .beams import beam_spectrum

    spectrum = beam_spectrum(p["bc"], p["k_max"], c=p["c"], l=p["l"])
    ns = list(range(1, len(spectrum.roots) + 1))
    rows = {"n": ns, "mu": list(spectrum.roots), "omega": [spectrum.omega(n) for n in ns]}
    return rows, {"tolerance": 1e-10}


def _run_beam_buckling(p: dict):
    from .beams import buckling_critical

    f = buckling_critical(p["bc"], p["E"], p["J"], p["l"])
    return {"F_critical": [f]}, {"tolerance": 1e-8}


def _run_gibbs_scan(p: dict):
    from .specfun import GIBBS_CONSTANT
    from .waves1d import gibbs_partial_sum

    ns, overshoot = [], []
    n = 8
    while n <= p["n_max"]:
        x = p["l"] / (n + 0.5)
        ns.append(n)
        overshoot.append(gibbs_partial_sum(p["d"], p["l"], n, x))
        n *= 2
    limit = 2.0 * GIBBS_CONSTANT / math.pi * p["d"]
    return (
        {"N": ns, "overshoot": overshoot, "limit": [limit] * len(ns)},
        {"overshoot_limit": limit},
    )


def _run_heat_interval(p: dict):
    from .heat1d import HeatMedium, heat_interval_modes

    medium = HeatMedium(a2=p["a2"])
    bc = (_bc_from_string(p["left"]), _bc_from_string(p["right"]))
    sol = heat_interval_modes(bc, lambda x: p["T0"], medium, p["l"], p["n_modes"])
    xs = [p["l"] * i / p["grid"] for i in range(p["grid"] + 1)]
    # one array call; .tolist() gives the Python floats that _format_cell reprs
    rows = {"x": xs, "u": sol(xs, p["t"]).tolist()}
    taus = [t for t in sol.relaxation_times if math.isfinite(t)]
    return rows, {
        "truncation": p["n_modes"],
        "tail_envelope": sol.truncation_factor(p["t"]),
        "slowest_relaxation_time": max(taus) if taus else None,
    }


def _run_membrane_disk(p: dict):
    from .geomnd import DiskMembrane, disk_membrane_modes

    spec = DiskMembrane(radius=p["R"], a=p["a"])
    ms, ks, oms = [], [], []
    for m in range(0, p["m_max"] + 1):
        for k in range(1, p["k_max"] + 1):
            omega, _ = disk_membrane_modes(spec, m, k)
            ms.append(m)
            ks.append(k)
            oms.append(omega)
    return {"m": ms, "k": ks, "omega": oms}, {"tolerance": 1e-10}


def _run_weyl_count(p: dict):
    from .weyl import CountingFunction, Domain, WallBC, count_exact, weyl_estimate

    cf = CountingFunction(Domain.square(p["l"]), WallBC(p["bc"]), p["a"])
    lams = [p["lam"] * i / p["samples"] for i in range(1, p["samples"] + 1)]
    counts = [count_exact(cf, lam) for lam in lams]
    est = [weyl_estimate(p["l"] ** 2, 2, p["a"], lam) for lam in lams]
    ratio = [c / e if e > 0 else 0.0 for c, e in zip(counts, est)]
    return (
        {"lambda": lams, "count": counts, "weyl": est, "ratio": ratio},
        {"guard_band": 1e-9},
    )


def _run_bessel_zeros(p: dict):
    from .specfun import zero_table

    roots = list(zero_table(p["family"], p["order"], p["k_max"]).roots)
    return {"k": list(range(1, len(roots) + 1)), "root": roots}, {"tolerance": 1e-10}


def _run_ball_radial(p: dict):
    from .geomnd import BallBC, BallSpec, ball_radial_modes

    spec = BallSpec(radius=p["R"], bc=BallBC(p["bc"]), a2=p["a2"], h=p["h"])
    ks, gams, lams = [], [], []
    for k in range(1, p["k_max"] + 1):
        lam, _ = ball_radial_modes(spec, k)
        ks.append(k)
        lams.append(lam)
        gams.append(math.sqrt(lam) * p["R"])
    return {"k": ks, "gamma": gams, "lambda": lams}, {"tolerance": 1e-10}


def _run_brachistochrone(p: dict):
    from .varsolve import brachistochrone_fit

    fit = brachistochrone_fit(p["l"], p["h"], gravity=p["g"])
    return (
        {"phi2": [fit.phi2], "C1": [fit.c1], "travel_time": [fit.travel_time]},
        {"endpoint_residual": abs(fit.x(fit.phi2) - p["l"])},
    )


REGISTRY: dict[str, ProblemKind] = {}


def _register(name: str, description: str, runner, **params: Param) -> None:
    REGISTRY[name] = ProblemKind(name=name, params=params, runner=runner, description=description)


_register(
    "ball.radial",
    "radial eigenvalues of the ball",
    _run_ball_radial,
    R=Param(float, required=False, default=1.0, positive=True),
    a2=Param(float, required=False, default=1.0, positive=True),
    bc=Param(str, required=False, default="dirichlet", choices=("dirichlet", "neumann", "robin")),
    h=Param(float, required=False, default=0.0),
    k_max=Param(int, required=False, default=5, positive=True),
)
_register(
    "beam.buckling",
    "critical compressive load of a uniform beam",
    _run_beam_buckling,
    bc=Param(str, choices=("clamped_clamped", "pinned_pinned", "clamped_free")),
    E=Param(float, required=False, default=1.0, positive=True),
    J=Param(float, required=False, default=1.0, positive=True),
    l=Param(float, required=False, default=1.0, positive=True),
)
_register(
    "beam.roots",
    "characteristic roots and natural frequencies of a uniform beam",
    _run_beam_roots,
    bc=Param(str, choices=("clamped_clamped", "clamped_free", "pinned_pinned", "clamped_pinned", "free_free")),
    k_max=Param(int, required=False, default=3, positive=True),
    c=Param(float, required=False, default=1.0, positive=True),
    l=Param(float, required=False, default=1.0, positive=True),
)
_register(
    "bessel.zeros",
    "roots of Bessel-family characteristic equations",
    _run_bessel_zeros,
    # every ZeroFamily but radial_robin, whose Robin constant h*R no parameter carries
    family=Param(
        str,
        required=False,
        default="bessel_j",
        choices=("bessel_j", "bessel_j_prime", "beam_cc", "beam_cf", "beam_cp", "radial_tan"),
    ),
    order=Param(int, required=False, default=0),
    k_max=Param(int, required=False, default=5, positive=True),
)
_register(
    "brachistochrone.fit",
    "cycloid of fastest descent through an endpoint",
    _run_brachistochrone,
    l=Param(float, positive=True),
    h=Param(float, positive=True),
    g=Param(float, required=False, default=9.80665, positive=True),
)
_register(
    "gibbs.scan",
    "partial-sum overshoot of the sawtooth series near its jump",
    _run_gibbs_scan,
    d=Param(float, required=False, default=1.0, positive=True),
    l=Param(float, required=False, default=1.0, positive=True),
    n_max=Param(int, required=False, default=512, positive=True),
)
_register(
    "heat.interval",
    "cooling of a uniform interval from a constant initial temperature",
    _run_heat_interval,
    l=Param(float, required=False, default=1.0, positive=True),
    a2=Param(float, required=False, default=1.0, positive=True),
    T0=Param(float, required=False, default=1.0),
    t=Param(float, positive=True),
    left=Param(str, required=False, default="dirichlet"),
    right=Param(str, required=False, default="dirichlet"),
    n_modes=Param(int, required=False, default=32, positive=True),
    grid=Param(int, required=False, default=16, positive=True),
)
_register(
    "membrane.disk",
    "frequencies of the clamped circular membrane",
    _run_membrane_disk,
    R=Param(float, required=False, default=1.0, positive=True),
    a=Param(float, required=False, default=1.0, positive=True),
    m_max=Param(int, required=False, default=2),
    k_max=Param(int, required=False, default=3, positive=True),
)
_register(
    "sturm.eigen",
    "eigenvalues of the uniform interval under mixed end conditions",
    _run_sturm_eigen,
    l=Param(float, required=False, default=1.0, positive=True),
    a=Param(float, required=False, default=1.0, positive=True),
    left=Param(str, required=False, default="dirichlet"),
    right=Param(str, required=False, default="dirichlet"),
    n_max=Param(int, required=False, default=5, positive=True),
)
_register(
    "weyl.count",
    "exact lattice count vs the smooth eigenvalue-count estimate",
    _run_weyl_count,
    l=Param(float, required=False, default=1.0, positive=True),
    a=Param(float, required=False, default=1.0, positive=True),
    bc=Param(str, required=False, default="dirichlet", choices=("dirichlet", "neumann")),
    lam=Param(float, positive=True),
    samples=Param(int, required=False, default=8, positive=True),
)


# ----------------------------------------------------------------------
# Problem-file parsing and validation
# ----------------------------------------------------------------------

SCHEMA_VERSION = 1


def parse_problem_file(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment; dotted keys nest."""
    tree: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValidationError(f"line {lineno}: empty key")
        if key in tree:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        tree[key] = value
    return tree


def _coerce(name: str, raw: str, param: Param):
    try:
        if param.type is int:
            value = int(raw)
        elif param.type is float:
            value = float(raw)
        else:
            value = raw
    except ValueError:
        raise ValidationError(f"param.{name}: expected {param.type.__name__}, got {raw!r}")
    if param.type is float and not math.isfinite(value):
        raise ValidationError(f"param.{name}: must be finite, got {raw!r}")
    if param.choices is not None and value not in param.choices:
        raise ValidationError(f"param.{name}: must be one of {param.choices}, got {value!r}")
    if param.positive and isinstance(value, (int, float)) and value <= 0:
        raise ValidationError(f"param.{name}: must be positive, got {value!r}")
    return value


def validate_problem(tree: dict) -> tuple[ProblemKind, dict, dict]:
    version = tree.get("schema_version")
    if version is None:
        raise ValidationError("schema_version: missing")
    if version.strip() != str(SCHEMA_VERSION):
        raise ValidationError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    kind_name = tree.get("kind")
    if kind_name is None:
        raise ValidationError("kind: missing")
    kind = REGISTRY.get(kind_name.strip())
    if kind is None:
        raise ValidationError(f"kind: unknown problem kind {kind_name!r}")
    outputs = {"format": "csv"}
    params: dict = {}
    for key, raw in tree.items():
        if key in ("schema_version", "kind"):
            continue
        if key.startswith("param."):
            name = key[len("param."):]
            if name not in kind.params:
                raise ValidationError(f"param.{name}: unknown parameter for kind {kind.name!r}")
            params[name] = _coerce(name, raw, kind.params[name])
        elif key == "output.format":
            if raw not in ("csv", "json"):
                raise ValidationError(f"output.format: must be 'csv' or 'json', got {raw!r}")
            outputs["format"] = raw
        else:
            raise ValidationError(f"{key}: unknown key")
    for name, param in kind.params.items():
        if name not in params:
            if param.required:
                raise ValidationError(f"param.{name}: required for kind {kind.name!r}")
            params[name] = param.default
    return kind, params, outputs


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    for key in sorted(table.metadata):
        buf.write(f"# {key}={table.metadata[key]}\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    names = list(table.columns)
    writer.writerow(names)
    length = len(next(iter(table.columns.values()))) if table.columns else 0
    for i in range(length):
        writer.writerow([_format_cell(table.columns[n][i]) for n in names])
    return buf.getvalue()


def render_json(table: ResultTable) -> str:
    payload = {"metadata": table.metadata, "columns": table.columns}
    try:
        return json.dumps(payload, allow_nan=False, indent=2, sort_keys=True) + "\n"
    except ValueError as exc:
        raise SolverError(f"non-finite value in output: {exc}")


# Exclusive create of a fresh name, no symlink followed, owner-only mode: what
# tempfile.mkstemp does, without importing tempfile (and shutil, random) in
# every CLI process.  O_BINARY keeps Windows from translating newlines.
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_BINARY", 0)


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".spectralbvp-{os.urandom(8).hex()}")
    fd = os.open(tmp, _TEMP_FLAGS, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(spec_path: str, out_path: str | None, overrides: list[str], fmt: str | None) -> ResultTable:
    """Execute a problem file and return (and optionally write) its table."""
    table, rendered = _execute(spec_path, overrides, fmt)
    if out_path is not None:
        _atomic_write(out_path, rendered)
    return table


def _execute(spec_path: str, overrides: list[str], fmt: str | None) -> tuple[ResultTable, str]:
    """A problem file's table, rendered in fmt or else its output.format."""
    with open(spec_path, encoding="utf-8") as fh:
        tree = parse_problem_file(fh.read())
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        tree[key] = value
    kind, params, outputs = validate_problem(tree)
    if fmt is not None:
        outputs["format"] = fmt
    try:
        columns, metadata = kind.runner(params)
    except (ValidationError, SolverError):
        raise
    except Exception as exc:
        raise SolverError(f"{kind.name}: {exc}") from exc
    metadata = dict(metadata)
    metadata.setdefault("kind", kind.name)
    metadata.setdefault("solver_version", __version__)
    table = ResultTable(columns=columns, metadata=metadata)
    table.validate()
    return table, render_csv(table) if outputs["format"] == "csv" else render_json(table)


def list_problems(stream=None) -> list[str]:
    """Print and return all registered problem kinds (lexicographic)."""
    stream = stream or sys.stdout
    names = sorted(REGISTRY)
    for name in names:
        kind = REGISTRY[name]
        schema = ", ".join(
            f"{k}:{v.type.__name__}" + ("" if v.required else f"={v.default}")
            for k, v in kind.params.items()
        )
        stream.write(f"{name}: {kind.description} [{schema}]\n")
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectralbvp", description="Spectral boundary-value-problem solvers"
    )
    parser.add_argument("--spec", help="problem file to run")
    parser.add_argument("--out", help="output path (defaults to stdout)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--list", action="store_true", help="list registered problem kinds")
    args = parser.parse_args(argv)
    if args.list:
        list_problems()
        return 0
    if not args.spec:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: --spec or --list required\n")
        return EXIT_VALIDATION
    try:
        _, rendered = _execute(args.spec, args.overrides, args.format)
        if args.out is not None:
            _atomic_write(args.out, rendered)
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except (SolverError, OSError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER
    if args.out is None:
        sys.stdout.write(rendered)
    elif not args.quiet:
        sys.stdout.write(f"wrote {args.out}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
