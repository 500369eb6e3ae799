"""Command-line front end: parsing, validation, dispatch, output formats,
determinism and exit codes."""

import json
import math
import subprocess
import sys

import pytest

from spectralbvp.cli import (
    EXIT_SOLVER,
    EXIT_VALIDATION,
    REGISTRY,
    ValidationError,
    list_problems,
    main,
    parse_problem_file,
    run,
)


def write_spec(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


STURM_SPEC = """
schema_version = 1
kind = sturm.eigen
param.l = 1.0
param.n_max = 4
# defaults: dirichlet ends, unit speed
"""

BEAM_SPEC = """
schema_version = 1
kind = beam.roots
param.bc = clamped_clamped
param.k_max = 3
"""


def test_sturm_eigen_csv(tmp_path):
    out = tmp_path / "out.csv"
    run(write_spec(tmp_path, STURM_SPEC), str(out), [], None)
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("kind=sturm.eigen" in l for l in meta)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "n,lambda,omega"
    rows = [l.split(",") for l in lines[header_idx + 1 :]]
    for n, row in enumerate(rows, start=1):
        assert float(row[1]) == pytest.approx(math.pi**2 * n**2, rel=1e-12)


def test_beam_roots_values(tmp_path):
    table = run(write_spec(tmp_path, BEAM_SPEC), None, [], None)
    for got, want in zip(table.columns["mu"], (4.730, 7.853, 10.996)):
        assert abs(got - want) < 1e-3


def test_gibbs_scan_converges(tmp_path):
    spec = "schema_version = 1\nkind = gibbs.scan\nparam.n_max = 512\n"
    table = run(write_spec(tmp_path, spec), None, [], None)
    over = table.columns["overshoot"]
    limit = table.columns["limit"][0]
    assert limit == pytest.approx(1.1789797, abs=1e-3)
    errs = [abs(o - limit) for o in over]
    assert errs[-1] < errs[0]
    assert abs(over[-1] - 1.179) < 0.01


def test_registry_contents_and_order():
    names = list_problems(stream=open("/dev/null", "w"))
    for required in ("heat.interval", "membrane.disk", "weyl.count"):
        assert required in names
    assert names == sorted(names)
    assert list(REGISTRY) != []


def test_determinism_byte_identical(tmp_path):
    spec = write_spec(tmp_path, STURM_SPEC)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(spec, str(out1), [], None)
    run(spec, str(out2), [], None)
    assert out1.read_bytes() == out2.read_bytes()


def test_set_override(tmp_path):
    spec = write_spec(tmp_path, BEAM_SPEC)
    table = run(spec, None, ["param.k_max=5"], None)
    assert len(table.columns["mu"]) == 5


def test_json_format(tmp_path):
    spec = write_spec(tmp_path, BEAM_SPEC)
    out = tmp_path / "out.json"
    run(spec, str(out), [], "json")
    payload = json.loads(out.read_text())
    assert payload["metadata"]["kind"] == "beam.roots"
    assert len(payload["columns"]["mu"]) == 3


def test_validation_failures(tmp_path):
    cases = [
        ("kind = beam.roots\nparam.bc = clamped_clamped\n", "schema_version"),
        ("schema_version = 2\nkind = beam.roots\nparam.bc = clamped_clamped\n", "schema_version"),
        ("schema_version = 1\nkind = nope\n", "kind"),
        (STURM_SPEC + "param.bogus = 3\n", "param.bogus"),
        (STURM_SPEC + "outputs.format = csv\n", "outputs.format"),
        ("schema_version = 1\nkind = beam.roots\n", "param.bc"),
        ("schema_version = 1\nkind = beam.roots\nparam.bc = diagonal\n", "param.bc"),
        ("schema_version = 1\nkind = beam.roots\nparam.bc = clamped_clamped\nparam.k_max = -2\n", "param.k_max"),
    ]
    for text, needle in cases:
        with pytest.raises(ValidationError) as err:
            run(write_spec(tmp_path, text), None, [], None)
        assert needle in str(err.value)


def test_heat_interval_metadata(tmp_path):
    spec = (
        "schema_version = 1\nkind = heat.interval\nparam.t = 0.2\n"
        "param.n_modes = 24\nparam.grid = 8\n"
    )
    table = run(write_spec(tmp_path, spec), None, [], None)
    assert table.metadata["truncation"] == 24
    assert table.metadata["tail_envelope"] < 1e-14
    assert len(table.columns["x"]) == 9
    # clamped interval stays within the initial bounds
    assert all(-1e-9 <= u <= 1.0 for u in table.columns["u"])


# the parameters each kind requires; every other parameter takes its default
REQUIRED = {
    "beam.buckling": "param.bc = clamped_clamped",
    "beam.roots": "param.bc = clamped_free",
    "brachistochrone.fit": "param.l = 2.0\nparam.h = 1.0",
    "heat.interval": "param.t = 0.05",
    "weyl.count": "param.lam = 200.0",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_kind_writes_plain_numbers(tmp_path, fmt):
    """Every cell of every kind is a plain int or float: a numpy scalar
    would print as np.float64(...) in CSV."""
    for kind in REGISTRY:
        spec = write_spec(tmp_path, f"schema_version = 1\nkind = {kind}\n{REQUIRED.get(kind, '')}\n")
        out = tmp_path / f"out.{fmt}"
        run(spec, str(out), [], fmt)
        text = out.read_text()
        if fmt == "json":
            cells = [v for col in json.loads(text)["columns"].values() for v in col]
            assert cells and all(type(v) in (int, float) for v in cells), kind
        else:
            rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
            assert rows, kind
            for cell in (c for row in rows for c in row):
                float(cell)  # raises on np.float64(...)


def test_weyl_count_kind(tmp_path):
    lam = math.pi**2 * 50.5**2
    spec = f"schema_version = 1\nkind = weyl.count\nparam.lam = {lam}\nparam.samples = 4\n"
    table = run(write_spec(tmp_path, spec), None, [], None)
    assert table.columns["ratio"][-1] == pytest.approx(1.0, abs=0.1)


def test_main_exit_codes(tmp_path):
    spec = write_spec(tmp_path, BEAM_SPEC)
    assert main(["--spec", spec, "--out", str(tmp_path / "r.csv"), "--quiet"]) == 0
    assert main(["--list"]) == 0
    bad = write_spec(tmp_path, "schema_version = 1\nkind = nope\n", name="bad.txt")
    assert main(["--spec", bad]) == EXIT_VALIDATION
    assert main([]) == EXIT_VALIDATION
    missing = str(tmp_path / "missing.txt")
    assert main(["--spec", missing]) == EXIT_SOLVER


def test_console_entry_point(tmp_path):
    spec = write_spec(tmp_path, BEAM_SPEC)
    proc = subprocess.run(
        [sys.executable, "-m", "spectralbvp.cli", "--spec", spec],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "4.730040" in proc.stdout


def test_parse_problem_file_errors():
    with pytest.raises(ValidationError):
        parse_problem_file("just some words\n")
    with pytest.raises(ValidationError):
        parse_problem_file("a = 1\na = 2\n")
    tree = parse_problem_file("a = 1 # trailing comment\n\n# full comment\nb = x\n")
    assert tree == {"a": "1", "b": "x"}


def test_atomic_write_leaves_no_temp(tmp_path):
    spec = write_spec(tmp_path, BEAM_SPEC)
    out = tmp_path / "out.csv"
    run(spec, str(out), [], None)
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".spectralbvp-")]
    assert leftovers == []
    assert out.exists()


def test_solver_error_exit_code(tmp_path):
    # a Robin ball with h = 0 is rejected by the solver layer, not validation
    bad = write_spec(
        tmp_path,
        "schema_version = 1\nkind = ball.radial\nparam.bc = robin\nparam.h = 0.0\n",
        name="solver_error.txt",
    )
    assert main(["--spec", bad]) == EXIT_SOLVER
