"""Output bits that do not depend on the machine's BLAS kernel or on numpy's
CPU dispatch level.

Every product in the package runs in numpy's own ``einsum`` loop with a
fixed subscript, never through BLAS, whose ``DYNAMIC_ARCH`` builds pick a
kernel (and with it a summation order) at run time.  Each environment below
runs in its own interpreter, which runs every CLI kind on the benchmark's
seeded problem files (one spec per kind, CSV and JSON) through ``cli.run``,
and eight ``sturm_eigen`` and two ``series_expand`` benchmark operations, and
prints one digest of the CLI bytes and one each of the Sturm and the series
values.

``OPENBLAS_CORETYPE`` picks OpenBLAS's kernel; ``NPY_DISABLE_CPU_FEATURES``
drops numpy's AVX-512 dispatch targets.  Both are silently ignored where
they do not apply: a BLAS built without ``DYNAMIC_ARCH``, a CPU without
AVX-512, or a numpy that names its features otherwise.  There the test
compares equal runs and passes trivially.

The Sturm values use no numpy transcendental and are compared across
both.  The series digest is compared across BLAS kernels only: numpy's
AVX-512 ``exp`` and ``log`` round differently from its other targets, and
the package cannot choose numpy's kernel per call.
"""

import os
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"
CORETYPES = [None, "Haswell", "Sandybridge"]
CPU_FEATURES = [None, "AVX512_SPR AVX512_ICL X86_V4"]

CHILD = r"""
import hashlib, sys, tempfile
sys.path.insert(0, sys.argv[1])
import workloads
from tracing import NullTracer
from spectralbvp import cli

cli_bytes = hashlib.sha256()
with tempfile.TemporaryDirectory() as workdir:
    for i in range(2 * len(workloads.KINDS)):
        inp = workloads.cli_inputs(1, i, workdir)
        cli.run(inp["spec"], inp["out"], [], None)
        with open(inp["out"], "rb") as fh:
            cli_bytes.update(fh.read())
sturm, series = [], []
for i in range(8):
    out = workloads.sturm_run(workloads.sturm_inputs(1, i, ""), NullTracer())
    picard = out["picard"]
    sturm.append((out["basis"].eigenvalues, out["roots"], out["coef"], picard.values.tolist(), picard.derivs.tolist()))
for i in range(2):
    out = workloads.series_run(workloads.series_inputs(1, i, ""), NullTracer())
    series.append(sorted((k, v) for k, v in out.items() if k != "heat_modes"))
print(cli_bytes.hexdigest(), *(hashlib.sha256(repr(v).encode()).hexdigest() for v in (sturm, series)))
"""


def _digests(coretype, features):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    if features:
        env["NPY_DISABLE_CPU_FEATURES"] = features
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, str(BENCH_DIR)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


@pytest.fixture(scope="module")
def digests():
    """(cli, sturm, series) digests per (coretype, features), two interpreters at a time."""
    envs = [(c, f) for f in CPU_FEATURES for c in CORETYPES]
    found = {}
    for start in range(0, len(envs), 2):
        procs = {env: _digests(*env) for env in envs[start : start + 2]}
        for env, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            found[env] = tuple(stdout.split())
    return found


def test_cli_bytes_do_not_depend_on_blas_kernel_or_dispatch_level(digests):
    assert len({cli for cli, _, _ in digests.values()}) == 1, digests


def test_sturm_values_do_not_depend_on_blas_kernel_or_dispatch_level(digests):
    assert len({sturm for _, sturm, _ in digests.values()}) == 1, digests


def test_series_values_do_not_depend_on_blas_kernel(digests):
    for features in CPU_FEATURES:
        assert len({digests[c, features][2] for c in CORETYPES}) == 1, digests
