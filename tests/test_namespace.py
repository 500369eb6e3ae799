"""The lazy package namespace: every public name resolves to its module's
object on first access, and importing the package loads no solver."""

import importlib
import json
import subprocess
import sys

import pytest

import spectralbvp

SOLVERS = {"beams", "geomnd", "heat1d", "intervals", "specfun", "sturm", "varsolve", "waves1d", "weyl"}


def _fresh(code: str):
    """Run code in a fresh interpreter; it prints one JSON value last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_public_name_is_its_modules_object():
    assert len(set(spectralbvp.__all__)) == len(spectralbvp.__all__)
    for name in spectralbvp.__all__:
        module = importlib.import_module(f"spectralbvp.{spectralbvp._MODULE_OF[name]}")
        assert getattr(spectralbvp, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from spectralbvp import *", namespace)
    for name in spectralbvp.__all__:
        assert namespace[name] is getattr(spectralbvp, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spectralbvp.no_such_name
    assert not hasattr(spectralbvp, "beam_char_root")


def test_import_loads_no_solver_and_dir_lists_the_names():
    loaded, listed = _fresh(
        "import json, sys, spectralbvp\n"
        "listed = set(spectralbvp.__all__) <= set(dir(spectralbvp))\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith(('spectralbvp.', 'numpy'))), listed]))"
    )
    assert loaded == []
    assert listed


def test_first_access_loads_only_its_module():
    loaded = _fresh(
        "import json, sys, spectralbvp\n"
        "spectralbvp.bessel_zero\n"
        "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules if m.startswith('spectralbvp.'))))"
    )
    assert SOLVERS.intersection(loaded) == {"specfun"}
