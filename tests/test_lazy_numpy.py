"""numpy as a lazy dependency: ``_vec.np`` imports it on first use, so scalar
calls load no numpy, and ``is_array`` and ``as_arg`` tell arrays from
scalars without importing it."""

import json
import subprocess
import sys

import numpy as np
import pytest

from spectralbvp import _vec
from spectralbvp._vec import as_arg, is_array

# Scalar calls of the special functions, zero tables and mode families, once
# with int arguments and once with the same values as floats; then, with
# numpy imported, each function on an array and on each of its elements.
SCALARS_THEN_ARRAYS = """
import json, sys
from spectralbvp.beams import beam_mode, beam_spectrum
from spectralbvp.geomnd import BallBC, BallSpec, ball_radial_modes
from spectralbvp.intervals import uniform_basis
from spectralbvp.specfun import bessel_j, zero_table
from spectralbvp.sturm import BoundaryCondition

left, right = BoundaryCondition.dirichlet_bc(), BoundaryCondition.robin(2.0)


def calls(one, two):
    lam, phi = ball_radial_modes(BallSpec(two, BallBC.ROBIN, h=one), 2)
    spectrum = beam_spectrum("clamped_free", 3, c=two, l=one)
    return {
        "bessel_j": bessel_j(0, two),
        "zero_table": list(zero_table("radial_robin", 1, 3, two).roots),
        "beam_spectrum": [spectrum.omega(n) for n in (1, 2, 3)],
        "beam_mode": beam_mode("clamped_free", 2, one),
        "ball_radial_modes": [lam, phi(one), phi(two)],
        "uniform_basis": [m.shape(x) for m in uniform_basis(two, left, right, 4).modes for x in (one, two)],
    }


scalars = [calls(1, 2), calls(1.0, 2.0)]
numpy_loaded = "numpy" in sys.modules

import numpy as np

xs = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
lam, phi = ball_radial_modes(BallSpec(2.0, BallBC.ROBIN, h=1.0), 2)
basis = uniform_basis(2.0, left, right, 4)
functions = {
    "bessel_j": lambda x: bessel_j(0, x),
    "beam_mode": lambda x: beam_mode("clamped_free", 2, x / 2.0),
    "ball_radial_modes": phi,
    "uniform_mode": basis.modes[2].shape,
    "uniform_basis": basis._shapes,
}
arrays = {}
for name, fn in functions.items():
    got = fn(xs)
    per_element = [[m.shape(x) for m in basis.modes] if name == "uniform_basis" else fn(x) for x in xs.tolist()]
    arrays[name] = [type(got).__name__, got.tolist(), per_element]
print(json.dumps([numpy_loaded, scalars, arrays]))
"""


def test_scalar_calls_load_no_numpy_and_later_arrays_match_them():
    proc = subprocess.run([sys.executable, "-c", SCALARS_THEN_ARRAYS], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    numpy_loaded, (from_ints, from_floats), arrays = json.loads(proc.stdout.splitlines()[-1])
    assert not numpy_loaded
    assert from_ints == from_floats
    for name, (kind, got, per_element) in arrays.items():
        assert kind == "ndarray", name
        # numpy and math may round sin, cos and exp apart by an ulp
        np.testing.assert_allclose(got, per_element, rtol=1e-14, atol=1e-14, err_msg=name)


def test_the_handle_binds_each_attribute_once_read():
    assert _vec.np.ndarray is np.ndarray
    assert "ndarray" in vars(_vec.np)
    assert _vec.np.sqrt is np.sqrt
    with pytest.raises(AttributeError):
        _vec.np.no_such_attribute


@pytest.mark.parametrize(
    "x, array, arg",
    [
        (2.5, False, 2.5),
        (3, False, 3.0),
        (True, False, 1.0),
        ([1, 2.5], False, [1.0, 2.5]),
        (np.array(2.5), True, 2.5),
        (np.float64(2.5), False, 2.5),
        (np.int64(3), False, 3.0),
        (np.array([1, 2]), True, [1.0, 2.0]),
    ],
    ids=["float", "int", "bool", "list", "0-d array", "numpy float", "numpy int", "ndarray"],
)
def test_is_array_and_as_arg(x, array, arg):
    assert is_array(x) is array
    got = as_arg(x)
    if isinstance(arg, list):
        assert type(got) is np.ndarray and got.dtype == float and got.tolist() == arg
    else:
        assert type(got) is float and got == arg


def test_is_array_imports_no_numpy():
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from spectralbvp._vec import as_arg, is_array\n"
        "print(is_array(2.5), is_array([1.0]), as_arg(3), as_arg(True), as_arg(2.5))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "3.0", "1.0", "2.5"]


def test_as_arg_keeps_int_overflow_loud():
    with pytest.raises(OverflowError):
        as_arg(10**400)


def test_first_array_call_binds_numpy_and_retires_the_hook():
    """After the first read every numpy name is a plain attribute of the
    handle, which holds no ``__getattr__`` (CPython specializes attribute
    reads only on such a module)."""
    code = (
        "import json\n"
        "from spectralbvp import _vec\n"
        "from spectralbvp.specfun import bessel_j\n"
        "hooked = '__getattr__' in vars(_vec.np)\n"
        "import numpy\n"
        "got = bessel_j(0, numpy.array([1.0, 2.0]))\n"
        "names = [k for k in vars(numpy) if not k.startswith('__')]\n"
        "bound = all(vars(_vec.np)[k] is vars(numpy)[k] for k in names)\n"
        "bound = bound and _vec.np.linalg is numpy.linalg and 'linalg' in vars(_vec.np)\n"
        "try:\n"
        "    _vec.np.no_such_attribute\n"
        "    missing = 'bound'\n"
        "except AttributeError:\n"
        "    missing = 'AttributeError'\n"
        "print(json.dumps([hooked, '__getattr__' in vars(_vec.np), bound, missing, type(got).__name__]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [True, False, True, "AttributeError", "ndarray"]


# Every public varsolve function and the sawtooth partial sums, on floats.
SCALAR_ONLY_MODULES = """
import math, sys
from spectralbvp.varsolve import (
    brachistochrone_fit, brachistochrone_to_vertical, catenoid_alpha_star, el_residual, geodesic,
    solve_transcendental,
)
from spectralbvp.waves1d import gibbs_partial_sum

catenoid_alpha_star()
for kind in ("cosh_eq", "sinh_eq", "arcsin_eq"):
    solve_transcendental(kind, 1.2)
brachistochrone_fit(2.0, 1.0)
brachistochrone_to_vertical(2.0)
for surface, p1, p2 in (("sphere", (0.4, 1.1), (1.3, 2.0)), ("cylinder", (0.2, 1.0), (1.2, 2.0)), ("cone", (0.2, 1.0), (1.5, 2.0))):
    geodesic(surface, p1, p2).point(0.3)
el_residual(lambda x, y, yp: math.sqrt(1.0 + yp * yp), lambda x: 2.0 * x, [0.1, 0.5])
gibbs_partial_sum(1.0, 1.0, 512, 0.01)
gibbs_partial_sum(1.0, 1.0, 512, 0.01, kind="fejer")
print("numpy" in sys.modules)
"""


def test_varsolve_and_partial_sums_load_no_numpy():
    proc = subprocess.run([sys.executable, "-c", SCALAR_ONLY_MODULES], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
