"""Scalar-or-array arguments for the special functions and mode shapes.

Each special function and mode shape of x has one code path.  Its kernels
are plain arithmetic that runs unchanged on a Python float or on a float
ndarray; the elementary functions come from the namespace ``xp(x)`` (``math``
for a float, ``numpy`` for an array), so a scalar call never pays for a 0-d
array.  Where a function switches evaluation regime, ``piecewise`` picks the
regime per element with masks.  A scalar argument gives a Python float, an
array argument an array of its shape.

This module holds the package's only ``import numpy``, inside ``np``: every
other module reads numpy through ``from ._vec import np``, so importing the
package, or a call on Python floats alone, loads no numpy.  It imports
numpy alone, no submodule: no package path reads ``np.linalg``, and every
product is an ``np.einsum`` with a fixed subscript, never BLAS.
"""

from __future__ import annotations

import math
import sys
import types
from bisect import bisect_left

__all__ = ["np", "is_array", "as_arg", "xp", "piecewise", "inside", "full", "where", "any_"]


def _import_numpy(name: str):
    import numpy

    # Bind every name numpy defines and retire this hook: CPython specializes
    # attribute reads only on a module whose dict holds no __getattr__, so
    # from here on np.X costs what it costs on a plain module.  A name read
    # now that numpy loads on demand is bound too.
    handle = vars(np)
    handle.update((k, v) for k, v in vars(numpy).items() if not k.startswith("__"))
    handle.pop("__getattr__", None)
    if name not in handle:
        handle[name] = getattr(numpy, name)
    return handle[name]


# numpy, imported on the first attribute read (PEP 562's module __getattr__).
np = types.ModuleType(f"{__name__}.np")
np.__getattr__ = _import_numpy


def is_array(x) -> bool:
    """Whether x is an ndarray.  No array exists before numpy is imported,
    so while it is not this answers False without importing it (and a
    float, the common scalar, is answered first)."""
    return type(x) is not float and sys.modules.get("numpy") is not None and isinstance(x, np.ndarray)


def as_arg(x):
    """A Python float for a scalar (including bools, ints, 0-d arrays and
    numpy scalars), a float ndarray otherwise."""
    if type(x) is float:
        return x
    if isinstance(x, (int, float)):
        return float(x)
    a = np.asarray(x, dtype=float)
    return float(a) if a.ndim == 0 else a


def xp(x):
    """Namespace of elementary functions matching x: numpy or math."""
    return np if is_array(x) else math


# Up to this many elements a kernel costs less run on each element as a
# float than once on the array, whose numpy calls have a fixed cost each
# (timed on a 2-vCPU x86 VM, the Bessel kernels break even at about 20
# elements for the Hankel kernel and 30 for the downward sweep).  It is a
# speed choice only: an element gets the same bits either way, except where
# a kernel calls numpy's exp or log, which may round apart from math's.
_FEW = 16


def piecewise(x, edges, kernels, arg):
    """Evaluate ``kernels[i](x, xp, arg)`` element by element, where regime i
    holds the x with ``edges[i-1] < x <= edges[i]`` (edges ascending, one
    fewer than kernels).  The Bessel-type special functions reject
    non-finite x before they get here; for other callers NaN falls in the
    first regime of a float and the last of an array, so kernels propagate
    it.

    A float picks its kernel by bisection; an array is split into one mask
    per regime and each kernel runs once on the elements it owns, or on
    each of them as a float where they are at most ``_FEW``.
    """
    if type(x) is float:
        return kernels[bisect_left(edges, x)](x, math, arg)
    regime = np.searchsorted(edges, x, side="left")
    out = np.empty(x.shape)
    for i, kernel in enumerate(kernels):
        sel = regime == i
        owned = np.count_nonzero(sel)
        if owned > _FEW:
            out[sel] = kernel(x[sel], np, arg)
        elif owned:
            out[sel] = [kernel(v, math, arg) for v in x[sel].tolist()]
    return out


def inside(x, lo: float, hi: float, closed: bool = True) -> bool:
    """Whether every element of x lies in [lo, hi] (or (lo, hi))."""
    if type(x) is float:
        return lo <= x <= hi if closed else lo < x < hi
    if closed:
        return bool(((x >= lo) & (x <= hi)).all())
    return bool(((x > lo) & (x < hi)).all())


def full(x, c: float):
    """The constant c, shaped like x."""
    return np.full(x.shape, c) if is_array(x) else c


def where(cond, a, b):
    """a where cond holds, b elsewhere."""
    if cond is False:
        return b
    if cond is True:
        return a
    return np.where(cond, a, b)


def any_(cond) -> bool:
    return bool(cond.any()) if is_array(cond) else bool(cond)
