"""Spectral boundary-value-problem toolkit.

Sturm-Liouville eigensolving on an interval, self-contained special
functions with their zero tables, separation-of-variables solvers for wave
and heat problems in 1D/2D/3D separable geometries, exact eigenvalue
counting with its leading asymptotics, and the classic variational
problems, all verifiable at desk scale.

Importing the package loads no solver (and no numpy): each public name's
module is imported on first access (PEP 562), so ``spectralbvp.bessel_j``
loads ``specfun`` and its helpers only.
"""

import importlib

__version__ = "0.1.0"

# The public names, grouped by the module that defines them.  This is the
# one list: __all__, __getattr__ and __dir__ all read it.
_MODULES = {
    "sturm": (
        "BoundaryCondition",
        "DIRICHLET",
        "NEUMANN",
        "EigenBasis",
        "SLProblem",
        "characteristic",
        "const_coeff_eigen",
        "eigen_solve",
        "node_count",
        "rayleigh_quotient",
        "solve_theta",
    ),
    "specfun": (
        "GIBBS_CONSTANT",
        "SeriesEval",
        "ZeroFamily",
        "ZeroTable",
        "assoc_legendre",
        "bessel_j",
        "bessel_j_eval",
        "bessel_j_prime",
        "bessel_n",
        "bessel_zero",
        "integral_sine",
        "legendre",
        "spherical_bessel",
        "zero_table",
    ),
    "waves1d": (
        "ExtensionMode",
        "ModalSolution",
        "WaveMedium",
        "dalembert",
        "damped_modes",
        "duhamel_forced",
        "extend",
        "freq_green_string",
        "gibbs_partial_sum",
        "halfline_eval",
        "string_modes",
        "time_green_string",
    ),
    "beams": (
        "BeamBC",
        "BeamSpectrum",
        "beam_char_roots",
        "beam_mode",
        "beam_response",
        "beam_spectrum",
        "buckling_critical",
    ),
    "heat1d": (
        "HeatKernel",
        "HeatMedium",
        "heat_kernel",
        "freq_green_heat",
        "heat_halfline_eval",
        "heat_halfline_kernel",
        "heat_interval_modes",
        "heat_line_eval",
    ),
    "geomnd": (
        "BallBC",
        "BallSpec",
        "DiskMembrane",
        "RectMembrane",
        "ball_radial_modes",
        "ball_solution",
        "cylinder_cooling",
        "disk_axisym_solution",
        "disk_membrane_modes",
        "expand_series",
        "rect_membrane_modes",
    ),
    "weyl": (
        "CountingFunction",
        "Domain",
        "WallBC",
        "count_exact",
        "electron_density",
        "fermi_energy",
        "weyl_estimate",
    ),
    "varsolve": (
        "CycloidFit",
        "TranscendentalKind",
        "brachistochrone_fit",
        "catenoid_alpha_star",
        "el_residual",
        "geodesic",
        "solve_transcendental",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
