"""The truncated eigenfunction series sum_n a_n(t) X_n(x) behind every
separable solver: data projected once on a Gauss rule against Phi, the
closed-form (points x modes) matrix of a mode family (``project``, the
contraction that a ``_quad.gauss_ladder`` rung names), and each value one
contraction of Phi(x) with the amplitudes, which follow the damped
oscillator or relaxation e^{-lam a^2 t} (heat, written inline)."""

from __future__ import annotations

import math

from ._vec import is_array, np, xp

__all__ = ["project", "contract", "oscillator", "outer", "mode_count"]


def mode_count(name: str, n) -> None:
    """ValueError naming the parameter unless the mode count n is >= 1."""
    if not n >= 1:
        raise ValueError(f"{name} must be >= 1, got {n!r}")


def project(phi: np.ndarray, weights: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Phi(nodes)^T (w * data): the inner products with every mode, modes
    last; ``data`` is one value per node, or one row per data set."""
    return np.einsum("...n,nm->...m", weights * data, phi)


def contract(phi: np.ndarray, amplitudes: np.ndarray):
    """sum_n amplitudes_n X_n at every point: a Python float for one point."""
    val = np.einsum("...n,n->...", phi, amplitudes)
    return float(val) if val.ndim == 0 else val


def outer(x, k):
    """x k for every point and mode, modes last; one float k keeps x's shape."""
    return np.multiply.outer(x, k) if is_array(k) else x * k


def _oscillating(om, eta, t, f):
    e = f.exp(-eta * t)
    return e * (f.sin(om * t) / om), e * f.cos(om * t)


def _aperiodic(om, eta, t, f):
    # e^{-eta t} sinh(w t) and cosh(w t) as e^{(w - eta) t} (1 -+ e^{-2 w t})/2
    half = 0.5 * f.exp((om - eta) * t)
    return -half * f.expm1(-2.0 * om * t) / om, half * (1.0 + f.exp(-2.0 * om * t))


def _critical(om, eta, t, f):
    e = f.exp(-eta * t)
    return e * t, e


def oscillator(omega, a, b, eta, t: float):
    """q(t) and q'(t) of q'' + 2 eta q' + omega^2 q = 0 with q(0) = a and
    q'(0) = b: Python floats for a float omega, else one per element of
    omega (eta a float or one rate per element).

    With the impulse response S (S(0) = 0, S'(0) = 1), q = a (S' + 2 eta S)
    + b S.  Each element takes its own regime: oscillatory where omega >
    eta, aperiodic where omega < eta (finite wherever the answer is), S = t
    where they are equal (critical damping, and the drift of an undamped
    zero mode).  A float picks its kernel; an array runs each kernel once
    on the elements it owns (as ``_vec.piecewise``).  A non-finite t raises
    ``ValueError``.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    disc = omega * omega - eta * eta
    f = xp(disc)
    om = f.sqrt(abs(disc))
    if f is np:
        eta = np.broadcast_to(eta, disc.shape)
        s, c = np.empty(disc.shape), np.empty(disc.shape)
        pos, neg = disc > 0.0, disc < 0.0
        for kernel, sel in ((_oscillating, pos), (_aperiodic, neg), (_critical, ~(pos | neg))):
            s[sel], c[sel] = kernel(om[sel], eta[sel], t, f)
    else:
        kernel = _oscillating if disc > 0.0 else _aperiodic if disc < 0.0 else _critical
        s, c = kernel(om, eta, t, f)
    ds = c - eta * s
    return a * (ds + 2.0 * eta * s) + b * s, -a * omega**2 * s + b * ds
