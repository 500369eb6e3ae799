"""Separable solutions against the per-mode sums they are built from.

Each reference below writes the truncated series sum_n a_n(t) X_n(x) out
term by term, one mode at a time, with scalar mode shapes, per-mode
quadrature sums and the scalar oscillator law.  Every solution object and
point function must

* agree with its reference to 1e-14 of sum_n |a_n| sup|X_n|,
* evaluate an array of points as it evaluates each point alone, to 1e-15
  of the same sum,
* return a Python float for a float point.

The sum runs over sup|X_n| rather than |X_n(x)|: at a node of X_n (a
clamped end, say) a closed form returns rounding noise of the size of its
parts.  Likewise |a_n| carries the scale of its own rounding: the sum of
the absolute quadrature summands of a projected coefficient, and the
parts a damped coordinate is formed from.  Projected coefficients agree
with the per-mode quadrature sums to 1e-14 of their summand scale.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from spectralbvp import (
    DIRICHLET,
    NEUMANN,
    BallSpec,
    BoundaryCondition,
    DiskMembrane,
    HeatMedium,
    WaveMedium,
    ball_radial_modes,
    ball_solution,
    beam_mode,
    beam_response,
    beam_spectrum,
    cylinder_cooling,
    damped_modes,
    disk_axisym_solution,
    expand_series,
    heat_interval_modes,
    time_green_string,
)
from spectralbvp._quad import gauss_rule, gauss_sum, sample
from spectralbvp._series import oscillator
from spectralbvp.beams import BeamBC
from spectralbvp.geomnd import _disk_radial, disk_axisym_coefficients
from spectralbvp.specfun import (
    ZeroFamily,
    bessel_j,
    bessel_j_prime,
    bessel_zero,
    legendre,
    spherical_bessel,
    spherical_bessel_zero,
)
from spectralbvp.waves1d import ModeLaw, ModeRegime

SETTINGS = settings(max_examples=30, deadline=None)
TINY = 1e-300  # heavy damping drives values subnormal, where only absolute digits are left


# ----------------------------------------------------------------------
# Reference machinery
# ----------------------------------------------------------------------

def _qsum(values, a, b):
    """A Gauss-rule sum over [a, b] and the same sum of |values|, the
    scale of its rounding."""
    return gauss_sum(values, a, b), gauss_sum(np.abs(values), a, b)


def _sup(shape, nodes, *points):
    return max([float(np.max(np.abs(sample(shape, nodes))))] + [abs(shape(p)) for p in points])


def _series(parts, x):
    """Terms a_n X_n(x) and the scale sum_n (|a_n| + s_n) sup|X_n| of a
    reference series given per mode as (a_n, s_n, X_n, sup|X_n|)."""
    terms = [a * shape(x) for a, _, shape, _ in parts]
    return terms, sum((abs(a) + s) * sup for a, s, _, sup in parts)


def _matches(got, terms, scale, budget=0.0):
    assert type(got) is float
    assert abs(got - sum(terms)) <= 1e-14 * scale + budget + TINY, (got, sum(terms), scale)


def _check_points(fn, xs, parts, budget=0.0):
    """fn at each float of xs against the reference series, and fn on the
    array of xs against fn at each float.  ``budget`` is an absolute error
    allowed on top of rounding: the quadrature tolerance of amplitudes the
    reference takes exactly."""
    arr = fn(np.array(xs))
    assert isinstance(arr, np.ndarray) and arr.shape == (len(xs),)
    for x, a in zip(xs, arr.tolist()):
        terms, scale = _series(parts, x)
        got = fn(x)
        _matches(got, terms, scale, budget)
        assert abs(a - got) <= 1e-15 * scale + TINY, (x, a, got)


def _coeffs_match(got, refs):
    """Coefficients against the per-mode (value, summand scale) pairs."""
    assert len(got) == len(refs)
    assert all(type(c) is float for c in got)
    for c, (want, scale) in zip(got, refs):
        assert abs(c - want) <= 1e-14 * scale + TINY, (c, want, scale)


def _impulse_ref(omega: float, eta: float, t: float) -> tuple[float, float, float]:
    """S(t), S'(t) of q'' + 2 eta q' + omega^2 q = 0, S(0) = 0, S'(0) = 1,
    and the size e^{-eta t} (|cos| + |sin|/om) of the parts they are formed
    from, times the condition number 1 + (eta + om) t of the exponentials
    in them.  Past om t = 20, e^{-eta t} sinh and cosh both equal
    e^{(om - eta) t}/2 to double precision; that form neither overflows
    with sinh nor loses bits to a subnormal e^{-eta t}."""
    disc = omega * omega - eta * eta
    e = math.exp(-eta * t)
    if disc > 0.0:
        om = math.sqrt(disc) if eta else omega
        s, c = math.sin(om * t) / om, math.cos(om * t)
    elif disc == 0.0:
        om, s, c = 0.0, t, 1.0
    else:
        om = math.sqrt(-disc)
        if om * t > 20.0:
            half = 0.5 * math.exp((om - eta) * t)
            return half / om, half * (1.0 - eta / om), half * (1.0 + 1.0 / om) * (1.0 + (eta + om) * t)
        s, c = math.sinh(om * t) / om, math.cosh(om * t)
    return e * s, e * (c - eta * s), e * (abs(c) + abs(s)) * (1.0 + (eta + om) * t)


ends = st.one_of(
    st.just(DIRICHLET),
    st.just(NEUMANN),
    st.floats(min_value=0.05, max_value=20.0).map(BoundaryCondition.robin),
)
coefs = st.floats(min_value=-2.0, max_value=2.0)
unit_points = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4)


def _data(c0, c1, c2, l):
    return lambda x: c0 + c1 * x * (l - x) + c2 * math.sin(3.0 * x / l)


def _quiet(fn):
    """fn with the short-time truncation warning of the heat series off."""

    def call(*args):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return fn(*args)

    return call


# ----------------------------------------------------------------------
# Interval: strings in every damping regime, impulse response, heat
# ----------------------------------------------------------------------

@st.composite
def string_cases(draw):
    regime = draw(st.sampled_from(list(ModeRegime)))
    bc = (NEUMANN, NEUMANN) if regime == ModeRegime.DRIFT else (draw(ends), draw(ends))
    n_modes = draw(st.integers(min_value=1, max_value=128))
    a = draw(st.floats(min_value=0.3, max_value=3.0))
    l = draw(st.floats(min_value=0.3, max_value=3.0))
    # omega_n = a xi_n / l with xi_n in [(n-1) pi, n pi]
    j = draw(st.integers(min_value=1, max_value=n_modes))
    frac = draw(st.floats(min_value=0.05, max_value=0.95))
    if regime == ModeRegime.DRIFT:
        eta = 0.0
    elif regime == ModeRegime.OSCILLATORY:
        eta = draw(st.sampled_from([0.0, frac * a * math.pi / (2.0 * l)]))
    elif regime == ModeRegime.CRITICAL:
        eta = None  # omega_j, known once the basis is built
    else:
        eta = (1.0 + frac) * a * math.pi * j / l
    rho = draw(st.floats(min_value=0.5, max_value=2.0))
    data = [draw(coefs) for _ in range(6)]
    xs = [x * l for x in draw(unit_points)]
    t = draw(st.floats(min_value=0.0, max_value=2.0))
    return regime, WaveMedium(a=a, l=l, rho=rho), bc, n_modes, j, eta, data, xs, t


@SETTINGS
@given(string_cases())
def test_string_and_damped_modes_match_per_mode_sums(case):
    regime, medium, bc, n_modes, j, eta, data, xs, t = case
    l = medium.l
    u0, v0 = _data(*data[:3], l), _data(*data[3:], l)
    if eta is None:
        omegas = [law.omega for law in damped_modes(medium, bc, None, None, n_modes).laws]
        eta = omegas[j - 1] or max(omegas)
    medium = WaveMedium(a=medium.a, l=l, eta=eta, rho=medium.rho)
    sol = damped_modes(medium, bc, u0, v0, n_modes)
    regimes = {law.regime for law in sol.laws}
    assert regime in regimes or (eta == 0.0 and regime != ModeRegime.DRIFT) or (
        regime == ModeRegime.OSCILLATORY and n_modes == 1
    )
    modes = sol.basis.modes

    nodes, _ = gauss_rule(0.0, l, 256)
    for f, got in ((u0, [law.a_coef for law in sol.laws]), (v0, [law.b_coef for law in sol.laws])):
        vals = sample(f, nodes)
        _coeffs_match(got, [_qsum(vals * sample(m.shape, nodes), 0.0, l) for m in modes])

    def coords(law):
        """q, q' and the sizes of the parts each is formed from."""
        s, ds, size = _impulse_ref(law.omega, law.eta, t)
        a, b, w = abs(law.a_coef), abs(law.b_coef), law.omega
        q = law.a_coef * (ds + 2.0 * eta * s) + law.b_coef * s
        dq = -law.a_coef * w**2 * s + law.b_coef * ds
        return q, dq, (a * (1.0 + 3.0 * eta) + b) * size, (a * w * w + b * (1.0 + eta)) * size

    qs = [coords(law) for law in sol.laws]
    sups = [_sup(m.shape, nodes, *xs) for m in modes]
    _check_points(lambda x: sol(x, t), xs, [(q, qs_, m.shape, sup) for (q, _, qs_, _), m, sup in zip(qs, modes, sups)])
    _check_points(
        lambda x: sol.velocity(x, t), xs, [(dq, dqs, m.shape, sup) for (_, dq, _, dqs), m, sup in zip(qs, modes, sups)]
    )
    for law, (q, dq, q_size, dq_size) in zip(sol.laws, qs):
        assert abs(law.q(t) - q) <= 1e-14 * (abs(q) + q_size) + TINY
        assert abs(law.qdot(t) - dq) <= 1e-14 * (abs(dq) + dq_size) + TINY
    rho = medium.rho
    energy = [0.5 * rho * (dq * dq + law.omega**2 * q * q) for (q, dq, _, _), law in zip(qs, sol.laws)]
    scale = sum(energy) + sum(
        rho * ((abs(dq) + dqs) * dqs + law.omega**2 * (abs(q) + qs_) * qs_) for (q, dq, qs_, dqs), law in zip(qs, sol.laws)
    )
    _matches(sol.energy(t), energy, scale)
    _matches(sol.kinetic_energy(t), [0.5 * rho * dq**2 for _, dq, _, _ in qs], scale)

    xp = xs[0]
    green = []
    for law, m, sup in zip(sol.laws, modes, sups):
        s, _, size = _impulse_ref(law.omega, eta, t)
        green.append((s * m.shape(xp) / rho, size * sup / rho, m.shape, sup))
    _check_points(lambda x: time_green_string(medium, bc, x, xp, t, n_modes), xs, green)


def test_strongly_damped_mode_stays_finite():
    """An aperiodic coordinate whose sinh(w t) overflows decays like
    e^{(w - eta) t}: q = (a + (b + eta a)/w) e^{(w - eta) t}/2 once
    e^{-2 w t} is below rounding."""
    eta, t = 400.0, 2.0
    for omega, a0, b0 in ((1.0, 1.0, 0.0), (3.0, 0.2, -1.5)):
        law = ModeLaw(omega, a0, b0, eta)
        w = math.sqrt(eta * eta - omega * omega)
        half = 0.5 * math.exp((w - eta) * t)
        q = half * (a0 + (b0 + eta * a0) / w)
        dq = half * ((w - eta) * a0 + (b0 + eta * a0) * (1.0 - eta / w))
        assert abs(law.q(t) - q) <= 1e-12 * abs(q)
        assert abs(law.qdot(t) - dq) <= 1e-12 * (abs(dq) + eta * abs(q))


def test_mode_law_is_the_float_path_of_the_array_law():
    """ModeLaw.q and qdot run the oscillator the solutions run on arrays,
    on floats: Python floats equal to the array values of the same
    coordinates within rounding, in every regime."""
    omega = [0.0, 1.0, 2.0, 2.0, 3.0, 0.0]
    eta = [0.0, 0.0, 0.5, 2.0, 4.0, 1.5]
    a, b = 0.7, -1.3
    laws = [ModeLaw(w, a, b, e) for w, e in zip(omega, eta)]
    assert {law.regime for law in laws} == set(ModeRegime)
    for t in (0.0, 0.4, 2.5):
        q_arr, dq_arr = oscillator(np.array(omega), a, b, np.array(eta), t)
        for law, q, dq in zip(laws, q_arr.tolist(), dq_arr.tolist()):
            assert type(law.q(t)) is float and type(law.qdot(t)) is float
            assert math.isclose(law.q(t), q, rel_tol=1e-14, abs_tol=1e-15)
            assert math.isclose(law.qdot(t), dq, rel_tol=1e-14, abs_tol=1e-15)


@SETTINGS
@given(
    left=ends,
    right=ends,
    n_modes=st.integers(min_value=1, max_value=128),
    l=st.floats(min_value=0.3, max_value=3.0),
    a2=st.floats(min_value=0.2, max_value=3.0),
    absorption=st.sampled_from([0.0, 0.7]),
    data=st.lists(coefs, min_size=3, max_size=3),
    xs=unit_points,
    t=st.floats(min_value=0.0, max_value=0.5),
)
def test_heat_modes_match_per_mode_sums(left, right, n_modes, l, a2, absorption, data, xs, t):
    medium = HeatMedium(a2=a2, absorption=absorption)
    u0 = _data(*data, l)
    sol = heat_interval_modes((left, right), u0, medium, l, n_modes)
    nodes, _ = gauss_rule(0.0, l, 256)
    vals = sample(u0, nodes)
    refs = [_qsum(vals * sample(m.shape, nodes), 0.0, l) for m in sol.basis.modes]
    _coeffs_match(sol.coefficients, refs)
    xs = [x * l for x in xs]
    decay = math.exp(-absorption * t)
    parts = []
    for c, (_, scale), m in zip(sol.coefficients, refs, sol.basis.modes):
        env = math.exp(-m.lam * a2 * t) * decay
        parts.append((c * env, scale * env, m.shape, _sup(m.shape, nodes, *xs)))
    _check_points(_quiet(lambda x: sol(x, t)), xs, parts)


def test_heat_source_matches_per_mode_sums():
    """The source cos(2x)(1 + tau) projects to f_n(tau) = F_n (1 + tau), so
    each forced amplitude is F_n times the exact integral of
    e^{-r (t - tau)} (1 + tau) over [0, t]; the solver's value may differ
    from it by its requested quadrature tolerance (1e-11) per mode."""
    l, medium, t = 1.3, HeatMedium(a2=0.8), 0.3
    source = lambda x, tau: math.cos(2.0 * x) * (1.0 + tau)
    for bc in ((DIRICHLET, NEUMANN), (BoundaryCondition.robin(1.5), DIRICHLET)):
        sol = heat_interval_modes(bc, lambda x: x, medium, l, 6, source=source)
        nodes, _ = gauss_rule(0.0, l, 128)
        f_n = [
            (lambda tau, m=sample(m.shape, nodes): gauss_sum(sample(lambda x: source(x, tau), nodes) * m, 0.0, l))
            for m in sol.basis.modes
        ]
        for tau in (0.0, 0.4):
            want = [f(tau) for f in f_n]
            got = sol._source_coeffs(tau).tolist()
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * max(abs(w) for w in want)
        parts = []
        for c, f, m in zip(sol.coefficients, f_n, sol.basis.modes):
            rate = m.lam * medium.a2
            rt = rate * t
            # int_0^t e^{-r s} (1 + t - s) ds, s = t - tau
            relax = -math.expm1(-rt)
            forced = f(0.0) * ((1.0 + t) * relax / rate - (relax - rt * math.exp(-rt)) / rate**2)
            parts.append((c * math.exp(-rate * t) + forced, 0.0, m.shape, _sup(m.shape, nodes)))
        budget = 1e-11 * sum(sup for *_, sup in parts)
        _check_points(_quiet(lambda x: sol(x, t)), [0.0, 0.4, l], parts, budget)


# ----------------------------------------------------------------------
# Beams
# ----------------------------------------------------------------------

@SETTINGS
@given(
    bc=st.sampled_from(list(BeamBC)),
    n_modes=st.integers(min_value=1, max_value=24),
    c=st.floats(min_value=0.3, max_value=3.0),
    l=st.floats(min_value=0.3, max_value=3.0),
    data=st.lists(coefs, min_size=6, max_size=6),
    xs=unit_points,
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_beam_response_matches_per_mode_sums(bc, n_modes, c, l, data, xs, t):
    spectrum = beam_spectrum(bc, n_modes, c=c, l=l)
    u0, v0 = _data(*data[:3], l), _data(*data[3:], l)
    nodes, _ = gauss_rule(0.0, l, 192)
    u_at, v_at = sample(u0, nodes), sample(v0, nodes)
    xs = [x * l for x in xs]
    parts = []
    for n in range(1, n_modes + 1):
        mode = lambda xx, n=n: beam_mode(bc, n, xx, l)
        mode_at = sample(mode, nodes)
        a_n, a_scale = _qsum(u_at * mode_at, 0.0, l)
        b_n, b_scale = _qsum(v_at * mode_at, 0.0, l)
        w = spectrum.omega(n)
        q = a_n * math.cos(w * t) + (b_n / w) * math.sin(w * t)
        parts.append((q, a_scale + b_scale / w, mode, _sup(mode, nodes, *xs)))
    _check_points(lambda x: beam_response(spectrum, u0, v0, n_modes, x, t), xs, parts)


# ----------------------------------------------------------------------
# Fourier-Bessel and Legendre expansions, the disk membrane
# ----------------------------------------------------------------------

@SETTINGS
@given(
    m=st.integers(min_value=0, max_value=4),
    n_terms=st.integers(min_value=1, max_value=24),
    radius=st.floats(min_value=0.3, max_value=3.0),
    data=st.lists(coefs, min_size=3, max_size=3),
    rs=unit_points,
)
def test_fourier_bessel_expansion_matches_per_mode_sums(m, n_terms, radius, data, rs):
    f = _data(*data, radius)
    fb = expand_series("fourier_bessel", f, n_terms, m=m, radius=radius)
    nodes, _ = gauss_rule(0.0, radius, 256)
    weighted = nodes * sample(f, nodes)
    refs = []
    for k in range(1, n_terms + 1):
        alpha = bessel_zero(ZeroFamily.BESSEL_J, m, k)
        norm = 2.0 / (radius**2 * bessel_j_prime(m, alpha) ** 2)
        proj, scale = _qsum(weighted * bessel_j(m, alpha * nodes / radius), 0.0, radius)
        refs.append((norm * proj, norm * scale, (lambda r, a=alpha: bessel_j(m, a * r / radius))))
    _coeffs_match(fb.coefficients, [(c, s) for c, s, _ in refs])
    rs = [r * radius for r in rs]
    parts = [(c, s, shape, _sup(shape, nodes, *rs)) for c, (_, s, shape) in zip(fb.coefficients, refs)]
    _check_points(fb.reconstruct, rs, parts)


@SETTINGS
@given(
    n_terms=st.integers(min_value=1, max_value=128),
    data=st.lists(coefs, min_size=3, max_size=3),
    xs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=4),
)
def test_legendre_expansion_matches_per_mode_sums(n_terms, data, xs):
    f = _data(*data, 1.0)
    leg = expand_series("legendre", f, n_terms)
    nodes, _ = gauss_rule(-1.0, 1.0, max(160, 2 * n_terms))
    values = sample(f, nodes)
    refs = []
    for n in range(n_terms):
        proj, scale = _qsum(values * legendre("P", n, nodes), -1.0, 1.0)
        refs.append(((n + 0.5) * proj, (n + 0.5) * scale))
    _coeffs_match(leg.coefficients, refs)
    # |P_n| <= 1 on [-1, 1]
    parts = [(c, s, (lambda x, n=n: legendre("P", n, x)), 1.0) for n, (c, (_, s)) in enumerate(zip(leg.coefficients, refs))]
    _check_points(leg.reconstruct, xs, parts)


def _disk_refs(spec, f, n_modes, nodes):
    weighted = nodes * sample(f, nodes)
    return [_qsum(weighted * sample(_disk_radial(spec, 0, k)[1], nodes), 0.0, spec.radius) for k in range(1, n_modes + 1)]


@SETTINGS
@given(
    n_modes=st.integers(min_value=1, max_value=16),
    radius=st.floats(min_value=0.3, max_value=3.0),
    a=st.floats(min_value=0.3, max_value=3.0),
    data=st.lists(coefs, min_size=6, max_size=6),
    rs=unit_points,
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_disk_axisym_matches_per_mode_sums(n_modes, radius, a, data, rs, t):
    spec = DiskMembrane(radius=radius, a=a)
    u0, v0 = _data(*data[:3], radius), _data(*data[3:], radius)
    nodes, _ = gauss_rule(0.0, radius, 192)
    a_refs, b_refs = _disk_refs(spec, u0, n_modes, nodes), _disk_refs(spec, v0, n_modes, nodes)
    a_coefs, b_coefs = disk_axisym_coefficients(spec, u0, n_modes), disk_axisym_coefficients(spec, v0, n_modes)
    _coeffs_match(a_coefs, a_refs)
    _coeffs_match(b_coefs, b_refs)
    rs = [r * radius for r in rs]
    parts = []
    for k, a_k, b_k, (_, sa), (_, sb) in zip(range(1, n_modes + 1), a_coefs, b_coefs, a_refs, b_refs):
        alpha, chi = _disk_radial(spec, 0, k)
        omega = alpha * spec.a / spec.radius
        q = a_k * math.cos(omega * t) + (b_k / omega) * math.sin(omega * t)
        parts.append((q, sa + sb / omega, chi, _sup(chi, nodes, *rs)))
    _check_points(lambda r: disk_axisym_solution(spec, u0, v0, n_modes, r, t), rs, parts)


def test_disk_force_matches_per_mode_sums():
    """The force (1 - r^2) cos(tau) loads mode k with G_k cos(tau), so its
    forced amplitude is G_k int_0^t sin(w (t - tau)) cos(tau) dtau / (w rho)
    = G_k (cos t - cos w t) / ((w^2 - 1) rho) exactly; the solver's value
    may differ from it by its requested quadrature tolerance (1e-9 before
    the division by w rho) per mode."""
    spec = DiskMembrane(radius=1.2, a=0.9, rho=1.3)
    force = lambda r, tau: (1.0 - r * r) * math.cos(tau)
    u0 = lambda r: 0.2 * (1.44 - r * r)
    n_modes, t = 4, 0.7
    rf, _ = gauss_rule(0.0, spec.radius, 96)
    parts, budget = [], 0.0
    for k, a_k in zip(range(1, n_modes + 1), disk_axisym_coefficients(spec, u0, n_modes)):
        alpha, chi = _disk_radial(spec, 0, k)
        omega = alpha * spec.a / spec.radius
        g_k = gauss_sum(rf * sample(lambda s: force(s, 0.0), rf) * sample(chi, rf), 0.0, spec.radius)
        # cos t - cos wt = 2 sin((w + 1) t/2) sin((w - 1) t/2)
        cos_diff = 2.0 * math.sin(0.5 * (omega + 1.0) * t) * math.sin(0.5 * (omega - 1.0) * t)
        forced = g_k * cos_diff / ((omega * omega - 1.0) * spec.rho)
        parts.append((a_k * math.cos(omega * t) + forced, 0.0, chi, _sup(chi, rf)))
        budget += 1e-9 / (omega * spec.rho) * parts[-1][3]
    solve = lambda r: disk_axisym_solution(spec, u0, None, n_modes, r, t, force=force)
    _check_points(solve, [0.0, 0.5, 1.2], parts, budget)


# ----------------------------------------------------------------------
# Finite cylinder
# ----------------------------------------------------------------------

def _cylinder_parts(radius, height, a2, t0, n_radial, n_axial, t, path):
    """The per-mode cylinder series with cos/sin axial modes in z on
    [-H/2, H/2]; each shape takes the point (r, z), and |J_0|, |cos|,
    |sin| <= 1."""
    alphas = [bessel_zero(ZeroFamily.BESSEL_J, 0, k) for k in range(1, n_radial + 1)]
    j0 = [(lambda s, a=alpha: bessel_j(0, a * s / radius)) for alpha in alphas]
    if path == "rz":
        rr, wr = gauss_rule(0.0, radius, 96)
        zz, wz = gauss_rule(-height / 2.0, height / 2.0, 96)
        grid = sample(t0, rr, zz)
    else:
        rr, _ = gauss_rule(0.0, radius, 192)
        weighted = rr * sample(t0, rr)
        projs = [_qsum(weighted * sample(f, rr), 0.0, radius) for f in j0]
    parts = []
    for k, alpha in enumerate(alphas):
        rad_norm = 2.0 / (radius**2 * bessel_j_prime(0, alpha) ** 2)
        mu_k = (alpha / radius) ** 2
        if path == "half_infinite":
            proj, scale = projs[k]
            env = rad_norm * math.exp(-mu_k * a2 * t)
            parts.append((proj * env, scale * env, (lambda p, f=j0[k]: f(p[0])), 1.0))
            continue
        # T0(r, z) has every axial mode; z-uniform data only the odd ones
        for n in range(1, n_axial + 1) if path == "rz" else range(1, 2 * n_axial, 2):
            kz = math.pi * n / height
            trig = math.cos if n % 2 else math.sin
            if path == "rz":
                summands = np.outer(wr * rr * sample(j0[k], rr), wz * sample(lambda z: trig(kz * z), zz)) * grid
                weight, proj, scale = 2.0 / height, float(np.sum(summands)), float(np.sum(np.abs(summands)))
            else:
                weight = 4.0 / (math.pi * n) * (-1.0) ** ((n - 1) // 2)
                proj, scale = projs[k]
            env = rad_norm * math.exp(-(mu_k + kz * kz) * a2 * t)
            shape = lambda p, f=j0[k], g=trig, kz=kz: f(p[0]) * g(kz * p[1])
            parts.append((weight * proj * env, abs(weight) * scale * env, shape, 1.0))
    return parts


@SETTINGS
@given(
    path=st.sampled_from(["rz", "r", "half_infinite"]),
    n_radial=st.integers(min_value=1, max_value=8),
    n_axial=st.integers(min_value=1, max_value=8),
    radius=st.floats(min_value=0.3, max_value=3.0),
    height=st.floats(min_value=0.3, max_value=3.0),
    a2=st.floats(min_value=0.2, max_value=3.0),
    data=st.lists(coefs, min_size=3, max_size=3),
    r=st.floats(min_value=0.0, max_value=1.0),
    z=st.floats(min_value=-0.5, max_value=0.5),
    t=st.floats(min_value=0.001, max_value=0.3),
)
def test_cylinder_cooling_matches_per_mode_sums(path, n_radial, n_axial, radius, height, a2, data, r, z, t):
    c0, c1, c2 = data
    if path == "rz":
        t0 = lambda rr, zz: c0 + c1 * rr * (radius - rr) + c2 * np.cos(zz)
    else:
        t0 = lambda rr: c0 + c1 * rr * (radius - rr)
    point = (r * radius, z * height)
    got = cylinder_cooling(radius, height, a2, t0, n_radial, n_axial, point, t, half_infinite=path == "half_infinite")
    _matches(got, *_series(_cylinder_parts(radius, height, a2, t0, n_radial, n_axial, t, path), point))


# ----------------------------------------------------------------------
# Ball
# ----------------------------------------------------------------------

ball_specs = st.one_of(
    st.builds(lambda R, a2: BallSpec(radius=R, a2=a2), st.floats(0.3, 3.0), st.floats(0.2, 3.0)),
    st.builds(lambda R, a2: BallSpec(radius=R, bc="neumann", a2=a2), st.floats(0.3, 3.0), st.floats(0.2, 3.0)),
    st.builds(
        lambda R, a2, h: BallSpec(radius=R, bc="robin", a2=a2, h=h),
        st.floats(0.3, 3.0),
        st.floats(0.2, 3.0),
        st.floats(0.1, 5.0),
    ),
)


@SETTINGS
@given(
    spec=ball_specs,
    n_modes=st.integers(min_value=1, max_value=24),
    data=st.lists(coefs, min_size=3, max_size=3),
    r=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=0.5),
    q=st.floats(min_value=-2.0, max_value=2.0),
)
def test_ball_cooling_and_sources_match_per_mode_sums(spec, n_modes, data, r, t, q):
    big_r = spec.radius
    rho = r * big_r
    t0 = _data(*data, big_r)
    rr, _ = gauss_rule(0.0, big_r, 256)
    weighted = rr * rr * sample(t0, rr)
    cooling, sources = [], []
    for lam, phi in (ball_radial_modes(spec, k) for k in range(1, n_modes + 1)):
        sup = _sup(phi, rr, 0.0, rho)
        proj, scale = _qsum(weighted * sample(phi, rr), 0.0, big_r)
        env = 4.0 * math.pi * math.exp(-lam * spec.a2 * t)
        cooling.append((proj * env, scale * env, phi, sup))
        proj, scale = _qsum(rr * rr * sample(phi, rr), 0.0, big_r)
        rate = lam * spec.a2
        growth = q * spec.a2 * 4.0 * math.pi * (1.0 - math.exp(-rate * t)) / rate
        sources.append((proj * growth, scale * abs(growth), phi, sup))
    _matches(ball_solution(spec, "cooling", t0, n_modes, rho, t), *_series(cooling, rho))
    _matches(ball_solution(spec, "sources", q, n_modes, rho, t), *_series(sources, rho))


@settings(max_examples=15, deadline=None)
@given(
    radius=st.floats(min_value=0.3, max_value=3.0),
    a2=st.floats(min_value=0.2, max_value=3.0),
    n_modes=st.integers(min_value=1, max_value=5),
    data=st.lists(coefs, min_size=3, max_size=3),
    r=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    t=st.floats(min_value=0.001, max_value=0.3),
)
def test_ball_axisym_and_laplace_match_per_mode_sums(radius, a2, n_modes, data, r, theta, t):
    spec = BallSpec(radius=radius, a2=a2)
    c0, c1, c2 = data
    t0 = lambda rr, th: c0 + c1 * rr * (radius - rr) * np.cos(th) + c2 * np.sin(th) ** 2
    point = (r * radius, theta)
    rr, wr = gauss_rule(0.0, radius, 128)
    xs, ws = gauss_rule(-1.0, 1.0, 96)
    grid = sample(t0, rr, np.arccos(xs))
    # |j_n|, |P_n| <= 1; each shape takes the point (r, theta)
    parts = []
    for n in range(n_modes):
        p_n = legendre("P", n, xs)
        for k in range(1, n_modes + 1):
            alpha = spherical_bessel_zero(n, k)
            rad_norm = 0.5 * radius**3 * spherical_bessel("j", n + 1, alpha) ** 2
            summands = np.outer(wr * rr * rr * spherical_bessel("j", n, alpha * rr / radius), ws * p_n) * grid
            env = math.exp(-((alpha / radius) ** 2) * a2 * t) / (rad_norm * (2.0 / (2 * n + 1)))
            shape = lambda p, n=n, a=alpha: spherical_bessel("j", n, a * p[0] / radius) * legendre("P", n, math.cos(p[1]))
            parts.append((float(np.sum(summands)) * env, float(np.sum(np.abs(summands))) * env, shape, 1.0))
    _matches(ball_solution(spec, "axisym_cooling", t0, n_modes, point, t), *_series(parts, point))

    surface_data = lambda th: c0 + c1 * math.cos(th) + c2 * math.cos(3.0 * th)
    xs, _ = gauss_rule(-1.0, 1.0, 160)
    surface = sample(surface_data, np.arccos(xs))
    parts = []
    for n in range(4 * n_modes):
        proj, scale = _qsum(surface * legendre("P", n, xs), -1.0, 1.0)
        radial = (n + 0.5) * (point[0] / radius) ** n
        parts.append((proj * radial, scale * radial, (lambda p, n=n: legendre("P", n, math.cos(p[1]))), 1.0))
    _matches(ball_solution(spec, "laplace_dirichlet", surface_data, 4 * n_modes, point), *_series(parts, point))
