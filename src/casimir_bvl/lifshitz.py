"""Casimir pressure between two plane-parallel slabs.

Two independent routes are provided: the Matsubara sum over imaginary
frequencies (production path) and the real-frequency integral (diagnostic
path, looser tolerance).  Pressures are reported in pascal with negative
values meaning attraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fresnel, materials, quadrature
from .constants import C, HBAR, K_B
from .materials import (Kind, MaterialError, TabulatedOutOfRange,
                        ZeroFreqClass, zero_freq_class)

#: Default relative tolerance of the transverse-wavenumber integrals.
KPERP_REL_TOL = 1e-8
#: Most Matsubara indices, one k_perp row each (TE and TM), of the first
#: array pass of the kernel.  A pass is one refinement round of fixed
#: overhead plus work in proportion to its rows.  With rows of 60 points,
#: in process on 2-vCPU x86-64 (best of 25 per op), the benchmark's
#: Matsubara ops of seeds 1-10 took 115-119 ms at 48 indices per pass
#: against 120 ms at 32 and 119-123 ms at 64; the route digest's 646
#: converging pressures (best of 11) 147 ms against 160 and 152 ms.  A sum
#: longer than the first pass goes on in passes sized by
#: :func:`_predicted_stop`: the benchmark's 30 long sums of seeds 1-10
#: (5-10 K, rel_tol 2e-3) take 2 passes and 166.6 rows for a mean n_max of
#: 161.3, where passes of 48 took 3.83 passes and 174.7 rows.
ROWS_PER_PASS = 48
#: Indices a pass adds to its predicted count: to ceil(nu*ln(1/rel_tol)) + 3
#: for the first pass and, with ceil(nu/20) more, to :func:`_predicted_stop`
#: for a later one.  On the benchmark's 300 K and 77 K pressures n_max lies
#: 1 below to 4 above the first prediction, so one pass computes them all.
#: Over 250 sums of the benchmark's nine material pairs at 0.5-3 um, 3-12 K
#: and rel_tol 1e-6 to 1e-2 that outrun their first pass, the second ends 1
#: to 28 indices past n_max, within max(8, n_max/10) of it, but for three
#: of 579-993 terms, which MAX_ROWS_PER_PASS cuts short.
CHUNK_MARGIN = 4
#: Most indices of a later pass: it bounds the arrays of one pass at 2048
#: panels per component on equal seed panels.
MAX_ROWS_PER_PASS = 512
#: Mapping scale of every Matsubara row, in units of 1/d.  On the 4 seed
#: panels of quadrature.ROW_PANELS, scales 3/d, 2.5/d and 4/d end 86%, 87%
#: and 81% of the calls of the route digest's 882 pressures in one round
#: (92%, 96% and 86% over 615 converging cases of 10 nm-1 mm x 1-3000 K),
#: at 60-63 points per row.  3/d took the least time per pressure, median
#: over the 646 converging digest pressures and over the 615 cases
#: (2-vCPU x86-64); 2.5/d took less in total only over the cases longer
#: than 10 ms.
ROW_SCALE = 3.0
#: Rows with (xi_n/c) d below this, of any pair but two ideal metals, start
#: from seed panels graded toward u = xi_n/c (quadrature.integrate_rows'
#: knees), where their r(q) turns: on the 4 equal panels the lowest of them
#: took up to six refinement rounds (228 of the route digest's 1522 calls,
#: all at (xi_1/c) d < 0.41), graded they take one (0 of 1272).  It stays
#: below (xi_1/c) d = 0.41 of 300 K at 0.5 um, so no 300 K or 77 K
#: pressure of the benchmark has a graded row, and above the 0.21 of 77 K
#: at 1 um, whose first row needs a second round on equal panels.
GRADE_BELOW = 0.3
#: Reported relative tolerance of the real-frequency diagnostic route.
REALFREQ_REL_TOL = 5e-2
#: Frequency cap of the real-frequency route, in units of c/(2 d).
OMEGA_CAP_FACTOR = 50.0
#: Internal tolerances of the real-frequency route.  The frequency integral
#: cancels over many cavity oscillations, so it is driven far below the
#: reported diagnostic tolerance; the inner wavenumber integrals must be
#: tighter still.
_OMEGA_REL_TOL = 1e-4
_INNER_REL_TOL = 1e-6


@dataclass(frozen=True)
class CavityConfig:
    """Two materials facing each other across a vacuum gap."""

    material_1: materials.MaterialModel
    material_2: materials.MaterialModel
    d: float              # gap width, m
    T: float              # temperature, K
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 1e-9 <= self.d <= 1e-3:
            raise ValueError("gap width outside sanity bounds [1e-9, 1e-3] m")
        if not 0.0 < self.T <= 1e4:
            raise ValueError("temperature outside sanity bounds (0, 1e4] K")
        if not 0.0 < self.rel_tol < 1.0:    # also rejects nan
            raise ValueError(f"rel_tol must be a finite number in (0, 1), "
                             f"got {self.rel_tol!r}")


@dataclass
class PressureResult:
    pressure: float           # Pa, negative = attractive
    error_estimate: float     # Pa
    n0_te: float              # Pa, half-weighted n = 0 TE contribution
    n0_tm: float              # Pa, half-weighted n = 0 TM contribution
    per_n: list               # (n, te, tm) contributions as summed, Pa
    n_max: int
    evanescent: float | None = None   # real-frequency route only
    propagating: float | None = None


@dataclass
class StressSplit:
    """Pointwise stress integrand pieces at fixed (omega, k_perp), Pa/(m^-1 rad/s)."""

    longitudinal: float
    transverse_scalar: float
    transverse_propagating_te: float
    transverse_propagating_tm: float


def _round_trip(r1, r2, exp_factor):
    """(exp/[r1 r2] - 1)^(-1) written as y/(1-y) with y = r1 r2 exp_factor."""
    y = r1 * r2 * exp_factor
    return y / (1.0 - y)


def n0_term(config, polarization):
    """Half-weighted n = 0 Matsubara pressure for one polarization, Pa.

    Evaluates -(k_B T / 2 pi) * Int dk k^2 [exp(2 k d)/(r1 r2) - 1]^(-1)
    with the exact static reflection coefficients.  TE vanishes identically
    whenever either material has a finite or 1/omega permittivity at zero
    frequency.  Where r1 r2 = R does not depend on k (TM, and TE of two
    ideal metals) the integral is Li_3(R)/(4 d^3).  polarization is "te"
    or "tm", in any case; anything else raises ValueError.
    """
    return _n0_integral(config, polarization)[0]


#: The frequency array of the one-row static TE integral.
_STATIC_XI = np.zeros(1)
_STATIC_XI.flags.writeable = False
#: Zero-frequency classes whose static r_te does not vanish.
_STATIC_TE_CLASSES = (ZeroFreqClass.INVERSE_OMEGA_SQUARED, ZeroFreqClass.IDEAL)


def _static_te_row(m1, m2):
    """Whether the n = 0 TE term of m1 facing m2 is a k_perp integral: both
    static r_te survive (plasma-like or ideal) and one is plasma-like."""
    classes = zero_freq_class(m1), zero_freq_class(m2)
    return (ZeroFreqClass.INVERSE_OMEGA_SQUARED in classes
            and all(c in _STATIC_TE_CLASSES for c in classes))


def _row_failure(n, pol, exc):
    """NoConvergence naming the failed k_perp row (n, pol)."""
    return quadrature.NoConvergence(
        f"k_perp integral of Matsubara row (n={n}, {pol}): {exc}")


def _static_te(res, T):
    """(n = 0 TE term, its error estimate), Pa, at temperature T from row 0
    of a :func:`_matsubara_rows` result whose first frequency is 0.  A
    failed row raises NoConvergence naming (n=0, TE)."""
    if 0 in res.failures:
        exc = res.failures[0]
        raise _row_failure(0, "TE", exc) from exc
    pref = K_B * T / (2.0 * math.pi)
    return -pref * float(res.values[0]), pref * float(res.errors[0])


def _n0_integral(config, polarization):
    """(:func:`n0_term`, its error estimate), Pa.

    A closed form reports the quadrature.ROUNDING_FLOOR of its value.  The
    TE integral of plasma-like models is the TE row of a one-row
    :func:`_matsubara_rows` call at xi = 0, and reports that row's error:
    its Kronrod-minus-Gauss estimate plus the rounding floor of Int|f|.
    """
    pol = str(polarization).lower()
    if pol not in ("te", "tm"):
        raise ValueError(f"polarization must be 'te' or 'tm', got "
                         f"{polarization!r}")
    m1, m2, d = config.material_1, config.material_2, config.d
    te = pol == "te"
    if te and not (m1.kind is m2.kind is Kind.IDEAL_METAL):
        if _static_te_row(m1, m2):
            return _static_te(_matsubara_rows(m1, m2, d, _STATIC_XI),
                              config.T)
        return 0.0, 0.0
    pref = K_B * config.T / (2.0 * math.pi)
    R = 1.0 if te else fresnel.static_rtm(m1) * fresnel.static_rtm(m2)
    value = -pref * quadrature.polylog3(R) / (4.0 * d ** 3)
    return value, quadrature.ROUNDING_FLOOR * abs(value)


def classical_transverse_pressure(config):
    """Classical (hbar -> 0) limit of the transverse stress in the cavity, Pa.

    Contour rotation reduces the transverse stress average to the residue at
    zero frequency, which is exactly the half-weighted n = 0 TE Matsubara
    term; it vanishes unless both TE reflection coefficients survive at zero
    frequency.
    """
    return n0_term(config, "te")


def _coefficient_columns(m, xi):
    """(eps, xi) per row of m's coefficient call at the frequencies xi,
    xi[0] = 0 allowed; None for the ideal metal.

    eps comes from one :func:`materials.eval_imag_axis` call over the
    nonzero xi.  A xi = 0 row takes (1, 0), w = 0, for a finite or 1/omega
    model, and the pure plasma's (2, omega_p,eff) for a plasma-like one:
    w = (eps - 1)(xi/c)^2 of a pure plasma does not depend on xi, so that
    pair gives the xi -> 0 limit of every plasma-like model,
    w = (omega_p,eff/c)^2, with the static r_te of :func:`fresnel.static_rte`.
    """
    if m.kind is Kind.IDEAL_METAL:
        return None
    if xi[0] != 0.0:
        return materials.eval_imag_axis(m, xi), xi
    eps, x = np.empty(xi.shape), xi.copy()
    if zero_freq_class(m) is ZeroFreqClass.INVERSE_OMEGA_SQUARED:
        eps[0], x[0] = 2.0, materials.effective_omega_p(m)
    else:
        eps[0] = 1.0
    if xi.size > 1:
        eps[1:] = materials.eval_imag_axis(m, xi[1:])
    return eps, x


def _matsubara_rows(m1, m2, d, xi):
    """k_perp integrals of the Matsubara terms at the frequencies xi, at once.

    Row i integrates, for TE and for TM at xi[i] as two components on the
    same panels, k * q * [exp(2 q d)/(r1 r2) - 1]^(-1),
    q = sqrt(k^2 + xi^2/c^2), to KPERP_REL_TOL; the results hold TE at i
    and TM at len(xi) + i.  Each is written over u = q - xi/c in [0, inf)
    with k dk = q dq: the integrand q^2 * y/(1 - y), y = r1 r2 exp(-2 q d),
    has the envelope exp(-2 u d) on every row, so all rows share the
    mapping scale ROW_SCALE/d, on whose seed panels every call of the route
    digest meets all its targets in one round.  Rows with (xi/c) d below
    GRADE_BELOW, unless both materials are ideal metals, turn at
    u ~ xi/c, and their seed panels are graded toward it; a row's panels
    and bits do not depend on the other rows of its call.  Each point
    takes q = u + xi/c and gets its (r_TE, r_TM) pair from one
    :func:`fresnel.imag_axis_coefficients` call per material, which needs
    no k.

    xi[0] may be 0: that row is the static TE integral of the n = 0 term,
    with the columns of :func:`_coefficient_columns`, and its TM component
    is 0, with error 0, on every panel (the static TM term is a closed
    form).
    """
    static = xi[0] == 0.0
    c1 = _coefficient_columns(m1, xi)
    c2 = c1 if m2 is m1 or m2 == m1 else _coefficient_columns(m2, xi)
    a = xi / C

    def integrand(rows, u):
        q = u + a[rows]

        def pair(c):
            if c is None:
                return fresnel.imag_axis_coefficients(None, None, q)
            return fresnel.imag_axis_coefficients(c[0][rows], c[1][rows], q)

        r1 = pair(c1)
        r2 = r1 if c2 is c1 else pair(c2)
        # q^2 y/(1 - y), y = r1 r2 exp(-2 q d), for TE and TM at once; the
        # same operations, in the same order, as q^2 * _round_trip(...)
        y = np.empty((2,) + q.shape)
        for pol in (0, 1):
            np.multiply(r1[pol], r2[pol], out=y[pol])
        if static:
            y[1, rows[:, 0] == 0] = 0.0
        y *= np.exp((-2.0 * d) * q)
        out = y / (1.0 - y)
        out *= q * q
        return out

    graded = 0 if m1.kind is m2.kind is Kind.IDEAL_METAL else int(
        np.searchsorted(a, GRADE_BELOW / d))
    return quadrature.integrate_rows(integrand, xi.size, ROW_SCALE / d,
                                     KPERP_REL_TOL, a[:graded].tolist())


def pressure_matsubara(config):
    """Casimir pressure from the Matsubara representation.

    Returns a :class:`PressureResult` whose ``per_n`` list carries the
    as-summed (half-weighted for n = 0) TE and TM contributions.  The n >= 1
    terms are computed a chunk of indices at a time by
    :func:`_matsubara_rows`: a first chunk of at most ROWS_PER_PASS indices
    sized from the predicted index count plus CHUNK_MARGIN, then chunks of
    at most MAX_ROWS_PER_PASS sized by :func:`_predicted_stop` from the
    terms so far; a failed k_perp integral raises only if the sum consumes
    its index.  Where the n = 0 TE
    term is an integral (a plasma-like model facing a plasma-like model or
    the ideal metal), its xi = 0 row leads the first chunk, so it is the
    same number, bit for bit, as :func:`n0_term`'s; a failure of that row
    raises.  The other n = 0 terms are closed forms.
    ``error_estimate`` adds the tail bound and the error estimates of every
    summed k_perp integral, left to right.
    """
    m1, m2, d, T = config.material_1, config.material_2, config.d, config.T
    xi1 = 2.0 * math.pi * K_B * T / HBAR
    pref = -K_B * T / math.pi
    ceiling = quadrature.matsubara_ceiling(d, T)
    # terms fall like exp(-n/nu); about nu*ln(1/rel_tol) + 3 are summed
    nu = C / (2.0 * d * xi1)
    first = min(ROWS_PER_PASS,
                math.ceil(-nu * math.log(config.rel_tol)) + 3 + CHUNK_MARGIN)
    static = _static_te_row(m1, m2)
    tm0, tm0_err = _n0_integral(config, "tm")
    terms = []      # per index n, the term as summed
    n0 = []         # the n = 0 TE term and its error
    chunks = []     # per chunk, its (TE, TM) rows and their k_perp errors
    sums = []       # per chunk, the sum of its terms
    failed = {}     # n -> (polarization, NoConvergence) of a failed row

    def add_n0(te0, te0_err):
        terms.append(2.0 * (te0 + tm0))
        n0.extend((te0, te0_err))

    def extend(n):
        rest = ceiling + 1 - n      # indices up to the ceiling
        if n == 1:
            size = first
        elif rest <= 3 * CHUNK_MARGIN:
            size = rest     # fewer rows than a prediction costs
        else:
            horizon = min(ceiling, n - 1 + MAX_ROWS_PER_PASS)
            total = 0.5 * terms[0] + math.fsum(sums)
            size = (_predicted_stop(terms, total, nu, config.rel_tol, horizon)
                    - n + 1 + CHUNK_MARGIN + math.ceil(nu / 20.0))
        size = min(size, MAX_ROWS_PER_PASS, rest)
        head = int(n == 1 and static)   # the xi = 0 row leads chunk one
        res = _matsubara_rows(m1, m2, d, np.arange(n - head, n + size) * xi1)
        if head:
            add_n0(*_static_te(res, T))
        width = head + size
        for j, exc in sorted(res.failures.items()):
            failed.setdefault(n - head + j % width,
                              ("TM" if j >= width else "TE", exc))
        values = pref * res.values.reshape(2, -1)[:, head:]
        chunks.append((values, res.errors.reshape(2, -1)[:, head:]))
        summed = values[0] + values[1]
        sums.append(float(summed.sum()))
        terms.extend(summed.tolist())

    if not static:
        add_n0(*_n0_integral(config, "te"))

    def term(n):
        try:
            t = terms[n]
        except IndexError:
            extend(max(n, 1))   # a xi = 0 row comes with chunk one
            t = terms[n]
        if failed and n in failed:
            pol, exc = failed[n]
            raise _row_failure(n, pol, exc) from exc
        return t

    summed = quadrature.matsubara_sum(term, d, T, config.rel_tol)
    n = summed.n_max
    values, errors = chunks[0] if len(chunks) == 1 else (
        np.concatenate(a, axis=1) for a in zip(*chunks))
    te, tm = values[:, :n].tolist()
    error = n0[1] + tm0_err     # the k_perp errors, summed left to right
    for e in (abs(pref) * errors[:, :n].sum(axis=0)).tolist():
        error += e
    return PressureResult(
        pressure=summed.value, error_estimate=summed.tail_bound + error,
        n0_te=n0[0], n0_tm=tm0,
        per_n=list(zip(range(n + 1), [n0[0]] + te, [tm0] + tm)),
        n_max=n)


def _predicted_stop(terms, total, nu, rel_tol, horizon):
    """Index at which :func:`quadrature.matsubara_sum` is predicted to stop
    on the terms so far, of sum total, and their continuation; horizon if
    not before it.

    The continuation takes the last term n times I(k/nu)/I(n/nu), I the
    k-th term of two ideal metals up to a constant,
    I(x) = sum_m exp(-m x) (x^2/m + 2 x/m^2 + 2/m^3), times the power of
    k/n that the ratio of the terms to I followed over the last 8 indices
    (the slow drift of the reflection coefficients).  The series in m is
    cut where exp(-m x) < exp(-8) at the first of those indices.  Over the
    250 long sums of the CHUNK_MARGIN comment the prediction lies 3
    indices below to 0.75 nu above the true stop; the last two terms'
    decay ratio, continued geometrically, lay up to 41 indices (0.14
    n_max) above it.  Terms that vanish or underflow predict no stop.
    """
    n = len(terms) - 1
    back = min(8, n // 2)
    x = np.arange(n - back, horizon + 1) / nu
    m = np.arange(1.0, min(64, math.ceil(8.0 / x[0])) + 1)
    a = _SHAPE_WEIGHTS[:, :m.size] @ np.exp(np.multiply.outer(-m, x))
    shape = (a[0] * x + a[1]) * x + a[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        drift = np.log(abs(terms[n] * shape[0])
                       / abs(terms[n - back] * shape[back])) / math.log(
                           n / (n - back))
        t = (terms[n] / shape[back]) * shape[back + 1:] * (
            x[back + 1:] / x[back]) ** drift
        mag = np.abs(t)
        ratio = mag[1:] / mag[:-1]
        done = np.flatnonzero(mag[1:] * ratio / (1.0 - ratio) <= rel_tol
                              * np.abs(np.cumsum(t) + total)[1:])
    return n + 2 + int(done[0]) if done.size else horizon


#: Rows (1/m, 2/m^2, 2/m^3), m = 1..64, of the series of
#: :func:`_predicted_stop`.
_SHAPE_WEIGHTS = np.array([[1.0 / m, 2.0 / m ** 2, 2.0 / m ** 3]
                           for m in range(1, 65)]).T.copy()
_SHAPE_WEIGHTS.flags.writeable = False


def _im_round_trip(eps1, eps2, omega, d, kz, pols=(0, 1)):
    """Im{q * sum_pol [exp(-2 i k_z d)/(r1 r2) - 1]^(-1)} at real omega, q = -i k_z.

    kz is the vacuum normal wavevector: real in [0, omega/c] for propagating
    waves, positive imaginary for evanescent ones.  Both sectors have
    k_z^2 = (omega/c)^2 - k_perp^2, so the medium wavevector is
    s = sqrt((eps - 1)(omega/c)^2 + k_z^2).  pols indexes (TE, TM).
    """
    k0sq = (omega / C) ** 2
    kz = np.asarray(kz, dtype=complex)
    r1, r2 = (fresnel.real_axis_coefficients(
        eps, k0sq, kz,
        None if eps is None else fresnel.branch_sqrt((eps - 1.0) * k0sq + kz * kz))
        for eps in (eps1, eps2))
    phase = np.exp(2j * kz * d)
    total = sum(_round_trip(r1[pol], r2[pol], phase) for pol in pols)
    return np.imag(-1j * kz * total)


def _energy_per_omega(omega, T):
    """E_beta(omega)/omega = (hbar/2) coth(hbar omega / 2 k_B T)."""
    x = HBAR * omega / (2.0 * K_B * T)
    return 0.5 * HBAR / math.tanh(x)


def _check_real_axis_model(model):
    """Reject a model the real-frequency route cannot integrate."""
    if model.kind is Kind.TABULATED:
        raise TabulatedOutOfRange(
            "real-frequency route needs real-axis permittivities")
    vacuum = (model.kind is Kind.INSULATOR and model.eps0 == 1.0
              and not model.oscillators)
    if model.kind is not Kind.DRUDE and not vacuum:
        raise MaterialError(
            f"real-frequency route accepts only Drude media and vacuum; the "
            f"{model.kind.value} model is lossless as omega -> 0")


def pressure_real_frequency(config):
    """Casimir pressure from the real-frequency representation (diagnostic).

    The frequency integrand oscillates on the cavity round-trip scale
    pi*c/d with an envelope that dwarfs the net pressure, so the route is
    diagnostic-grade: the reported tolerance is 5e-2.  A hard
    frequency cutoff would leave a truncation residual of the oscillation
    amplitude; instead the integrand is rolled off smoothly (cosine taper
    over [omega_cap, 2*omega_cap]) after the slab reflectivities have
    decayed.  ``omega_cap`` is the larger of ``OMEGA_CAP_FACTOR * c/(2 d)``
    and 1.5x the larger plasma frequency.
    The total and its evanescent part are two components of one frequency
    integral on shared panels, and the breakdown reports the evanescent
    part and propagating = total - evanescent instead of per-index terms.

    Each material must be a Drude model or vacuum; others raise a
    MaterialError before any integration.  Tabulated models carry no
    real-axis information.  Every other model is lossless as omega -> 0
    (Im eps vanishes or is zero), so the integrand near the cavity modes
    is (nearly) singular on the real axis: plasma-like models and the
    ideal metal fail or come out orders of magnitude off, a Lorentz
    insulator with eps(inf) = 1 comes out some ten percent off, beyond its
    error estimate, and an insulator with eps0 != 1 also never stops
    reflecting, so the frequency integral has no cutoff.
    """
    m1, m2, d, T = config.material_1, config.material_2, config.d, config.T
    for m in (m1, m2):
        _check_real_axis_model(m)
    omega_cap = max(OMEGA_CAP_FACTOR * C / (2.0 * d),
                    1.5 * max(m1.omega_p, m2.omega_p))
    omega_total = 2.0 * omega_cap

    def inner(omega):
        """(total, evanescent) k_perp integrals at omega."""
        eps1, eps2 = fresnel.epsilon(m1, omega), fresnel.epsilon(m2, omega)
        kc = omega / C
        # k_perp dk_perp = -k_z dk_z absorbs the grazing-incidence blow-up
        # at k_perp -> omega/c and makes the round-trip phase uniform in
        # the integration variable
        n_seed = max(4, math.ceil(2.0 * d * omega / (math.pi * C) * 4))
        propagating = quadrature.composite_gk(
            lambda kz: kz * _im_round_trip(eps1, eps2, omega, d, kz),
            np.linspace(0.0, kc, n_seed + 1), _INNER_REL_TOL).value

        def evanescent(u):
            k = kc + u
            kz = fresnel.branch_sqrt(kc * kc - k * k)
            return k * _im_round_trip(eps1, eps2, omega, d, kz)
        evan = quadrature.integrate_semi_infinite(
            evanescent, 0.5 / d, _INNER_REL_TOL).value
        return propagating + evan, evan

    def g(w):
        taper = 1.0 if w <= omega_cap else 0.5 * (1.0 + math.cos(
            math.pi * (w - omega_cap) / (omega_total - omega_cap)))
        if taper == 0.0:
            return np.zeros(2)
        return taper * _energy_per_omega(w, T) * np.array(inner(w))

    # one seed panel per half oscillation of the cavity round-trip phase
    n_seed = max(16, math.ceil(omega_total * 2.0 * d / (math.pi * C) * 2))
    res = quadrature.integrate_real_frequency(
        g, omega_total, _OMEGA_REL_TOL, seed_panels=n_seed)
    pref = -1.0 / math.pi ** 2
    total, evan = (pref * res.value).tolist()
    return PressureResult(
        pressure=total,
        error_estimate=abs(pref) * float(res.error_estimate[0])
        + abs(total) * REALFREQ_REL_TOL,
        n0_te=0.0, n0_tm=0.0, per_n=[], n_max=0,
        evanescent=evan, propagating=total - evan)


def stress_split_integrands(config, omega, k_perp):
    """Pointwise stress decomposition at real (omega, k_perp).

    The longitudinal piece and the scalar part of the transverse piece are
    exact negatives of each other (the cancellation identity); the two
    propagating pieces are the TE and TM terms of the transverse stress.
    """
    if omega <= 0 or k_perp <= 0:
        raise ValueError("omega and k_perp must be positive")
    m1, m2, d, T = config.material_1, config.material_2, config.d, config.T
    ebw = _energy_per_omega(omega, T) / math.pi ** 2

    eps1, eps2 = fresnel.epsilon(m1, omega), fresnel.epsilon(m2, omega)
    ybar = (fresnel.scalar_coefficient(eps1) * fresnel.scalar_coefficient(eps2)
            * math.exp(-2.0 * k_perp * d))
    scalar_bracket = ybar / (1.0 - ybar)
    longitudinal = ebw * k_perp ** 2 * (-scalar_bracket).imag
    transverse_scalar = ebw * k_perp ** 2 * scalar_bracket.imag

    kz = fresnel.branch_sqrt((omega / C) ** 2 - k_perp * k_perp)
    te, tm = (-ebw * k_perp * float(_im_round_trip(eps1, eps2, omega, d, kz, (pol,)))
              for pol in (0, 1))
    return StressSplit(longitudinal, transverse_scalar, te, tm)
