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
#: Most (n, polarization) rows of the Matsubara kernel per array pass.  It
#: bounds the arrays of a pass and, on sums longer than a pass, the rows
#: computed past the last summed n.  A pass is one refinement round of fixed
#: overhead plus work in proportion to its rows; on the benchmark's Matsubara
#: ops (two seeds, 2-vCPU x86-64) 32, 64 and 128 rows ran within 3% of each
#: other in total, 128 rows 1.05x slower than 64 on long sums.
ROWS_PER_PASS = 64
#: Indices a chunk adds to the predicted count ceil(nu*ln(1/rel_tol)) + 3.
#: On the benchmark's 300 K and 77 K pressures n_max lies 1 below to 4 above
#: the prediction, so one pass computes them all.
CHUNK_MARGIN = 4
#: Default relative tolerance of the real-frequency diagnostic route.
REALFREQ_REL_TOL = 5e-2
#: Default frequency cap of the real-frequency route, in units of c/(2 d).
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
    frequency.
    """
    return _n0_integral(config, polarization)[0]


def _n0_integral(config, polarization):
    """(:func:`n0_term`, its error estimate), Pa.

    The error adds the quadrature.ROUNDING_FLOOR of the integral to its GK
    estimate.  Static r1 r2 is never negative, so the integrand keeps one
    sign and |I| is its Int|f|.
    """
    m1, m2, d = config.material_1, config.material_2, config.d
    te = str(polarization).lower().endswith("te")
    if te:
        classes = {zero_freq_class(m1), zero_freq_class(m2)}
        if classes & {ZeroFreqClass.FINITE, ZeroFreqClass.INVERSE_OMEGA}:
            return 0.0, 0.0

        def f(k):
            y = _round_trip(fresnel.static_rte(m1, k),
                            fresnel.static_rte(m2, k), np.exp(-2.0 * k * d))
            return k * k * y
    else:
        r1 = fresnel.reflection_static(m1, 1.0 / d).r_tm.real
        r2 = fresnel.reflection_static(m2, 1.0 / d).r_tm.real

        def f(k):
            return k * k * _round_trip(r1, r2, np.exp(-2.0 * k * d))

    res = quadrature.integrate_semi_infinite(f, 0.5 / d, KPERP_REL_TOL)
    pref = K_B * config.T / (2.0 * math.pi)
    return -pref * res.value, pref * (
        res.error_estimate + quadrature.ROUNDING_FLOOR * abs(res.value))


def classical_transverse_pressure(config):
    """Classical (hbar -> 0) limit of the transverse stress in the cavity, Pa.

    Contour rotation reduces the transverse stress average to the residue at
    zero frequency, which is exactly the half-weighted n = 0 TE Matsubara
    term; it vanishes unless both TE reflection coefficients survive at zero
    frequency.
    """
    return n0_term(config, "te")


def _matsubara_rows(m1, m2, d, xi):
    """k_perp integrals of the Matsubara rows at the frequencies xi, at once.

    Row i < len(xi) is TE at xi[i], row len(xi) + i is TM there.  Each row
    integrates k * q * [exp(2 q d)/(r1 r2) - 1]^(-1), q = sqrt(k^2 + xi^2/c^2),
    to KPERP_REL_TOL, written over u = q - xi/c in [0, inf) with
    k dk = q dq: the integrand q^2 * y/(1 - y), y = r1 r2 exp(-2 q d), has
    the envelope exp(-2 u d) on every row, so all rows share the mapping
    scale 1/d.  Each point forms k = sqrt(u (u + 2 xi/c)) and q from k as
    the coefficients do, which keeps r = 0 exact for eps = 1.  eps comes
    from one array call per material, and each point gets one coefficient
    per material.
    """
    eps1 = fresnel.epsilon(m1, 1j * xi)
    eps2 = eps1 if m2 == m1 else fresnel.epsilon(m2, 1j * xi)
    # per-row tables, read through the (m, 1) row index of each panel
    xi_row = np.concatenate((xi, xi))
    tm_row = np.arange(2 * xi.size) >= xi.size
    eps1_row, eps2_row = (None if eps is None else np.concatenate((eps, eps))
                          for eps in (eps1, eps2))

    def integrand(rows, u):
        x, tm = xi_row[rows], tm_row[rows]
        a = x / C
        k = np.sqrt(u * (u + 2.0 * a))
        q = np.sqrt(k * k + a ** 2)

        def coefficient(eps):
            return fresnel.imag_axis_coefficients(
                None if eps is None else eps[rows], x, k, tm, q)

        r1 = coefficient(eps1_row)
        r2 = r1 if eps2 is eps1 else coefficient(eps2_row)
        return q * q * _round_trip(r1, r2, np.exp(-2.0 * q * d))

    return quadrature.integrate_rows(integrand, 2 * xi.size, 1.0 / d,
                                     KPERP_REL_TOL)


def pressure_matsubara(config):
    """Casimir pressure from the Matsubara representation.

    Returns a :class:`PressureResult` whose ``per_n`` list carries the
    as-summed (half-weighted for n = 0) TE and TM contributions.  The n >= 1
    terms are computed a chunk of indices at a time by
    :func:`_matsubara_rows`, in chunks of at most ROWS_PER_PASS/2 indices
    sized from the predicted index count plus CHUNK_MARGIN; a row's failed
    k_perp integral raises only if the sum consumes that row.
    ``error_estimate`` adds the tail bound and the error estimates of every
    summed k_perp integral.
    """
    m1, m2, d, T = config.material_1, config.material_2, config.d, config.T
    xi1 = 2.0 * math.pi * K_B * T / HBAR
    pref = -K_B * T / math.pi
    ceiling = quadrature.matsubara_ceiling(d, T)
    # terms fall like exp(-n/nu); about nu*ln(1/rel_tol) + 3 are summed
    nu = C / (2.0 * d * xi1)
    step = min(ROWS_PER_PASS // 2,
               math.ceil(-nu * math.log(config.rel_tol)) + 3 + CHUNK_MARGIN)
    breakdown = {}
    quad_err = [0.0]
    chunk = {"stop": 1}

    def term(n):
        if n == 0:
            te, te_err = _n0_integral(config, "te")
            tm, tm_err = _n0_integral(config, "tm")
            breakdown[0] = (te, tm)
            quad_err[0] += te_err + tm_err
            return 2.0 * (te + tm)
        if n >= chunk["stop"]:
            ns = np.arange(n, min(n + step, ceiling + 1))
            res = _matsubara_rows(m1, m2, d, ns * xi1)
            chunk.update(
                start=n, stop=n + ns.size, failures=res.failures,
                terms=(pref * res.values).reshape(2, -1).T.tolist(),
                errors=(abs(pref) * res.errors.reshape(2, -1).sum(axis=0))
                .tolist())
        i = n - chunk["start"]
        for j, pol in ((i, "TE"), (len(chunk["terms"]) + i, "TM")):
            if j in chunk["failures"]:
                exc = chunk["failures"][j]
                raise quadrature.NoConvergence(
                    f"k_perp integral of Matsubara row (n={n}, {pol}): "
                    f"{exc}") from exc
        te, tm = chunk["terms"][i]
        breakdown[n] = (te, tm)
        quad_err[0] += chunk["errors"][i]
        return te + tm

    summed = quadrature.matsubara_sum(term, d, T, config.rel_tol)
    n0_te, n0_tm = breakdown[0]
    return PressureResult(
        pressure=summed.value,
        error_estimate=summed.tail_bound + quad_err[0],
        n0_te=n0_te, n0_tm=n0_tm,
        per_n=[(n, te, tm) for n, (te, tm) in breakdown.items()],
        n_max=summed.n_max)


def _im_round_trip(eps1, eps2, omega, d, kz, pols=(0, 1)):
    """Im{q * sum_pol [exp(-2 i k_z d)/(r1 r2) - 1]^(-1)} at real omega, q = -i k_z.

    kz is the vacuum normal wavevector: real in [0, omega/c] for propagating
    waves, positive imaginary for evanescent ones.  Both sectors have
    k_z^2 = (omega/c)^2 - k_perp^2, so the medium wavevector is
    s = sqrt((eps - 1)(omega/c)^2 + k_z^2).  pols indexes (TE, TM).
    """
    k0sq = (omega / C) ** 2
    kz = np.asarray(kz, dtype=complex)
    r1, r2 = (fresnel.coefficients(eps, kz, None if eps is None else
                                   fresnel.branch_sqrt((eps - 1.0) * k0sq + kz * kz))
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


def pressure_real_frequency(config, rel_tol=REALFREQ_REL_TOL,
                            omega_cap=None):
    """Casimir pressure from the real-frequency representation (diagnostic).

    The frequency integrand oscillates on the cavity round-trip scale
    pi*c/d with an envelope that dwarfs the net pressure, so the route is
    diagnostic-grade: the default reported tolerance is 5e-2.  A hard
    frequency cutoff would leave a truncation residual of the oscillation
    amplitude; instead the integrand is rolled off smoothly (cosine taper
    over [omega_cap, 2*omega_cap]) after the slab reflectivities have
    decayed.  The default ``omega_cap`` is the larger of
    ``OMEGA_CAP_FACTOR * c/(2 d)`` and 1.5x the larger plasma frequency.
    The breakdown reports the evanescent/propagating split instead of
    per-index terms.

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
    if omega_cap is None:
        omega_cap = max(OMEGA_CAP_FACTOR * C / (2.0 * d),
                        1.5 * max(m1.omega_p, m2.omega_p))
    omega_total = 2.0 * omega_cap

    def inner(omega, propagating):
        """k_perp integral at omega: evanescent, plus propagating if asked."""
        eps1, eps2 = fresnel.epsilon(m1, omega), fresnel.epsilon(m2, omega)
        kc = omega / C
        total = 0.0
        if propagating:
            # k_perp dk_perp = -k_z dk_z absorbs the grazing-incidence
            # blow-up at k_perp -> omega/c and makes the round-trip phase
            # uniform in the integration variable
            n_seed = max(4, math.ceil(2.0 * d * omega / (math.pi * C) * 4))
            res = quadrature.composite_gk(
                lambda kz: kz * _im_round_trip(eps1, eps2, omega, d, kz),
                np.linspace(0.0, kc, n_seed + 1), _INNER_REL_TOL)
            total += res.value

        def evanescent(u):
            k = kc + u
            kz = fresnel.branch_sqrt(kc * kc - k * k)
            return k * _im_round_trip(eps1, eps2, omega, d, kz)
        res = quadrature.integrate_semi_infinite(
            evanescent, 0.5 / d, _INNER_REL_TOL)
        return total + res.value

    def g(propagating):
        def fn(w):
            if w <= omega_cap:
                taper = 1.0
            else:
                taper = 0.5 * (1.0 + math.cos(
                    math.pi * (w - omega_cap) / (omega_total - omega_cap)))
                if taper == 0.0:
                    return 0.0
            return taper * _energy_per_omega(w, T) * inner(w, propagating)
        return fn

    # one seed panel per half oscillation of the cavity round-trip phase
    n_seed = max(16, math.ceil(omega_total * 2.0 * d / (math.pi * C) * 2))
    omega_rel = min(_OMEGA_REL_TOL, rel_tol)
    res_total = quadrature.integrate_real_frequency(
        g(True), omega_total, omega_rel, seed_panels=n_seed)
    res_evan = quadrature.integrate_real_frequency(
        g(False), omega_total, omega_rel, seed_panels=n_seed)
    pref = -1.0 / math.pi ** 2
    total = pref * res_total.value
    evan = pref * res_evan.value
    return PressureResult(
        pressure=total,
        error_estimate=abs(pref) * res_total.error_estimate
        + abs(total) * rel_tol,
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
