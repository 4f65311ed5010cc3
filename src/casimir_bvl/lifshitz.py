"""Casimir pressure between two plane-parallel slabs.

Two independent routes are provided: the Matsubara sum over imaginary
frequencies (production path) and the real-frequency integral (diagnostic
path, looser tolerance).  Pressures are reported in pascal with negative
values meaning attraction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fresnel, materials, quadrature
from .constants import C, HBAR, K_B
from .materials import Kind, MaterialError, TabulatedOutOfRange

#: Default relative tolerance of the transverse-wavenumber integrals.
KPERP_REL_TOL = 1e-8
#: Most Matsubara indices, one k_perp row each (TE and TM), of one array
#: pass of the kernel: it bounds the arrays of a pass at 2048 panels per
#: component on equal seed panels.
MAX_ROWS_PER_PASS = 512
#: Largest reach ceil(nu x*) + 3 of a Matsubara sum, 2^22: a larger one is
#: rejected before any row, since the cost grows as 1/(d T) in time and
#: memory.  The largest sum measured to converge, two ideal metals at
#: 10 nm, 0.1 K and rel_tol 1e-6, stops at n_max = 3 269 337 (5.7 s,
#: 983 MB, 2-vCPU x86-64) within it.  The cap rejects d T below about
#: 1.1e-9 m K at rel_tol 1e-9 (0.11 K at 10 nm) and 7.8e-10 m K at 1e-6.
MAX_REACH = 1 << 22
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


def n0_term(config, polarization):
    """Half-weighted n = 0 Matsubara pressure for one polarization, Pa.

    Evaluates -(k_B T / 2 pi) * Int dk k^2 [exp(2 k d)/(r1 r2) - 1]^(-1)
    with the exact static reflection coefficients, by the readers of
    :func:`pressure_matsubara`, :func:`_n0_te` and :func:`_n0_tm`.  TE
    vanishes identically whenever either material has a finite or 1/omega
    permittivity at zero frequency.  Where r1 r2 = R does not depend on k
    (TM, and TE of two ideal metals) the integral is Li_3(R)/(4 d^3).
    polarization is "te" or "tm", in any case; anything else raises
    ValueError.
    """
    pol = str(polarization).lower()
    if pol not in ("te", "tm"):
        raise ValueError(f"polarization must be 'te' or 'tm', got "
                         f"{polarization!r}")
    m1, m2, d = config.material_1, config.material_2, config.d
    pref = -K_B * config.T / math.pi
    if pol == "tm":
        return _n0_tm(m1, m2, d, pref)[0]
    row = (_matsubara_rows(m1, m2, d, _STATIC_XI)
           if _static_te_row(m1, m2) else None)
    return _n0_te(m1, m2, d, pref, row)[0]


@functools.lru_cache(maxsize=64)
def _ideal_stop(rel_tol):
    """x* >= 3 solving exp(-x) (x^2 + 2 x + 2) x/(x - 2) = (pi^4/15) rel_tol:
    the n/nu at which :func:`quadrature.matsubara_sum`'s tail test stops on
    the terms of two ideal metals.

    Up to a common factor their term n is exp(-x) (x^2 + 2 x + 2), x = n/nu
    (the first of their reflection orders), and their sum (pi^4/15) nu.  At
    large nu the geometric tail bound of a term is about nu times it times
    (x^2 + 2 x + 2)/x^2, below x/(x - 2), so the test holds from x*.  As
    |r| <= 1 for every model, their terms bound every other pair's.  A
    fixed point from x = max(3, ln(15/(pi^4 rel_tol))), to 1e-3.
    """
    target = -math.log(math.pi ** 4 / 15.0 * rel_tol)
    x, last = max(3.0, target), 0.0
    while abs(x - last) > 1e-3:
        x, last = max(3.0, target + math.log(
            (x * x + 2.0 * x + 2.0) * x / (x - 2.0))), x
    return x


#: The frequency array of the one-row static TE integral.
_STATIC_XI = np.zeros(1)
_STATIC_XI.flags.writeable = False


def _static_te_row(m1, m2):
    """Whether the n = 0 TE term of m1 facing m2 is a k_perp integral: both
    static r_te survive (:func:`fresnel.static_nw` is not 0) and one is
    plasma-like (not the ideal metal's None)."""
    nw = fresnel.static_nw(m1), fresnel.static_nw(m2)
    return 0.0 not in nw and nw != (None, None)


def _row_failure(n, pol, exc):
    """NoConvergence naming the failed k_perp row (n, pol)."""
    return quadrature.NoConvergence(
        f"k_perp integral of Matsubara row (n={n}, {pol}): {exc}")


def _n0_te(m1, m2, d, pref, row):
    """(n = 0 TE term, its error estimate), Pa, from half the term
    prefactor pref = -k_B T/pi.

    row is the :func:`_matsubara_rows` result led by the xi = 0 row where
    the term is a k_perp integral (:func:`_static_te_row`), whose TE value
    and error, its Kronrod-minus-Gauss estimate plus the rounding floor of
    Int|f|, it reads; a failed row raises NoConvergence naming (n=0, TE).
    row is None where the term is a closed form: that of two ideal metals,
    whose r1 r2 = 1 as for TM, else 0.
    """
    if row is None:
        if m1.kind is m2.kind is Kind.IDEAL_METAL:
            return _n0_tm(m1, m2, d, pref)
        return 0.0, 0.0
    if 0 in row.failures:
        exc = row.failures[0]
        raise _row_failure(0, "TE", exc) from exc
    half = 0.5 * pref
    return half * float(row.values[0]), -half * float(row.errors[0])


def _n0_tm(m1, m2, d, pref):
    """(n = 0 TM term, its error estimate), Pa, from half the term
    prefactor pref = -k_B T/pi: with r1 r2 = R of the static r_tm, which
    does not depend on k, pref/2 * Li_3(R)/(4 d^3), and the
    quadrature.ROUNDING_FLOOR of its value."""
    R = fresnel.static_rtm(m1) * fresnel.static_rtm(m2)
    value = 0.5 * pref * quadrature.polylog3(R) / (4.0 * d ** 3)
    return value, quadrature.ROUNDING_FLOOR * abs(value)


def classical_transverse_pressure(config):
    """Classical (hbar -> 0) limit of the transverse stress in the cavity, Pa.

    Contour rotation reduces the transverse stress average to the residue at
    zero frequency, which is exactly the half-weighted n = 0 TE Matsubara
    term; it vanishes unless both TE reflection coefficients survive at zero
    frequency.
    """
    return n0_term(config, "te")


def _coefficient_columns(m, xi, a):
    """(eps, nw) per row of m's :func:`fresnel.imag_axis_coefficients`
    calls at the frequencies xi, a = xi/c; None for the ideal metal.

    eps comes from one :func:`materials.eval_imag_axis` call over the
    nonzero xi, and nw = (1 - eps) a^2.  A xi = 0 row, xi[0], takes
    :func:`fresnel.static_nw` and eps = 1, read only by its masked TM.
    """
    if m.kind is Kind.IDEAL_METAL:
        return None
    if xi[0] != 0.0:
        eps = materials.eval_imag_axis(m, xi)
        return eps, (1.0 - eps) * a ** 2
    if xi.size == 1:
        return np.ones(1), np.full(1, fresnel.static_nw(m))
    eps, nw = _coefficient_columns(m, xi[1:], a[1:])
    return (np.concatenate(([1.0], eps)),
            np.concatenate(([fresnel.static_nw(m)], nw)))


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
    no k, written into a buffer of the call.

    xi[0] may be 0: that row is the static TE integral of the n = 0 term,
    an ordinary row with the static nw of :func:`_coefficient_columns`,
    and its TM component is 0, with error 0, on every panel (the static TM
    term is a closed form).
    """
    static = xi[0] == 0.0
    a = xi / C
    c1 = _coefficient_columns(m1, xi, a)
    c2 = c1 if m2 is m1 or m2 == m1 else _coefficient_columns(m2, xi, a)

    def integrand(rows, u):
        # every array of the call, each shaped like u, in one buffer: the
        # (TE, TM) pair, a spare pair, q, q^2 and exp(-2 q d).  Separate
        # temporaries above the malloc mmap threshold let glibc trim and
        # fault in the heap top on every call of a long pass.
        work = np.empty((7,) + u.shape)
        y, spare, q, q2, e = work[:2], work[2:4], work[4], work[5], work[6]
        np.add(u, a.take(rows), out=q)
        np.multiply(q, q, out=q2)

        def pair(c, out):
            if c is None:
                return fresnel.imag_axis_coefficients(None, None, q, out)
            return fresnel.imag_axis_coefficients(
                c[0].take(rows), c[1].take(rows), q, out)

        r1 = pair(c1, y)
        r2 = r1 if c2 is c1 else pair(c2, spare)
        # q^2 y/(1 - y), y = r1 r2 exp(-2 q d), for TE and TM at once; the
        # same operations, in the same order, as q^2 * (y/(1 - y)) with
        # y = (r1 * r2) * exp(-2 q d)
        np.multiply(r1, r2, out=y)
        if static:
            y[1, rows[:, 0] == 0] = 0.0
        np.multiply(-2.0 * d, q, out=e)
        y *= np.exp(e, out=e)
        np.divide(y, np.subtract(1.0, y, out=spare), out=y)
        y *= q2
        return y

    graded = 0 if m1.kind is m2.kind is Kind.IDEAL_METAL else int(
        a.searchsorted(GRADE_BELOW / d))
    return quadrature.integrate_rows(integrand, xi.size, ROW_SCALE / d,
                                     KPERP_REL_TOL, a[:graded].tolist())


def pressure_matsubara(config):
    """Casimir pressure from the Matsubara representation.

    Returns a :class:`PressureResult` whose ``per_n`` list carries the
    as-summed (half-weighted for n = 0) TE and TM contributions.  One rule
    bounds and sizes the sum: the reach ceil(nu x*) + 3, nu = c/(2 d xi_1)
    and x* :func:`_ideal_stop`'s, is where the sum of two ideal metals
    stops, whose terms bound every pair's, and the index ceiling is twice
    the reach.  A reach above MAX_REACH, a xi_1 that underflows to 0
    included, raises ValueError naming the cap before any row is computed.
    The k_perp integrals come in passes of the kernel of at most
    MAX_ROWS_PER_PASS indices: the first runs to the reach, which usually
    covers the sum, and each later one towards the ceiling.  Each pass
    extends three per-index lists, of the TE and TM terms and of their
    summed k_perp errors, which term n (TE + TM), ``per_n`` and
    ``error_estimate`` read.  The n = 0 terms (:func:`_n0_te`,
    :func:`_n0_tm`) and the first pass come before the sum starts.  Where
    the n = 0 TE term is an integral (a plasma-like model facing a
    plasma-like model or the ideal metal), its xi = 0 row leads the first
    pass, so it equals :func:`n0_term`'s bit for bit, and its failure
    raises; the other n = 0 terms are closed forms.  A failed k_perp
    integral of n >= 1 raises only if the sum consumes its index.
    ``error_estimate`` adds the tail bound and the error estimates of every
    summed k_perp integral, left to right.  Each model's zero-frequency
    rules, :func:`fresnel.static_nw` and :func:`fresnel.static_rtm`, are
    computed once per model instance: a call on models used before
    classifies neither again.
    """
    m1, m2, d = config.material_1, config.material_2, config.d
    xi1 = 2.0 * math.pi * K_B * config.T / HBAR
    pref = -K_B * config.T / math.pi
    span = 2.0 * d * xi1    # 0 where xi_1 underflowed
    stop = C / span * _ideal_stop(config.rel_tol) if span else math.inf
    if stop > MAX_REACH - 3:
        count = math.ceil(stop) + 3 if stop < math.inf else stop
        raise ValueError(f"the Matsubara sum would need {count:.10g} indices "
                         f"(ceil(nu x*) + 3), above the cap MAX_REACH = "
                         f"{MAX_REACH}; its cost grows as 1/(d T): raise d "
                         f"or T")
    reach = math.ceil(stop) + 3
    ceiling = 2 * reach
    te, tm, err = [0.0], [0.0], [0.0]   # per index n; n = 0 set below
    failed = {}     # n -> (polarization, NoConvergence) of a failed row

    def rows(n, head=0):
        """Extend the lists by the pass from n, from one
        :func:`_matsubara_rows` call led by head xi = 0 rows, and return its
        result."""
        last = min(reach if n == 1 else ceiling, n - 1 + MAX_ROWS_PER_PASS)
        res = _matsubara_rows(m1, m2, d, np.arange(n - head, last + 1) * xi1)
        if res.failures:
            width = head + last + 1 - n
            for j, exc in sorted(res.failures.items()):
                failed.setdefault(n - head + j % width,
                                  ("TM" if j >= width else "TE", exc))
        values = (pref * res.values.reshape(2, -1)[:, head:]).tolist()
        te.extend(values[0])
        tm.extend(values[1])
        e = res.errors.reshape(2, -1)[:, head:]
        err.extend((abs(pref) * (e[0] + e[1])).tolist())
        return res

    static = _static_te_row(m1, m2)
    res = rows(1, int(static))
    te0, te0_err = _n0_te(m1, m2, d, pref, res if static else None)
    tm0, tm0_err = _n0_tm(m1, m2, d, pref)
    te[0], tm[0], err[0] = te0, tm0, te0_err + tm0_err

    def term(n):
        if n == len(te):
            rows(n)
        if failed and n in failed:
            pol, exc = failed[n]
            raise _row_failure(n, pol, exc) from exc
        return te[n] + tm[n]

    summed = quadrature.matsubara_sum(term, ceiling, config.rel_tol)
    n = summed.n_max
    error = 0.0     # the k_perp errors, summed left to right
    for e in err[:n + 1]:
        error += e
    return PressureResult(
        pressure=summed.value, error_estimate=summed.tail_bound + error,
        n0_te=te0, n0_tm=tm0, per_n=list(zip(range(n + 1), te, tm)),
        n_max=n)


def _im_round_trip(eps1, eps2, omega, d, kz):
    """Im{q y/(1 - y)} at real omega, q = -i k_z, y = r1 r2 exp(2 i k_z d),
    for TE and TM stacked on a leading axis of 2; r2 is r1 if eps2 is eps1.

    kz is the vacuum normal wavevector: real in [0, omega/c] for propagating
    waves, positive imaginary for evanescent ones.  Both sectors have
    k_z^2 = (omega/c)^2 - k_perp^2, so the medium wavevector is
    s = sqrt((eps - 1)(omega/c)^2 + k_z^2).
    """
    k0sq = (omega / C) ** 2
    kz = np.asarray(kz, dtype=complex)

    def pair(eps):
        s = None if eps is None else fresnel.branch_sqrt(
            (eps - 1.0) * k0sq + kz * kz)
        return fresnel.real_axis_coefficients(eps, k0sq, kz, s)
    r1 = pair(eps1)
    r2 = r1 if eps2 is eps1 else pair(eps2)
    phase = np.exp(2j * kz * d)
    y = np.array([a * b * phase for a, b in zip(r1, r2)])
    return np.imag(-1j * kz * (y / (1.0 - y)))


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
    reflecting, so the frequency integral has no cutoff.  A Drude model of
    small damping nears that limit: at omega_p = 1e15 rad/s, 1 um and
    300 K the route works for gamma >= 3e11 rad/s, and for gamma <= 1e11
    it raises NoPlateau, its only guard there (without the plateau search
    it came out 17% off at gamma = 1e9, against a 5% estimate).
    """
    m1, m2, d, T = config.material_1, config.material_2, config.d, config.T
    for m in (m1, m2):
        _check_real_axis_model(m)
    omega_cap = max(OMEGA_CAP_FACTOR * C / (2.0 * d),
                    1.5 * max(m1.omega_p, m2.omega_p))
    omega_total = 2.0 * omega_cap

    def inner(omega):
        """(total, evanescent) k_perp integrals at omega."""
        eps1 = fresnel.epsilon(m1, omega)
        eps2 = eps1 if m2 is m1 or m2 == m1 else fresnel.epsilon(m2, omega)
        kc = omega / C
        # k_perp dk_perp = -k_z dk_z absorbs the grazing-incidence blow-up
        # at k_perp -> omega/c and makes the round-trip phase uniform in
        # the integration variable
        n_seed = max(4, math.ceil(2.0 * d * omega / (math.pi * C) * 4))
        propagating = quadrature.composite_gk(
            lambda kz: kz * _im_round_trip(eps1, eps2, omega, d, kz).sum(0),
            np.linspace(0.0, kc, n_seed + 1), _INNER_REL_TOL).value

        def evanescent(u):
            k = kc + u
            kz = fresnel.branch_sqrt(kc * kc - k * k)
            return k * _im_round_trip(eps1, eps2, omega, d, kz).sum(0)
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
    propagating pieces are the TE and TM terms of the transverse stress,
    the two rows of one :func:`_im_round_trip` call.
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
    te, tm = (-ebw * k_perp * _im_round_trip(eps1, eps2, omega, d, kz)).tolist()
    return StressSplit(longitudinal, transverse_scalar, te, tm)
