"""Fresnel reflection coefficients of a planar half-space.

:func:`real_axis_coefficients` and :func:`imag_axis_coefficients` give
(r_te, r_tm) on either frequency axis, r_tm as the quotient
(eps k_z - s)/(eps k_z + s) of the vacuum and medium normal wavevectors
and r_te in a form free of the cancellation of (k_z - s)/(k_z + s);
:func:`static_nw` and :func:`static_rte` give nw and r_te at xi = 0;
:func:`scalar_coefficient` gives r_bar.  eps None, which :func:`epsilon`
returns for the ideal metal, stands for (r_te, r_tm, r_bar) = (-1, 1, 1).

Branch convention: every square root of a complex radicand is taken with
non-negative imaginary part, so that evanescent waves decay away from the
interface.  On the imaginary frequency axis all coefficients are real.

:func:`reflection` and :func:`reflection_static` take k_perp as a float or
as an ndarray; either is evaluated in one array pass of the same kernel,
with eps evaluated once per call, and a float gives complex scalars.
:func:`real_axis_sweep` gives r_te and r_tm - r_bar along an array of real
frequencies in one pass.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import materials
from .constants import C
from .materials import (SQRT_FLOAT_MAX, Kind, ZeroFreqClass,
                        effective_omega_p, static_epsilon, zero_freq_class)


class ZeroFrequency(Exception):
    """reflection() is undefined at omega = 0; use reflection_static()."""


@dataclass(frozen=True)
class ReflectionSet:
    """(r_te, r_tm, r_bar): complex scalars, or arrays of k_perp's shape."""

    r_te: complex
    r_tm: complex
    r_bar: complex


def branch_sqrt(z):
    """Complex square root with Im >= 0.

    The principal root is taken and negated where its imaginary part is
    negative; 0.0 - r keeps the real part at +0.0 where the root's is 0.0.
    A real negative radicand, imaginary part +0.0 or -0.0, so maps exactly
    onto +0.0 + i*sqrt(|z|).  Accepts scalars or ndarrays.
    """
    r = np.sqrt(np.asarray(z, dtype=complex))
    r = np.where(r.imag < 0.0, 0.0 - r, r)
    if r.ndim == 0:
        return complex(r)
    return r


def epsilon(model, omega):
    """eps(omega), real on the imaginary axis; None for the ideal metal.

    omega may be an ndarray wholly on the positive imaginary axis or wholly
    on the real axis, evaluated in one call of the material model; only the
    imaginary axis drops the (zero) imaginary part.
    """
    if model.kind is Kind.IDEAL_METAL:
        return None
    eps = materials.eval_epsilon(model, omega)
    return eps.real if np.all(np.real(omega) == 0.0) else eps


#: (r_te, r_tm) of the ideal metal at every frequency, also as a read-only
#: array.
_IDEAL = (-1.0, 1.0)
_IDEAL_COLUMN = np.array(_IDEAL)
_IDEAL_COLUMN.flags.writeable = False


def _r_tm(eps_kz, s):
    """r_tm = (eps k_z - s)/(eps k_z + s) from eps*k_z and s."""
    return (eps_kz - s) / (eps_kz + s)


def _eps_times(eps, k, name, unit, role):
    """eps * k, for k the wavevector k_z of r_tm's numerator (eps q on the
    imaginary axis) or the k0^2 of the medium's s^2 = eps k0^2 - k_perp^2;
    ValueError naming eps ``name`` of ``role`` and float max where it
    overflows, which would make r_tm or s NaN."""
    with np.errstate(all="ignore"):
        product = eps * k
    if not np.isfinite(product).all():
        raise ValueError(f"eps {name} of {role} overflows float max, "
                         f"{sys.float_info.max:.4g}: |eps| up to "
                         f"{np.max(np.abs(eps)):.4g} at |{name}| up to "
                         f"{np.max(np.abs(k)):.4g} {unit}")
    return product


def real_axis_coefficients(eps, k0sq, k_z, s):
    """(r_te, r_tm) at real omega from eps, k0sq = (omega/c)^2, k_z and s.

    r_te is taken as -(eps - 1) k0^2/(k_z + s)^2, which equals
    (k_z - s)/(k_z + s) because s^2 - k_z^2 = (eps - 1) k0^2, but keeps
    its digits where s is close to k_z (deep in the evanescent range,
    |eps - 1| k0^2 << k_perp^2).  eps None is the ideal metal.  Arrays
    broadcast.  ValueError where eps k_z overflows float max.
    """
    if eps is None:
        return _IDEAL
    t = k_z + s
    return -(eps - 1.0) * k0sq / (t * t), _r_tm(
        _eps_times(eps, k_z, "k_z", "m^-1", "r_tm"), s)


def scalar_coefficient(eps):
    """Scalar-cavity coefficient r_bar = (eps - 1)/(eps + 1); 1 for eps None."""
    if eps is None:
        return 1.0
    return (eps - 1.0) / (eps + 1.0)


def imag_axis_coefficients(eps, nw, q, out=None):
    """(r_te, r_tm) at omega = i*xi for a real eps(i xi) or eps None, and
    nw = -w = (1 - eps)(xi/c)^2, :func:`static_nw` at xi = 0.

    Pure real arithmetic on the normal wavevectors i*q and i*kappa: q =
    sqrt(k_perp^2 + (xi/c)^2) is passed in, and kappa = sqrt(q^2 + w).
    r_te is taken as -w/(q + kappa)^2, which equals (q - kappa)/(q + kappa)
    but keeps its digits where eps(i xi) -> 1 and kappa is close to q, and
    r_tm = (eps q - kappa)/(eps q + kappa).  eps = 1 gives w = 0, kappa = q
    and r = +0 exactly.  eps and nw may be columns that broadcast against
    an ndarray q.  The pair is written into ``out``, an array of shape
    (2,) + q.shape made if not given, and out is returned; the ideal metal
    writes nothing and gives the constant pair (-1, 1), a read-only array
    of shape (2, 1, ...) if out is given.
    """
    if eps is None:  # the ideal metal needs no wavevectors
        return _IDEAL if out is None else _IDEAL_COLUMN.reshape(
            (2,) + (1,) * np.ndim(q))
    if out is None:
        out = np.empty((2,) + np.shape(q))
    r_te, kappa = out[:1], out[1:]     # views also for a float q
    np.sqrt(np.subtract(q * q, nw, out=kappa), out=kappa)
    np.add(q, kappa, out=r_te)
    np.divide(nw, np.multiply(r_te, r_te, out=r_te), out=r_te)
    eps_q = eps * q
    den = eps_q + kappa
    np.divide(np.subtract(eps_q, kappa, out=kappa), den, out=kappa)
    return out


def _check_kperp(k_perp, static):
    """k_perp, a float or an ndarray, as a float array of at least one
    dimension; ValueError naming the first k_perp that is not finite and
    > 0 (static) or >= 0.  Off the static limit r_te squares a sum of two
    normal wavevectors, about 2 k_perp, so a k_perp from half of
    sqrt(float max), some 6.7e153 m^-1, up, where that overflows, raises
    ValueError naming the bound."""
    k = np.atleast_1d(np.asarray(k_perp, dtype=float))
    top = math.inf if static else 0.5 * SQRT_FLOAT_MAX
    ok = (k > 0.0 if static else k >= 0.0) & (k < top)  # also rejects nan
    if not ok.all():
        bad = float(k[~ok][0])
        if top <= bad < math.inf:
            raise ValueError(f"k_perp must be below {top:.4g} m^-1, half of "
                             f"sqrt(float max), off the static limit, where "
                             f"(2 k_perp)^2 overflows; got {bad!r}")
        raise ValueError(f"k_perp must be finite and "
                         f"{'positive' if static else 'non-negative'}, "
                         f"got {bad!r}")
    return k


def _reflection_set(k_perp, r_te, r_tm, r_bar):
    """ReflectionSet of complex arrays shaped like k_perp."""
    shape = np.shape(k_perp)
    return ReflectionSet(*(np.full(shape, r, dtype=complex)
                           for r in (r_te, r_tm, r_bar)))


def _scalars(r):
    """The ReflectionSet r of one-entry arrays as one of Python complex
    scalars."""
    return ReflectionSet(r.r_te.item(), r.r_tm.item(), r.r_bar.item())


def reflection(model, omega, k_perp):
    """Fresnel reflection set (r_te, r_tm, r_bar) at a nonzero frequency.

    omega may be real or purely imaginary (positive imaginary part).  On the
    imaginary axis all three coefficients are exactly real.  k_perp is a
    float or an ndarray; an array gives a set of arrays from one kernel
    pass, and a float runs the same pass as a one-entry array and gives
    complex scalars, equal bit for bit to the matching array entries.
    Raises ValueError unless omega is finite with |omega| below
    sqrt(float max), some 1.34e154 rad/s, where omega^2 is finite, and
    every k_perp is in [0, sqrt(float max)/2), where (2 k_perp)^2 is finite.
    """
    omega = complex(omega)
    if omega == 0:
        raise ZeroFrequency("use reflection_static for the omega -> 0 limit")
    if not cmath.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    if max(abs(omega.real), abs(omega.imag)) >= SQRT_FLOAT_MAX:
        raise ValueError(f"|omega| must be below {SQRT_FLOAT_MAX:.4g} rad/s, "
                         f"sqrt(float max), where omega^2 overflows; got "
                         f"{omega!r}")
    k = _check_kperp(k_perp, static=False)
    eps = epsilon(model, omega)
    if eps is None:  # the ideal metal needs no wavevectors
        r_te, r_tm = _IDEAL
    elif omega.real == 0.0:
        a = omega.imag / C
        q = np.sqrt(k * k + a ** 2)
        # the kernel's own eps q must not overflow
        _eps_times(eps, q, "k_z", "m^-1", "r_tm")
        r_te, r_tm = imag_axis_coefficients(eps, (1.0 - eps) * a ** 2, q)
    else:
        k0sq = (omega / C) * (omega / C)
        r_te, r_tm = real_axis_coefficients(
            eps, k0sq, branch_sqrt(k0sq - k * k), branch_sqrt(_eps_times(
                eps, k0sq, "k0^2", "m^-2", "the medium wavevector") - k * k))
    r = _reflection_set(k, r_te, r_tm, scalar_coefficient(eps))
    return r if np.ndim(k_perp) else _scalars(r)


def real_axis_sweep(model, omega, k_perp):
    """(r_te, r_tm - r_bar) at one k_perp along an ndarray of real omega.

    eps is evaluated once, over the whole array.  r_te is the
    :func:`real_axis_coefficients` form, and
    r_tm - r_bar = -2 eps (eps - 1) k0^2/[(k_z + s)(eps k_z + s)(eps + 1)],
    which does not cancel where r_tm is close to r_bar.  It is taken as
    -2 k0^2 [(eps - 1)/(eps + 1)] [eps/(eps k_z + s)]/(k_z + s), which
    multiplies no two large factors, so it stays finite wherever eps k_z
    is, up to the k_perp bound.  The product of the three denominator
    factors would overflow from about 1e150 m^-1 for Drude gold, far above
    the k_perp of bvl, which its MIN_SURFACE_DISTANCE keeps at or below
    about 2e12 m^-1.  The ideal metal gives (-1, 0).  Raises ZeroFrequency
    if any omega is 0 and ValueError unless every omega is finite with
    |omega| below sqrt(float max) and k_perp is in [0, sqrt(float max)/2),
    where (2 k_perp)^2 is finite.
    """
    omega = np.asarray(omega, dtype=float)
    if not (omega != 0.0).all():
        raise ZeroFrequency("use reflection_static for the omega -> 0 limit")
    ok = np.abs(omega) < SQRT_FLOAT_MAX     # also rejects nan
    if not ok.all():
        bad = float(omega[~ok][0])
        if not math.isfinite(bad):
            raise ValueError("omega must be finite")
        raise ValueError(f"|omega| must be below {SQRT_FLOAT_MAX:.4g} rad/s, "
                         f"sqrt(float max), where omega^2 overflows; got "
                         f"{bad!r}")
    _check_kperp(k_perp, static=False)
    if model.kind is Kind.IDEAL_METAL:
        return (np.full(omega.shape, -1.0, dtype=complex),
                np.zeros(omega.shape, dtype=complex))
    eps = materials.eval_epsilon(model, omega)
    k0sq = (omega / C) ** 2
    k_z = branch_sqrt(k0sq - k_perp * k_perp)
    s = branch_sqrt(_eps_times(eps, k0sq, "k0^2", "m^-2",
                               "the medium wavevector") - k_perp * k_perp)
    r_te, _ = real_axis_coefficients(eps, k0sq, k_z, s)
    gap = (-2.0 * k0sq * ((eps - 1.0) / (eps + 1.0))
           * (eps / (eps * k_z + s)) / (k_z + s))
    return r_te, gap


def _per_model(rule):
    """rule(model), computed once per model instance and kept in it by
    :func:`materials.keep`."""
    key = "_" + rule.__name__

    @functools.wraps(rule)
    def memo(model):
        try:
            return model.__dict__[key]
        except KeyError:
            return materials.keep(model, key, rule(model))

    return memo


@_per_model
def static_nw(model):
    """nw = (1 - eps)(xi/c)^2 of :func:`imag_axis_coefficients` at xi = 0:
    -(omega_p,eff/c)^2 for a plasma-like (1/omega^2) model, and 0, where
    the static r_te and with it the classical transverse field vanish, for
    finite and Drude-like (1/omega) ones; None for the ideal metal.

    The one home of the zero-frequency r_te rule, on which the
    Bohr-van Leeuwen verdict turns.  It is computed once per model
    instance (:func:`_per_model`), and every later reader, the Matsubara
    route's xi = 0 row and n = 0 terms, :func:`static_rte` and ``bvl``,
    gets the stored value.
    """
    cls = zero_freq_class(model)
    if cls is ZeroFreqClass.IDEAL:
        return None
    if cls is ZeroFreqClass.INVERSE_OMEGA_SQUARED:
        return -(effective_omega_p(model) / C) ** 2
    return 0.0


def static_rte(model, k_perp):
    """Zero-frequency TE coefficient; k_perp is a float or an ndarray.

    A plasma-like model gives -k_p^2/(k + kappa)^2, kappa^2 = k^2 + k_p^2
    and k_p = omega_p,eff/c: the :func:`imag_axis_coefficients` r_te with
    q = k and nw = :func:`static_nw` = -k_p^2, bit for bit, which keeps its
    digits at k >> k_p.  Where nw = 0 it is 0, and -1 for the ideal metal.
    """
    k = np.asarray(k_perp, dtype=float)
    nw = static_nw(model)
    if nw:
        t = k + np.sqrt(k * k - nw)
        r_te = nw / (t * t)
    else:
        r_te = np.full(k.shape, -1.0 if nw is None else 0.0)
    return r_te if k.ndim else float(r_te)


@_per_model
def static_rtm(model):
    """Zero-frequency TM coefficient, the same at every k_perp.

    It equals the static r_bar: (eps0 - 1)/(eps0 + 1) for finite-class
    models and 1 for every conductor, the ideal metal included.  Computed
    once per model instance, like :func:`static_nw`.
    """
    if zero_freq_class(model) is ZeroFreqClass.FINITE:
        return scalar_coefficient(static_epsilon(model))
    return 1.0


def reflection_static(model, k_perp):
    """Exact omega -> 0 limits of the three reflection coefficients.

    TE (:func:`static_rte`) vanishes for finite and Drude-like (1/omega)
    models, stays finite for plasma-like (1/omega^2) models and is -1 for
    the ideal metal; TM and the scalar coefficient (:func:`static_rtm`) go
    to 1 for all conductors and to (eps0-1)/(eps0+1) for finite-class
    models.  k_perp is a float (then complex scalars) or an ndarray (then
    a set of arrays, equal entry by entry to the scalar calls); ValueError
    unless every k_perp is finite and positive.
    """
    k = _check_kperp(k_perp, static=True)
    r_tm = static_rtm(model)
    r = _reflection_set(k, static_rte(model, k), r_tm, r_tm)
    return r if np.ndim(k_perp) else _scalars(r)
