"""Fresnel reflection coefficients of a planar half-space.

One kernel holds the formulas: :func:`coefficients` gives (r_te, r_tm) from
the vacuum and medium normal wavevectors and :func:`scalar_coefficient`
gives r_bar.  eps None, which :func:`epsilon` returns for the ideal metal,
stands for (r_te, r_tm, r_bar) = (-1, 1, 1).  Every caller uses the kernel.

Branch convention: every square root of a complex radicand is taken with
non-negative imaginary part, so that evanescent waves decay away from the
interface.  On the imaginary frequency axis all coefficients are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import materials
from .constants import C
from .materials import (Kind, ZeroFreqClass, effective_omega_p,
                        static_epsilon, zero_freq_class)


class ZeroFrequency(Exception):
    """reflection() is undefined at omega = 0; use reflection_static()."""


@dataclass(frozen=True)
class ReflectionSet:
    r_te: complex
    r_tm: complex
    r_bar: complex


IDEAL_REFLECTION = ReflectionSet(complex(-1.0), complex(1.0), complex(1.0))


def branch_sqrt(z):
    """Complex square root with Im >= 0.

    A real negative radicand maps exactly onto +i*sqrt(|z|); otherwise the
    principal root is taken and its sign flipped if the imaginary part is
    negative.  Accepts scalars or ndarrays.
    """
    z = np.asarray(z, dtype=complex)
    r = np.sqrt(z)
    r = np.where(r.imag < 0.0, -r, r)
    neg_real = (z.imag == 0.0) & (z.real < 0.0)
    if np.any(neg_real):
        r = np.where(neg_real, 1j * np.sqrt(np.where(neg_real, -z.real, 1.0)), r)
    if r.ndim == 0:
        return complex(r)
    return r


def epsilon(model, omega):
    """eps(omega), real on the imaginary axis; None for the ideal metal.

    omega may be an ndarray on the positive imaginary axis, evaluated in
    one call of the material model.
    """
    if model.kind is Kind.IDEAL_METAL:
        return None
    eps = materials.eval_epsilon(model, omega)
    if isinstance(omega, np.ndarray) or complex(omega).real == 0.0:
        return eps.real
    return eps


def _quotient(a_kz, s):
    """(a k_z - s)/(a k_z + s) from a*k_z: r_te at a = 1, r_tm at a = eps."""
    return (a_kz - s) / (a_kz + s)


def coefficients(eps, k_z, s, tm=None):
    """(r_te, r_tm) from the vacuum and medium normal wavevectors k_z and s.

    eps None is the ideal metal, (-1, 1) at every frequency.  On the
    imaginary axis k_z = i*q and s = i*kappa may be passed as q and kappa,
    since the common factor i cancels.  Arrays broadcast.  Given a boolean
    array ``tm``, returns one coefficient per point instead, r_tm where tm
    holds and r_te elsewhere; on real arrays each equals its value in the
    pair bit for bit.
    """
    if eps is None:
        r_te, r_tm = -1.0, 1.0
        return (r_te, r_tm) if tm is None else np.where(tm, r_tm, r_te)
    if tm is not None:
        return _quotient(np.where(tm, eps, 1.0) * k_z, s)
    return _quotient(k_z, s), _quotient(eps * k_z, s)


def scalar_coefficient(eps):
    """Scalar-cavity coefficient r_bar = (eps - 1)/(eps + 1); 1 for eps None."""
    if eps is None:
        return 1.0
    return (eps - 1.0) / (eps + 1.0)


def imag_axis_coefficients(eps, xi, k_perp, tm=None, q=None):
    """TE/TM coefficients at omega = i*xi for a real eps(i xi) or eps None.

    Pure real arithmetic: the kernel gets q and kappa for the normal
    wavevectors i*q and i*kappa.  k_perp may be an ndarray.  With a boolean
    ``tm`` the kernel returns one coefficient per point (see
    :func:`coefficients`).  A caller that already holds
    q = sqrt(k_perp^2 + (xi/c)^2) may pass it in.
    """
    if eps is None:  # the ideal metal needs no wavevectors
        return coefficients(None, None, None, tm)
    if q is None:
        q = np.sqrt(k_perp * k_perp + (xi / C) ** 2)
    kappa = np.sqrt(k_perp * k_perp + eps * (xi / C) ** 2)
    return coefficients(eps, q, kappa, tm)


def reflection(model, omega, k_perp):
    """Fresnel reflection set (r_te, r_tm, r_bar) at a nonzero frequency.

    omega may be real or purely imaginary (positive imaginary part).  On the
    imaginary axis all three coefficients are exactly real.
    """
    omega = complex(omega)
    if omega == 0:
        raise ZeroFrequency("use reflection_static for the omega -> 0 limit")
    if k_perp < 0:
        raise ValueError("k_perp must be non-negative")
    eps = epsilon(model, omega)
    if eps is None:  # the ideal metal needs no wavevectors
        r_te, r_tm = coefficients(None, None, None)
    elif omega.real == 0.0:
        r_te, r_tm = imag_axis_coefficients(eps, omega.imag, k_perp)
    else:
        k0sq = (omega / C) * (omega / C)
        r_te, r_tm = coefficients(eps, branch_sqrt(k0sq - k_perp * k_perp),
                                  branch_sqrt(eps * k0sq - k_perp * k_perp))
    return ReflectionSet(complex(r_te), complex(r_tm),
                         complex(scalar_coefficient(eps)))


def static_rte(model, k_perp):
    """Zero-frequency TE coefficient; k_perp may be an ndarray."""
    cls = zero_freq_class(model)
    if cls is ZeroFreqClass.IDEAL:
        return np.full_like(np.asarray(k_perp, dtype=float), -1.0) \
            if np.ndim(k_perp) else -1.0
    if cls is ZeroFreqClass.INVERSE_OMEGA_SQUARED:
        kp2 = (effective_omega_p(model) / C) ** 2
        kappa = np.sqrt(k_perp * k_perp + kp2)
        return (k_perp - kappa) / (k_perp + kappa)
    return np.zeros_like(np.asarray(k_perp, dtype=float)) \
        if np.ndim(k_perp) else 0.0


def reflection_static(model, k_perp):
    """Exact omega -> 0 limits of the three reflection coefficients.

    TE vanishes for finite and Drude-like (1/omega) models, stays finite
    for plasma-like (1/omega^2) models and is -1 for the ideal metal; TM
    and the scalar coefficient go to 1 for all conductors and to
    (eps0-1)/(eps0+1) for finite-class models.
    """
    if k_perp <= 0:
        raise ValueError("k_perp must be positive")
    cls = zero_freq_class(model)
    if cls is ZeroFreqClass.IDEAL:
        return IDEAL_REFLECTION
    r_te = complex(static_rte(model, k_perp))
    if cls is ZeroFreqClass.FINITE:
        r_bar = complex(scalar_coefficient(static_epsilon(model)))
        return ReflectionSet(r_te, r_bar, r_bar)
    return ReflectionSet(r_te, complex(1.0), complex(1.0))
