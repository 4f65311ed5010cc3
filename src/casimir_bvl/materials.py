"""Dielectric permittivity models on the real and imaginary frequency axes.

All models are expressed in Gaussian conventions: the permittivity is
dimensionless and the dc conductivity of an ohmic conductor is
``sigma_0 = omega_p**2 / (4 pi gamma)`` (units of rad/s).  Frequencies are
rad/s throughout.  Tabulated data live on the positive imaginary axis only,
which is the form consumed by Matsubara evaluation.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

#: sqrt(float max), about 1.341e154: a float below it has a finite square.
#: omega_p, an oscillator center and a frequency of fresnel.reflection
#: must stay below it, and k_perp off the static limit below half of it.
SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


class MaterialError(Exception):
    """Base class for material-model errors."""


class EvalAtZero(MaterialError):
    """The model is singular at zero frequency."""


class IdealMetalHasNoEpsilon(MaterialError):
    """The ideal metal is defined by its reflection coefficients, not eps."""


class TabulatedOutOfRange(MaterialError):
    """Tabulated models are defined on the imaginary axis only."""


class EmptyTable(MaterialError):
    """A tabulated model needs at least two data points."""


class Kind(enum.Enum):
    INSULATOR = "insulator"
    DRUDE = "drude"
    PLASMA = "plasma"
    GENERALIZED_PLASMA = "gplasma"
    IDEAL_METAL = "ideal"
    TABULATED = "table"


class Extrapolation(enum.Enum):
    """Low-frequency continuation class of a tabulated model."""

    DRUDE_LIKE = "drude-like"
    PLASMA_LIKE = "plasma-like"
    FINITE = "finite"


class ZeroFreqClass(enum.Enum):
    """Behavior of eps(omega) as omega -> 0."""

    FINITE = "finite"
    INVERSE_OMEGA = "inverse-omega"
    INVERSE_OMEGA_SQUARED = "inverse-omega-squared"
    IDEAL = "ideal"


@dataclass(frozen=True)
class Oscillator:
    """Single interband oscillator term g / (w0^2 - w^2 - i gamma w)."""

    strength: float  # rad^2/s^2
    center: float    # rad/s
    width: float     # rad/s

    def __post_init__(self):
        if not all(0.0 < v < math.inf
                   for v in (self.strength, self.center, self.width)):
            raise ValueError("oscillator parameters must be finite and "
                             "positive")
        if self.center >= SQRT_FLOAT_MAX:
            raise ValueError(f"oscillator center must be below "
                             f"{SQRT_FLOAT_MAX:.4g} rad/s, sqrt(float max), "
                             f"where center^2 overflows; got {self.center!r}")


@dataclass(frozen=True)
class MaterialModel:
    """Immutable description of a dielectric response.

    Use the factory functions :func:`insulator`, :func:`drude`,
    :func:`plasma`, :func:`generalized_plasma`, :func:`ideal_metal` and
    :func:`tabulated` rather than the constructor.  omega_p, like an
    :class:`Oscillator` center, must lie below SQRT_FLOAT_MAX, some
    1.34e154 rad/s, where its square, a term of eps, is finite; larger
    values raise ValueError naming the bound.
    """

    kind: Kind
    eps0: float = 0.0
    omega_p: float = 0.0
    gamma: float = 0.0
    oscillators: tuple = ()
    table: tuple = ()
    extrapolation: Extrapolation | None = None

    def __post_init__(self):
        k = self.kind
        if not all(map(math.isfinite, (self.eps0, self.omega_p, self.gamma))):
            raise ValueError("eps0, omega_p and gamma must be finite")
        if k is Kind.INSULATOR and self.eps0 < 1.0:
            raise ValueError("insulator requires eps0 >= 1")
        metal = k in (Kind.DRUDE, Kind.PLASMA, Kind.GENERALIZED_PLASMA)
        if metal and self.omega_p <= 0:
            raise ValueError("omega_p must be positive")
        if self.omega_p >= SQRT_FLOAT_MAX:
            raise ValueError(f"omega_p must be below {SQRT_FLOAT_MAX:.4g} "
                             f"rad/s, sqrt(float max), where omega_p^2 "
                             f"overflows; got {self.omega_p!r}")
        if k is Kind.DRUDE and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        # eps is one expression of all fields: a kind leaves its others unset
        if self.omega_p and not metal:
            raise ValueError(f"omega_p must be 0 for a {k.value} model")
        if self.gamma and k is not Kind.DRUDE:
            raise ValueError(f"gamma must be 0 for a {k.value} model")
        if self.eps0 and k is not Kind.INSULATOR:
            raise ValueError(f"eps0 must be 0 for a {k.value} model")
        if self.oscillators and k not in (Kind.INSULATOR,
                                          Kind.GENERALIZED_PLASMA):
            raise ValueError(f"oscillators must be () for a {k.value} model")
        if self.table and k is not Kind.TABULATED:
            raise ValueError(f"table must be () for a {k.value} model")
        if self.extrapolation is not None and k is not Kind.TABULATED:
            raise ValueError(f"extrapolation must be None for a {k.value} "
                             f"model")
        if k is Kind.TABULATED:
            if len(self.table) < 2:
                raise EmptyTable("tabulated model needs >= 2 points")
            xi = [p[0] for p in self.table]
            eps = [p[1] for p in self.table]
            if not all(map(math.isfinite, xi + eps)):
                raise ValueError("table entries must be finite")
            if any(b <= a for a, b in zip(xi, xi[1:])):
                raise ValueError("table frequencies must be strictly increasing")
            if any(e < 1.0 for e in eps) or xi[0] <= 0:
                raise ValueError("table requires xi > 0 and eps(i xi) >= 1")
            if self.extrapolation is None:
                raise ValueError("tabulated model needs an extrapolation tag")
            if self.extrapolation is not Extrapolation.FINITE and eps[0] <= eps[1]:
                raise ValueError(
                    "singular extrapolation needs eps decreasing at the low end")

    @functools.cached_property
    def _log_table(self):
        """(log xi, log eps) of the table nodes, built once per model."""
        return tuple(np.log(np.array(self.table).T))

    @functools.cached_property
    def _static_epsilon(self):
        """eps(0) of an insulator, built once per model."""
        return eval_imag_axis(self, np.zeros(1)).item()


def insulator(eps0, oscillators=()):
    return MaterialModel(Kind.INSULATOR, eps0=float(eps0),
                         oscillators=tuple(oscillators))


def drude(omega_p, gamma):
    return MaterialModel(Kind.DRUDE, omega_p=float(omega_p), gamma=float(gamma))


def plasma(omega_p):
    return MaterialModel(Kind.PLASMA, omega_p=float(omega_p))


def generalized_plasma(omega_p, oscillators=()):
    return MaterialModel(Kind.GENERALIZED_PLASMA, omega_p=float(omega_p),
                         oscillators=tuple(oscillators))


def ideal_metal():
    return MaterialModel(Kind.IDEAL_METAL)


def tabulated(table, extrapolation):
    table = tuple((float(x), float(e)) for x, e in table)
    return MaterialModel(Kind.TABULATED, table=table, extrapolation=extrapolation)


def eval_epsilon(model, w):
    """Complex eps(w), w in rad/s, a scalar or an ndarray (then of w's
    shape), on the real axis (nonzero for singular models) or the positive
    imaginary axis, where the imaginary part is exactly zero.

    An ndarray must lie wholly on one axis.  Either is evaluated in one
    array pass; a scalar as a one-entry array, so it equals the matching
    entry of an array call bit for bit.  ValueError naming the first
    frequency where eps is not finite: a term of eps, such as
    omega_p^2/omega^2 at small |omega|, overflows float max there.
    """
    if model.kind is Kind.IDEAL_METAL:
        raise IdealMetalHasNoEpsilon("ideal metal has no permittivity")
    z = np.atleast_1d(np.asarray(w, dtype=complex))
    imag = ((z.real == 0.0) & (z.imag > 0.0)).all()
    with np.errstate(all="ignore"):
        if imag:
            eps = eval_imag_axis(model, z.imag)
        elif (z.imag == 0.0).all():
            eps = _eval_real_axis(model, z.real)
        else:
            raise ValueError("frequency must lie on the real or the positive "
                             "imaginary axis")
    bad = ~np.isfinite(eps)
    if bad.any():
        name, axis = ("xi", z.imag) if imag else ("omega", z.real)
        raise ValueError(f"eps is not finite at {name} = "
                         f"{float(axis[bad][0])!r} rad/s: a term of eps "
                         f"overflows float max, {sys.float_info.max:.4g}")
    eps = np.full(z.shape, eps, dtype=complex)
    return eps if np.ndim(w) else eps.item()


def eval_imag_axis(model, xi):
    """eps(i xi) as a float ndarray of the shape of an ndarray xi > 0;
    an insulator, which divides by no xi, also takes xi = 0 (its
    :func:`static_epsilon`).

    One array pass of eps_b + omega_p^2/(xi (xi + gamma)) + sum_j g_j/(w_j^2
    + xi^2 + gamma_j xi), eps_b = eps0 for an insulator and 1 for a metal
    (plasma is Drude at gamma = 0), without the checks and the complex
    conversion of :func:`eval_epsilon`, whose imaginary-axis values it
    gives bit for bit.  The ideal metal has no permittivity.
    """
    if model.omega_p > 0:
        g = model.gamma  # a plasma (g = 0) skips the add: xi + 0 is xi
        eps = 1.0 + model.omega_p ** 2 / (xi * (xi + g if g else xi))
    elif model.kind is Kind.INSULATOR:
        eps = np.full(xi.shape, model.eps0)
    elif model.kind is Kind.TABULATED:
        return eval_epsilon_tabulated(model, xi)
    else:
        raise IdealMetalHasNoEpsilon("ideal metal has no permittivity")
    if model.oscillators:
        eps += sum(o.strength / (o.center ** 2 + xi * xi + o.width * xi)
                   for o in model.oscillators)
    return eps


def _eval_real_axis(model, w):
    """eps(w) for an ndarray of real w: eval_imag_axis's expression at
    xi = -i w."""
    if model.kind is not Kind.INSULATOR and (w == 0.0).any():
        raise EvalAtZero("model is singular (or undefined) at omega = 0")
    if model.kind is Kind.TABULATED:
        raise TabulatedOutOfRange("tabulated models are imaginary-axis only")
    if model.omega_p > 0:
        g = model.gamma
        eps = 1.0 - model.omega_p ** 2 / (w * (w + 1j * g if g else w))
    else:
        eps = model.eps0
    if model.oscillators:
        eps = eps + sum(o.strength / (o.center ** 2 - w * w - 1j * o.width * w)
                        for o in model.oscillators)
    return eps


def eval_epsilon_tabulated(model, xi):
    """Interpolate a tabulated eps(i xi); xi is a float or an ndarray.

    Log-log linear inside the table range; below the lowest node the
    continuation follows the extrapolation tag (A/xi, B/xi^2 or constant,
    with A or B fitted to the two lowest nodes); above the range
    eps -> 1 + C/xi^2 fitted at the top node.  Each continuation is
    evaluated only on the xi it covers.
    """
    if model.kind is not Kind.TABULATED:
        raise ValueError("eval_epsilon_tabulated requires a tabulated model")
    shape = np.shape(xi)
    x = np.asarray(xi, dtype=float).ravel()
    if not np.all(x > 0):
        raise ValueError("xi must be positive")
    (x1, e1), (x2, e2), (xn, en) = (model.table[i] for i in (0, 1, -1))
    eps = np.exp(np.interp(np.log(x), *model._log_table))
    low = x < x1
    if np.count_nonzero(low):
        xl = x[low]
        tag = model.extrapolation
        if tag is Extrapolation.DRUDE_LIKE:
            a = (e1 - e2) / (1.0 / x1 - 1.0 / x2)
            eps[low] = e1 + a * (1.0 / xl - 1.0 / x1)
        elif tag is Extrapolation.PLASMA_LIKE:
            eps[low] = e1 + _plasma_like_b(model) * (1.0 / xl ** 2
                                                     - 1.0 / x1 ** 2)
        else:
            eps[low] = e1
    high = x > xn
    if np.count_nonzero(high):
        eps[high] = 1.0 + (en - 1.0) * xn ** 2 / x[high] ** 2
    eps = eps.reshape(shape)
    return eps if isinstance(xi, np.ndarray) else float(eps)


def zero_freq_class(model):
    """Classify the omega -> 0 behavior of the model."""
    k = model.kind
    if k is Kind.INSULATOR:
        return ZeroFreqClass.FINITE
    if k is Kind.DRUDE:
        return ZeroFreqClass.INVERSE_OMEGA
    if k in (Kind.PLASMA, Kind.GENERALIZED_PLASMA):
        return ZeroFreqClass.INVERSE_OMEGA_SQUARED
    if k is Kind.IDEAL_METAL:
        return ZeroFreqClass.IDEAL
    tag = model.extrapolation
    if tag is Extrapolation.DRUDE_LIKE:
        return ZeroFreqClass.INVERSE_OMEGA
    if tag is Extrapolation.PLASMA_LIKE:
        return ZeroFreqClass.INVERSE_OMEGA_SQUARED
    return ZeroFreqClass.FINITE


def effective_omega_p(model):
    """Plasma frequency governing the xi^-2 singularity, rad/s.

    For tabulated plasma-like models this is the square root of the
    coefficient fitted to the two lowest table nodes.
    """
    if model.kind in (Kind.PLASMA, Kind.GENERALIZED_PLASMA):
        return model.omega_p
    if (model.kind is Kind.TABULATED
            and model.extrapolation is Extrapolation.PLASMA_LIKE):
        return math.sqrt(_plasma_like_b(model))
    raise ValueError("model has no inverse-omega-squared singularity")


def _plasma_like_b(model):
    """B of a plasma-like table's B/xi^2, fitted to its two lowest nodes."""
    (x1, e1), (x2, e2) = model.table[0], model.table[1]
    return (e1 - e2) / (1.0 / x1 ** 2 - 1.0 / x2 ** 2)


def static_epsilon(model):
    """Static permittivity eps(0) of a finite-class model."""
    if zero_freq_class(model) is not ZeroFreqClass.FINITE:
        raise ValueError("static permittivity requires a finite-class model")
    if model.kind is Kind.INSULATOR:
        return model._static_epsilon
    return model.table[0][1]


def load_table(path):
    """Read imaginary-axis permittivity data from a text file.

    Lines starting with ``#`` are comments; data lines are
    ``xi_rad_per_s  eps_value`` separated by whitespace.
    """
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"malformed table line: {line!r}")
            rows.append((float(fields[0]), float(fields[1])))
    if len(rows) < 2:
        raise EmptyTable(f"{path}: need at least two data points")
    return rows
