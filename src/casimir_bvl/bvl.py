"""Classical-limit field correlators outside a slab and the Bohr-van Leeuwen
verdict per material model.

At thermal equilibrium the transverse electromagnetic field must decouple
from matter in the classical limit.  The only surviving classical
diagnostic outside a slab is the magnetic correlator driven by the
zero-frequency TE reflection coefficient, and the only surviving cavity
diagnostic is the n = 0 TE Matsubara pressure; a model passes exactly when
both vanish.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fresnel, lifshitz, materials, quadrature
from .constants import C
from .materials import Kind, zero_freq_class
from .quadrature import DegenerateSweep

#: Below this, relative residues are implementation noise, not physics.
PASS_THRESHOLD = 1e-10
#: z + z' floor; the correlator diverges as (z+z')^-3 at contact.
MIN_SURFACE_DISTANCE = 1e-12
#: z + z' ceiling, cbrt(float max), about 5.64e102 m: the ideal-metal
#: reference divides by (z + z')^3, which overflows from there up.
MAX_SURFACE_DISTANCE = sys.float_info.max ** (1.0 / 3.0)
B_REL_TOL = 1e-8


class SurfaceContact(Exception):
    """Probe point too close to the slab surface."""


class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"


@dataclass(frozen=True)
class SlabPoint:
    """Two points on the same surface normal outside the slab (z > 0)."""

    z: float
    z_prime: float

    def __post_init__(self):
        if self.z <= 0 or self.z_prime <= 0:
            raise ValueError("points must lie outside the slab (z > 0)")


@dataclass
class BvLReport:
    model_class: materials.ZeroFreqClass
    b_correlator_norm: float      # |B_zz| / ideal-metal |B_zz|, dimensionless
    e_limit_exponent: float
    cavity_classical_te: float    # Pa
    reference_scale: float        # ideal-metal cavity value, Pa
    verdict: Verdict


def b_correlator_classical(model, point):
    """Classical magnetic correlator tensor outside the slab.

    Angular integration leaves a diagonal tensor with
    B_xx = B_yy = B_zz / 2 and
    B_zz = Int dk k^2 r_te(0, k) exp(-k (z + z')); the result is the pure
    geometry/material integral with the k_B T prefactor factored out.  For
    the ideal metal, r_te = -1 and B_zz = -2/(z + z')^3.  z + z' below
    MIN_SURFACE_DISTANCE raises SurfaceContact, and from
    MAX_SURFACE_DISTANCE up ValueError naming the bound.
    """
    zsum = point.z + point.z_prime
    if zsum < MIN_SURFACE_DISTANCE:
        raise SurfaceContact(f"z + z' below {MIN_SURFACE_DISTANCE:g} m")
    if not zsum < MAX_SURFACE_DISTANCE:
        raise ValueError(f"z + z' must be below {MAX_SURFACE_DISTANCE:.4g} "
                         f"m, cbrt(float max), where (z + z')^3 overflows; "
                         f"got {zsum!r}")
    nw = fresnel.static_nw(model)
    if nw == 0.0:
        return np.zeros((3, 3))  # r_te(0, k) vanishes identically
    if nw is None:  # the ideal metal
        bzz = -2.0 / zsum ** 3
    else:
        def f(k):
            return k * k * fresnel.static_rte(model, k) * np.exp(-k * zsum)

        bzz = quadrature.integrate_semi_infinite(f, 1.0 / zsum,
                                                 B_REL_TOL).value
    return np.diag([0.5 * bzz, 0.5 * bzz, bzz])


def e_correlator_limit_exponent(model, k_perp, omega_sweep):
    """Minimum fitted vanishing rate of the classical electric correlator.

    The two contributions scale as |k0^2 r_te(omega, k_perp)| and
    |r_tm(omega, k_perp) - r_bar(omega)|; a positive return certifies that
    both vanish at zero frequency.  A piece that is exactly zero at every
    sweep frequency, such as the second one of the ideal metal or both of
    vacuum, is reported as +inf.  omega_sweep is a list or an ndarray of
    real frequencies, evaluated in one :func:`fresnel.real_axis_sweep`
    call.
    """
    if len(omega_sweep) < 5:
        raise DegenerateSweep("need at least 5 sweep frequencies")
    if k_perp <= 0:
        raise ValueError("k_perp must be positive")
    omega = np.asarray(omega_sweep, dtype=float)
    r_te, gap = fresnel.real_axis_sweep(model, omega, k_perp)
    return _vanishing_rate(omega, (omega / C) ** 2 * r_te, gap)


def _vanishing_rate(omega, *pieces):
    """Smallest fitted power of |piece| in omega over the pieces, fitted in
    one :func:`quadrature.power_law_slopes` pass; a piece that is 0 at
    every omega counts as +inf."""
    live = [piece for piece in pieces if piece.any()]
    if not live:
        return math.inf
    return min(quadrature.power_law_slopes(omega, np.abs(live)).tolist())


#: The default sweep over C*k_perp: 13 frequencies from 1e-2 to 1e-5 in
#: steps of a quarter decade, the evanescent regime three decades toward 0.
_SWEEP_STEPS = 10.0 ** (-0.25 * np.arange(8, 21))
_SWEEP_STEPS.flags.writeable = False


def _default_sweep(k_perp):
    return (C * k_perp) * _SWEEP_STEPS


def bvl_verdict(model, d, T, z_probe):
    """Bohr-van Leeuwen consistency report for one material model.

    Diagnostics are normalized against the ideal-metal values at the same
    geometry, so the pass threshold is scale-free.  Both references are
    closed forms: B_zz = -2/(2 z_probe)^3 and the zeta(3) n = 0 TE term.
    """
    if not 0.0 < z_probe < math.inf:
        raise ValueError(
            f"z_probe must be finite and positive, got {z_probe!r}")
    point = SlabPoint(z_probe, z_probe)
    ideal = materials.ideal_metal()

    bzz = b_correlator_classical(model, point)[2, 2]
    bzz_ref = b_correlator_classical(ideal, point)[2, 2]
    b_norm = abs(bzz) / abs(bzz_ref)

    if model.kind is Kind.TABULATED:
        # No real-axis data; the electric correlator vanishes for every
        # admissible model, so the self-test is vacuously satisfied.
        exponent = math.inf
    else:
        exponent = e_correlator_limit_exponent(
            model, 1.0 / z_probe, _default_sweep(1.0 / z_probe))

    cav = lifshitz.classical_transverse_pressure(
        lifshitz.CavityConfig(model, model, d, T))
    ref = lifshitz.classical_transverse_pressure(
        lifshitz.CavityConfig(ideal, ideal, d, T))

    ok = b_norm < PASS_THRESHOLD and abs(cav) / abs(ref) < PASS_THRESHOLD
    return BvLReport(
        model_class=zero_freq_class(model),
        b_correlator_norm=b_norm,
        e_limit_exponent=exponent,
        cavity_classical_te=cav,
        reference_scale=ref,
        verdict=Verdict.PASS if ok else Verdict.FAIL)
