"""Classical-limit correlators and the consistency verdict."""

import math

import numpy as np
import pytest

from casimir_bvl import bvl as B
from casimir_bvl import fresnel as F
from casimir_bvl import materials as M
from casimir_bvl.constants import C
from casimir_bvl.quadrature import DegenerateSweep, NonPositiveData

DRUDE = M.drude(1.37e16, 5.32e13)
PLASMA = M.plasma(1.37e16)
GPLASMA = M.generalized_plasma(1.37e16, [M.Oscillator(2e31, 3e15, 1e14)])
INSULATOR = M.insulator(3.0)
IDEAL = M.ideal_metal()


def _drude_table():
    xs = np.geomspace(1e12, 1e18, 120)
    return [(float(x), float(M.eval_epsilon(DRUDE, 1j * x).real)) for x in xs]


def _plasma_table():
    xs = np.geomspace(1e12, 1e18, 120)
    return [(float(x), float(M.eval_epsilon(PLASMA, 1j * x).real)) for x in xs]


def test_slab_point_validation():
    with pytest.raises(ValueError):
        B.SlabPoint(-1e-7, 1e-7)
    with pytest.raises(ValueError):
        B.SlabPoint(1e-7, 0.0)


def test_surface_contact_guard():
    with pytest.raises(B.SurfaceContact):
        B.b_correlator_classical(IDEAL, B.SlabPoint(1e-13, 1e-13))


def test_surface_distance_ceiling():
    # (z + z')^3 of the ideal-metal reference overflows from cbrt(float max)
    bound = B.MAX_SURFACE_DISTANCE
    assert math.isfinite(bound ** 3)
    below = B.SlabPoint(0.5 * math.nextafter(bound, 0.0),
                        0.5 * math.nextafter(bound, 0.0))
    for model in (IDEAL, PLASMA, DRUDE):
        assert np.isfinite(B.b_correlator_classical(model, below)).all()
        with pytest.raises(ValueError, match=r"cbrt\(float max\)"):
            B.b_correlator_classical(model, B.SlabPoint(bound, 1.0))
    with pytest.raises(ValueError, match="5.644e\\+102"):
        B.bvl_verdict(IDEAL, 1e-6, 300.0, 1e110)


def test_b_correlator_zero_for_drude_and_insulator():
    point = B.SlabPoint(1e-7, 1e-7)
    for model in (DRUDE, INSULATOR):
        assert np.all(B.b_correlator_classical(model, point) == 0.0)


def test_b_correlator_ideal_closed_form():
    z = 1e-7
    tensor = B.b_correlator_classical(IDEAL, B.SlabPoint(z, z))
    expected = -1.0 / (4.0 * z**3)
    # the closed form, to a few ulp
    assert abs(tensor[2, 2] - expected) <= 4 * math.ulp(expected)
    assert abs(tensor[0, 0] - 0.5 * expected) <= 4 * math.ulp(0.5 * expected)
    assert tensor[1, 1] == tensor[0, 0]


def test_b_correlator_tensor_structure():
    z = 2e-7
    for model in (PLASMA, GPLASMA, IDEAL):
        tensor = B.b_correlator_classical(model, B.SlabPoint(z, z))
        bzz = tensor[2, 2]
        off = tensor - np.diag(np.diag(tensor))
        assert np.all(np.abs(off) < 1e-12 * abs(bzz))
        assert tensor[0, 0] == pytest.approx(tensor[1, 1], rel=1e-12)
        assert tensor[0, 0] == pytest.approx(0.5 * bzz, rel=1e-12)


def test_b_correlator_plasma_bounded_by_ideal():
    z = 1e-7
    bzz = B.b_correlator_classical(PLASMA, B.SlabPoint(z, z))[2, 2]
    assert bzz < 0.0
    assert abs(bzz) < 1.0 / (4.0 * z**3)


def test_b_correlator_trapezoid_oracle():
    """Adaptive result matches a dense log-spaced trapezoid within 1e-6."""
    z = 1e-7
    zsum = 2.0 * z
    ks = np.geomspace(1e-4 / zsum, 60.0 / zsum, 100_000)
    for model in (PLASMA, IDEAL):
        integrand = ks**2 * F.static_rte(model, ks) * np.exp(-ks * zsum)
        oracle = np.trapezoid(integrand, ks)
        got = B.b_correlator_classical(model, B.SlabPoint(z, z))[2, 2]
        assert got == pytest.approx(oracle, rel=1e-6)


def test_b_correlator_decays_with_distance():
    zs = np.geomspace(5e-8, 5e-6, 7)
    for model in (PLASMA, GPLASMA, IDEAL):
        vals = [abs(B.b_correlator_classical(model, B.SlabPoint(z, z))[2, 2])
                for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_e_limit_exponent_positive_for_catalog():
    k = 1e7
    sweep = list(np.geomspace(1e-2 * C * k, 1e-5 * C * k, 13))
    for model in (INSULATOR, DRUDE, PLASMA, GPLASMA):
        assert B.e_correlator_limit_exponent(model, k, sweep) > 0.0
    # plasma-like: the k0^2 prefactor alone gives exponent >= 2
    assert B.e_correlator_limit_exponent(PLASMA, k, sweep) >= 2.0 - 1e-3


def test_e_limit_exponent_ideal_metal():
    k = 1e7
    sweep = list(np.geomspace(1e-2 * C * k, 1e-5 * C * k, 13))
    exponent = B.e_correlator_limit_exponent(IDEAL, k, sweep)
    assert exponent == pytest.approx(2.0, abs=1e-9)


#: e_limit_exponent of bvl_verdict at d = 1 um, T = 300 K and the probe
#: distances 0.1 um and 10 um; perfbench's cli-mixed oracle never reads it.
E_LIMIT_PINS = {
    "insulator": (INSULATOR, 2.0000135285447644, 2.0000135285447644),
    "drude": (DRUDE, 1.9091247620726275, 1.5856641287911808),
    "plasma": (PLASMA, 2.000001652455583, 2.0000000169155134),
    "gplasma": (GPLASMA, 2.0000014766108367, 2.000000016915333),
    "ideal": (IDEAL, 2.0, 1.9999999999999998),
}


@pytest.mark.parametrize("name", list(E_LIMIT_PINS))
def test_verdict_e_limit_exponent_pinned(name):
    model, *pins = E_LIMIT_PINS[name]
    for z, pin in zip((1e-7, 1e-5), pins):
        got = B.bvl_verdict(model, 1e-6, 300.0, z).e_limit_exponent
        assert got == pytest.approx(pin, rel=1e-12, abs=0.0), z


def test_e_limit_exponent_guards():
    with pytest.raises(DegenerateSweep):
        B.e_correlator_limit_exponent(PLASMA, 1e7, [1e12, 1e11, 1e10])
    with pytest.raises(ValueError):
        B.e_correlator_limit_exponent(PLASMA, -1e7,
                                      list(np.geomspace(1e12, 1e9, 13)))


def test_verdict_dichotomy_full_catalog():
    passing = [INSULATOR, DRUDE,
               M.tabulated(_drude_table(), M.Extrapolation.DRUDE_LIKE),
               M.tabulated([(1e14, 5.0), (1e15, 3.0)], M.Extrapolation.FINITE)]
    failing = [PLASMA, GPLASMA, IDEAL,
               M.tabulated(_plasma_table(), M.Extrapolation.PLASMA_LIKE)]
    for model in passing:
        report = B.bvl_verdict(model, 1e-6, 300.0, 1e-7)
        assert report.verdict is B.Verdict.PASS
        assert report.b_correlator_norm < B.PASS_THRESHOLD
        assert abs(report.cavity_classical_te) < \
            B.PASS_THRESHOLD * abs(report.reference_scale)
    for model in failing:
        report = B.bvl_verdict(model, 1e-6, 300.0, 1e-7)
        assert report.verdict is B.Verdict.FAIL


def test_verdict_ideal_self_normalization():
    report = B.bvl_verdict(IDEAL, 1e-6, 300.0, 1e-7)
    assert report.b_correlator_norm == pytest.approx(1.0, rel=1e-9)
    assert report.cavity_classical_te == report.reference_scale


def test_verdict_plasma_cavity_attractive():
    report = B.bvl_verdict(PLASMA, 1e-6, 300.0, 1e-7)
    assert report.cavity_classical_te < 0.0
    assert report.model_class is M.ZeroFreqClass.INVERSE_OMEGA_SQUARED


def test_verdict_tabulated_exponent_sentinel():
    model = M.tabulated(_plasma_table(), M.Extrapolation.PLASMA_LIKE)
    report = B.bvl_verdict(model, 1e-6, 300.0, 1e-7)
    assert math.isinf(report.e_limit_exponent)


def test_verdict_z_probe_validation():
    with pytest.raises(ValueError):
        B.bvl_verdict(PLASMA, 1e-6, 300.0, 0.0)


def test_vacuum_pieces_vanish_at_every_frequency():
    vacuum = M.insulator(1.0)
    k = 1e7
    assert B.e_correlator_limit_exponent(
        vacuum, k, B._default_sweep(k)) == math.inf
    report = B.bvl_verdict(vacuum, 1e-6, 300.0, 1e-7)
    assert report.e_limit_exponent == math.inf
    assert report.verdict is B.Verdict.PASS


def test_piece_zero_at_some_frequencies_still_raises():
    omega = np.geomspace(1e10, 1e12, 6)
    assert B._vanishing_rate(omega, np.zeros(6, dtype=complex)) == math.inf
    assert B._vanishing_rate(omega, omega ** 2) == pytest.approx(2.0)
    with pytest.raises(NonPositiveData):
        B._vanishing_rate(omega, np.where(omega < 1e11, 0.0, omega))
    # several pieces: the smallest rate of those not 0 at every omega
    assert B._vanishing_rate(omega, omega ** 3, np.zeros(6),
                             omega ** 2) == pytest.approx(2.0)
    with pytest.raises(NonPositiveData):
        B._vanishing_rate(omega, omega, np.where(omega < 1e11, 0.0, omega))
