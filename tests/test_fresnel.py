"""Branch rules, the Fresnel kernel and reflection coefficients."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_bvl import fresnel as F
from casimir_bvl import materials as M
from casimir_bvl.constants import C

CATALOG = [M.insulator(3.0), M.drude(1.37e16, 5.32e13), M.plasma(1.37e16),
           M.generalized_plasma(1.37e16, [M.Oscillator(2e31, 3e15, 1e14)])]


def test_branch_sqrt_positive_real():
    assert F.branch_sqrt(4.0) == 2.0 + 0.0j


def test_branch_sqrt_negative_real_is_exactly_positive_imaginary():
    r = F.branch_sqrt(-9.0)
    assert r == 3.0j
    assert r.real == 0.0


def test_branch_sqrt_array():
    out = F.branch_sqrt(np.array([4.0, -4.0, 2.0 + 2.0j]))
    assert out[0] == 2.0
    assert out[1] == 2.0j
    assert out[2].imag >= 0.0


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False))
def test_branch_sqrt_squares_back_with_nonnegative_imag(z):
    r = F.branch_sqrt(z)
    assert r.imag >= 0.0
    assert cmath.isclose(r * r, z, rel_tol=1e-12)


def _medium_kz_forms_agree(omega, k_perp, k_z):
    """s from k_z, as the real-frequency integrands build it, against s from k_perp."""
    k0sq = (omega / C) ** 2
    for model in CATALOG:
        eps = M.eval_epsilon(model, omega)
        s = F.branch_sqrt((eps - 1.0) * k0sq + k_z * k_z)
        assert s == pytest.approx(F.branch_sqrt(eps * k0sq - k_perp**2),
                                  rel=1e-12)


def test_evanescent_vacuum_kz_is_positive_imaginary():
    omega, k_perp = 3e14, 1e7  # k_perp > omega/c
    k_z = F.branch_sqrt((omega / C) ** 2 - k_perp**2)
    expected = math.sqrt(k_perp**2 - (omega / C) ** 2)
    assert k_z == pytest.approx(1j * expected)
    assert k_z.real == 0.0
    _medium_kz_forms_agree(omega, k_perp, k_z)


def test_propagating_vacuum_kz_is_real():
    omega, k_perp = 3e15, 1e6
    k_z = F.branch_sqrt((omega / C) ** 2 - k_perp**2)
    assert k_z.imag == 0.0
    assert k_z.real == pytest.approx(
        math.sqrt((omega / C) ** 2 - k_perp**2))
    _medium_kz_forms_agree(omega, k_perp, k_z)


def test_reflection_rejects_negative_kperp():
    for model in (M.drude(1e16, 1e13), M.ideal_metal()):
        for w in (1e15, 1j * 1e14):
            with pytest.raises(ValueError):
                F.reflection(model, w, -1.0)


def test_reflection_at_zero_frequency_raises():
    with pytest.raises(F.ZeroFrequency):
        F.reflection(M.drude(1e16, 1e13), 0.0, 1e6)


def test_ideal_metal_reflection_everywhere():
    for w in (1e12, 1e15, 1j * 1e14):
        r = F.reflection(M.ideal_metal(), w, 1e6)
        assert (r.r_te, r.r_tm, r.r_bar) == (-1.0, 1.0, 1.0)
    assert F.imag_axis_coefficients(None, 1e14, 1e6) == (-1.0, 1.0)
    assert F.reflection_static(M.ideal_metal(), 1e6) == F.IDEAL_REFLECTION


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e11, max_value=1e17),
       st.floats(min_value=1e3, max_value=1e9))
def test_imaginary_axis_reality_and_passivity(xi, k_perp):
    """On the imaginary axis coefficients are exactly real with |r| <= 1."""
    for model in CATALOG:
        r = F.reflection(model, 1j * xi, k_perp)
        for coeff in (r.r_te, r.r_tm, r.r_bar):
            assert abs(coeff.imag) < 1e-13
            assert abs(coeff) <= 1.0 + 1e-14


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e12, max_value=1e17),
       st.floats(min_value=1e-3, max_value=0.95))
def test_real_axis_passivity_propagating(omega, fraction):
    # |r| <= 1 holds for propagating incidence; evanescent waves
    # (k_perp > omega/c) may legitimately exceed it (surface modes)
    k_perp = fraction * omega / 2.99792458e8
    for model in CATALOG:
        r = F.reflection(model, omega, k_perp)
        assert abs(r.r_te) <= 1.0 + 1e-12
        assert abs(r.r_tm) <= 1.0 + 1e-12


def test_static_limits_per_class():
    k = 1e6
    r = F.reflection_static(M.insulator(3.0), k)
    assert r.r_te == 0.0
    assert r.r_tm == r.r_bar == pytest.approx(0.5)  # (3-1)/(3+1)

    r = F.reflection_static(M.drude(1.37e16, 5.32e13), k)
    assert (r.r_te, r.r_tm, r.r_bar) == (0.0, 1.0, 1.0)

    wp = 1.37e16
    r = F.reflection_static(M.plasma(wp), wp / C)
    expected = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
    assert r.r_te.real == pytest.approx(expected, rel=1e-14)
    assert r.r_tm == r.r_bar == 1.0


def test_reflection_static_rejects_nonpositive_kperp():
    with pytest.raises(ValueError):
        F.reflection_static(M.plasma(1e16), 0.0)


def test_static_rte_vectorized_matches_scalar():
    ks = np.geomspace(1e4, 1e9, 7)
    for model in CATALOG + [M.ideal_metal()]:
        vec = F.static_rte(model, ks)
        for k, v in zip(ks, np.atleast_1d(vec)):
            assert v == pytest.approx(F.static_rte(model, float(k)), rel=1e-15)


@pytest.mark.parametrize("model", CATALOG,
                         ids=["insulator", "drude", "plasma", "gplasma"])
def test_static_limit_consistency(model):
    """Small-xi evaluation extrapolates onto the closed-form static limit."""
    k = 1e6
    static = F.reflection_static(model, k)
    xi1, xi2 = 2.0, 1.0  # rad/s, deep in the static regime
    for attr in ("r_te", "r_tm", "r_bar"):
        v1 = getattr(F.reflection(model, 1j * xi1, k), attr).real
        v2 = getattr(F.reflection(model, 1j * xi2, k), attr).real
        extrapolated = 2.0 * v2 - v1  # linear in xi
        want = getattr(static, attr).real
        assert abs(extrapolated - want) <= 1e-6 * max(1.0, abs(want))


def test_imag_axis_coefficients_match_complex_path():
    model = M.drude(1.37e16, 5.32e13)
    xi, k = 1e14, 1e6
    eps = M.eval_epsilon(model, 1j * xi).real
    r_te, r_tm = F.imag_axis_coefficients(eps, xi, k)
    full = F.reflection(model, 1j * xi, k)
    assert full.r_te.real == pytest.approx(r_te, rel=1e-14)
    assert full.r_tm.real == pytest.approx(r_tm, rel=1e-14)


def test_per_row_coefficient_is_the_kernel_pair_exactly():
    # one coefficient per point, as the Matsubara rows use it: TE rows must
    # equal the kernel's r_te and TM rows its r_tm to the last bit
    rng = np.random.default_rng(7)
    xi = np.geomspace(1e11, 1e17, 24)[:, None]
    k = np.geomspace(1e2, 1e10, 15) * rng.uniform(0.5, 2.0, (24, 15))
    tm = (rng.random(24) < 0.5)[:, None]
    for eps in (1.0 + rng.uniform(1e-12, 1e-6, (24, 1)),
                rng.uniform(1.0, 10.0, (24, 1)),
                10.0 ** rng.uniform(3.0, 12.0, (24, 1))):
        got = F.imag_axis_coefficients(eps, xi, k, tm)
        q = np.sqrt(k * k + (xi / C) ** 2)
        kappa = np.sqrt(k * k + eps * (xi / C) ** 2)
        r_te, r_tm = F.coefficients(eps, q, kappa)
        assert np.array_equal(got[~tm[:, 0]], r_te[~tm[:, 0]])
        assert np.array_equal(got[tm[:, 0]], r_tm[tm[:, 0]])
        assert np.array_equal(F.imag_axis_coefficients(eps, xi, k, tm, q), got)
    ideal = F.imag_axis_coefficients(None, xi, k, tm)
    assert np.array_equal(np.broadcast_to(ideal, tm.shape),
                          np.where(tm, 1.0, -1.0))


def test_epsilon_array_on_imaginary_axis_is_real():
    xi = np.geomspace(1e12, 1e17, 9)
    for model in CATALOG:
        got = F.epsilon(model, 1j * xi)
        assert got.dtype == float
        assert list(got) == [F.epsilon(model, 1j * x) for x in xi]
    assert F.epsilon(M.ideal_metal(), 1j * xi) is None
