"""Branch rules, the Fresnel kernel and reflection coefficients."""

import cmath
import dataclasses
import math
import sys

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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_branch_sqrt_negative_real_with_signed_zero_is_exact(sign):
    x = np.geomspace(1e-300, 1e300, 2001)
    z = np.empty(x.shape, dtype=complex)
    z.real, z.imag = -x, math.copysign(0.0, sign)
    r = F.branch_sqrt(z)
    assert not np.signbit(r.real).any() and (r.real == 0.0).all()
    assert np.array_equal(r.imag, np.sqrt(x))
    for v, root in ((-9.0, 3.0), (-2.0, math.sqrt(2.0))):
        rs = F.branch_sqrt(complex(v, math.copysign(0.0, sign)))
        assert math.copysign(1.0, rs.real) == 1.0 and rs == complex(0.0, root)


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
    r = F.reflection_static(M.ideal_metal(), 1e6)
    assert (r.r_te, r.r_tm, r.r_bar) == (-1.0, 1.0, 1.0)


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


def test_static_rte_is_the_imag_axis_r_te_at_zero_frequency():
    """The xi = 0 row of the Matsubara kernel takes static_nw for nw: its
    r_te is static_rte's, bit for bit."""
    ks = np.geomspace(1e3, 1e12, 37)
    for model in CATALOG:
        r_te, _ = F.imag_axis_coefficients(1.0, F.static_nw(model), ks)
        assert np.array_equal(F.static_rte(model, ks), r_te)
    assert F.imag_axis_coefficients(None, F.static_nw(M.ideal_metal()),
                                    ks)[0] == F.static_rte(M.ideal_metal(),
                                                           1e6) == -1.0


def test_static_nw_decides_the_static_r_te():
    assert F.static_nw(CATALOG[0]) == F.static_nw(CATALOG[1]) == 0.0
    for model in (CATALOG[2], CATALOG[3]):
        assert F.static_nw(model) == -(M.effective_omega_p(model) / C) ** 2
    assert F.static_nw(M.ideal_metal()) is None


def test_static_rules_are_kept_per_model_instance():
    # a model built from a filled one by dataclasses.replace has a fresh
    # __dict__ and computes its own nw, here 4x the original
    p = M.plasma(1e16)
    nw = F.static_nw(p)
    assert F.static_nw(p) is nw and p.__dict__["_static_nw"] is nw
    q = dataclasses.replace(p, omega_p=2e16)
    assert "_static_nw" not in q.__dict__
    assert F.static_nw(q) == 4.0 * nw
    ins = M.insulator(3.0)
    assert F.static_rtm(ins) == 0.5
    assert F.static_rtm(dataclasses.replace(ins, eps0=5.0)) == 4.0 / 6.0


def test_filled_memo_leaves_equality_hash_and_repr():
    for make in (lambda: M.plasma(1e16), M.ideal_metal,
                 lambda: M.insulator(3.0),
                 lambda: M.drude(1.37e16, 5.32e13)):
        filled, fresh = make(), make()
        F.static_nw(filled), F.static_rtm(filled)
        F.reflection_static(filled, 1e6)
        assert {"_static_nw", "_static_rtm"} <= filled.__dict__.keys()
        assert "_static_nw" not in fresh.__dict__
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)


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
    r_te, r_tm = F.imag_axis_coefficients(
        eps, (1.0 - eps) * (xi / C) ** 2, math.sqrt(k * k + (xi / C) ** 2))
    full = F.reflection(model, 1j * xi, k)
    assert full.r_te.real == pytest.approx(r_te, rel=1e-14)
    assert full.r_tm.real == pytest.approx(r_tm, rel=1e-14)
    # the quotients on the complex wavevectors k_z = i q, s = i kappa
    k0sq = (1j * xi / C) ** 2
    k_z = F.branch_sqrt(k0sq - k * k)
    s = F.branch_sqrt(eps * k0sq - k * k)
    te, tm = (k_z - s) / (k_z + s), (eps * k_z - s) / (eps * k_z + s)
    assert te.real == pytest.approx(r_te, rel=1e-14)
    assert tm.real == pytest.approx(r_tm, rel=1e-14)


def test_epsilon_array_on_imaginary_axis_is_real():
    xi = np.geomspace(1e12, 1e17, 9)
    for model in CATALOG:
        got = F.epsilon(model, 1j * xi)
        assert got.dtype == float
        assert list(got) == [F.epsilon(model, 1j * x) for x in xi]
    assert F.epsilon(M.ideal_metal(), 1j * xi) is None


# ------------------------------------------------- array k_perp against scalar

ARRAY_K = np.geomspace(1e3, 1e9, 41)
FREQUENCIES = (1e12, 1e14, 1e16)


def _six_kinds():
    src = M.drude(1.37e16, 5.32e13)
    table = [(float(x), float(M.eval_epsilon(src, 1j * x).real))
             for x in np.geomspace(1e12, 1e18, 200)]
    return CATALOG + [M.ideal_metal(),
                      M.tabulated(table, M.Extrapolation.DRUDE_LIKE)]


SIX_KINDS = _six_kinds()
KIND_IDS = ["insulator", "drude", "plasma", "gplasma", "ideal", "table"]


def _per_k(call):
    """The three coefficients of scalar calls, one per ARRAY_K entry."""
    sets = [call(float(k)) for k in ARRAY_K]
    return [np.array([getattr(r, a) for r in sets])
            for a in ("r_te", "r_tm", "r_bar")]


def _as_arrays(r):
    return [r.r_te, r.r_tm, r.r_bar]


@pytest.mark.parametrize("model", SIX_KINDS, ids=KIND_IDS)
def test_array_kperp_equals_scalar_calls_on_xi_axis_and_static(model):
    for xi in FREQUENCIES:
        got = _as_arrays(F.reflection(model, 1j * xi, ARRAY_K))
        want = _per_k(lambda k: F.reflection(model, 1j * xi, k))
        for g, w in zip(got, want):
            assert g.shape == ARRAY_K.shape
            assert np.array_equal(g, w)
            assert not np.signbit(g.imag).any()
    got = _as_arrays(F.reflection_static(model, ARRAY_K))
    want = _per_k(lambda k: F.reflection_static(model, k))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert not np.signbit(g.imag).any()


@pytest.mark.parametrize("model", SIX_KINDS[:5], ids=KIND_IDS[:5])
def test_array_kperp_equals_scalar_calls_on_real_axis(model):
    for omega in FREQUENCIES:
        got = _as_arrays(F.reflection(model, omega, ARRAY_K))
        want = _per_k(lambda k: F.reflection(model, omega, k))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_array_kperp_raises_as_the_scalar_call():
    for k in (1e6, ARRAY_K):
        with pytest.raises(M.TabulatedOutOfRange):
            F.reflection(SIX_KINDS[-1], 1e14, k)
    drude = SIX_KINDS[1]
    calls = [lambda k: F.reflection(drude, 1e14, k),
             lambda k: F.reflection(drude, 1j * 1e14, k),
             lambda k: F.reflection_static(drude, k)]
    for bad in (-1.0, math.nan, math.inf):
        for call in calls:
            with pytest.raises(ValueError, match="k_perp"):
                call(bad)
            with pytest.raises(ValueError, match="k_perp"):
                call(np.append(ARRAY_K, bad))
    with pytest.raises(ValueError, match="k_perp"):
        F.reflection_static(drude, np.array([1e6, 0.0]))


def test_kperp_whose_square_overflows_raises_off_the_static_limit():
    bound = 0.5 * math.sqrt(sys.float_info.max)
    drude = SIX_KINDS[1]
    calls = [lambda k: F.reflection(drude, 1e14, k),
             lambda k: F.reflection(drude, 1j * 1e14, k),
             lambda k: F.real_axis_sweep(drude, np.array([1e12, 1e14]), k)]
    for bad in (bound, 1.35e154, 1e300):
        for call in calls:
            with pytest.raises(ValueError, match="half of sqrt"):
                call(bad)
    for k in (bound, 1e300):
        r = F.reflection_static(drude, np.array([1e6, k]))
        assert np.isfinite(r.r_te).all() and np.isfinite(r.r_tm).all()


def test_frequency_whose_square_overflows_raises():
    bound = math.sqrt(sys.float_info.max)
    drude = SIX_KINDS[1]
    for bad in (bound, 1.35e154, 1e200):
        for omega in (bad, -bad, 1j * bad):
            with pytest.raises(ValueError, match=r"sqrt\(float max\)"):
                F.reflection(drude, omega, 1e6)
        with pytest.raises(ValueError, match=r"sqrt\(float max\)"):
            F.real_axis_sweep(drude, np.array([1e12, bad]), 1e6)
    # just below it every coefficient is finite; tier-1 turns an overflow
    # warning into an error
    below = math.nextafter(bound, 0.0)
    for model in SIX_KINDS:
        axes = (1j * below,) if model.kind is M.Kind.TABULATED else (
            below, 1j * below)
        for omega in axes:
            r = F.reflection(model, omega, ARRAY_K)
            assert all(np.isfinite(c).all() for c in (r.r_te, r.r_tm, r.r_bar))
    for model in SIX_KINDS[:5]:
        assert all(np.isfinite(c).all() for c in F.real_axis_sweep(
            model, np.array([1e12, below]), 1e6))


def test_real_axis_sweep_gap_is_finite_up_to_the_kperp_bound():
    # r_tm - r_bar is taken factor by factor, so no product of eps, eps + 1
    # and the wavevectors overflows below the k_perp bound
    top = math.nextafter(0.5 * math.sqrt(sys.float_info.max), 0.0)
    omega = np.geomspace(1e-5, 1e100, 12)
    models = SIX_KINDS[:4] + [M.insulator(80.0)]
    for model in models:
        for k in (1e-3, 1e7, 2e12, 1e150, top):
            r_te, gap = F.real_axis_sweep(model, omega, k)
            assert np.isfinite(r_te).all() and np.isfinite(gap).all()


@pytest.mark.parametrize("omega", [math.nan, math.inf, complex(0.0, math.nan),
                                   complex(0.0, math.inf)])
def test_reflection_rejects_non_finite_frequency(omega):
    for k in (1e6, ARRAY_K):
        with pytest.raises(ValueError, match="omega"):
            F.reflection(SIX_KINDS[1], omega, k)


# ------------------------------------------------- scalar boundary

def test_epsilon_real_axis_array_keeps_the_imaginary_part():
    drude = M.drude(1.37e16, 5.32e13)
    w = np.array([1e13, 1e14, 1e15])
    got = F.epsilon(drude, w)
    assert got.dtype == complex
    assert np.all(got.imag > 0.0)
    assert got.tolist() == [F.epsilon(drude, x) for x in w.tolist()]


def test_scalar_inputs_return_python_scalars():
    k, xi, w = 1e6, 1e14, 1e14
    for model in SIX_KINDS:
        r = F.reflection_static(model, k)
        assert {type(v) for v in (r.r_te, r.r_tm, r.r_bar)} == {complex}
        assert type(F.static_rte(model, k)) is float
        assert type(F.static_rtm(model)) is float
        r = F.reflection(model, 1j * xi, k)
        assert {type(v) for v in (r.r_te, r.r_tm, r.r_bar)} == {complex}
        if model.kind is M.Kind.IDEAL_METAL:
            continue
        assert type(M.eval_epsilon(model, 1j * xi)) is complex
        assert type(F.epsilon(model, 1j * xi)) is float
        if model.kind is M.Kind.TABULATED:
            assert type(M.eval_epsilon_tabulated(model, xi)) is float
            continue
        assert type(M.eval_epsilon(model, w)) is complex
        assert type(F.epsilon(model, w)) is complex
        r = F.reflection(model, w, k)
        assert {type(v) for v in (r.r_te, r.r_tm, r.r_bar)} == {complex}


@pytest.mark.parametrize("model", SIX_KINDS[:5], ids=KIND_IDS[:5])
def test_scalar_real_axis_call_is_the_array_entry_bit_for_bit(model):
    for omega in FREQUENCIES:
        got = _per_k(lambda k: F.reflection(model, omega, k))
        want = _as_arrays(F.reflection(model, omega, ARRAY_K))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_static_rtm_is_the_static_tm_and_scalar_coefficient():
    for model in SIX_KINDS:
        r = F.reflection_static(model, ARRAY_K)
        assert np.all(r.r_tm == F.static_rtm(model))
        assert np.all(r.r_bar == F.static_rtm(model))
    assert F.static_rtm(M.insulator(3.0)) == 0.5
    assert F.static_rtm(M.ideal_metal()) == 1.0


def test_real_axis_eps_kz_overflow_is_rejected():
    # |eps| ~ 1.8e302 at 1e3 rad/s on either axis is finite, but eps k_z at
    # k_perp = 1e7 is not: r_tm would be NaN and the r_tm - r_bar gap a
    # silent 0
    model = M.plasma(1.34e154)
    for call in (lambda: F.reflection(model, 1e3, 1e7),
                 lambda: F.reflection(model, 1e3j, 1e7),
                 lambda: F.real_axis_sweep(model, np.array([1e3, 2e3]), 1e7)):
        with pytest.raises(ValueError, match="eps k_z of r_tm overflows "
                                             "float max"):
            call()
    r = F.reflection(model, 1e3, 1e3)
    assert all(map(cmath.isfinite, (r.r_te, r.r_tm, r.r_bar)))
