"""Permittivity models: closures, zero-frequency classes, tabulated data."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_bvl import materials as M


def test_insulator_is_constant_everywhere():
    model = M.insulator(3.0)
    for w in (0.0, 1.0, 1e12, 1e16, 1j * 1e10, 1j * 1e15):
        assert M.eval_epsilon(model, w) == 3.0
        assert isinstance(M.eval_epsilon(model, w), complex)


def test_insulator_rejects_eps0_below_one():
    with pytest.raises(ValueError):
        M.insulator(0.5)


def test_drude_imaginary_axis_closure():
    wp, gamma = 1.37e16, 5.32e13
    model = M.drude(wp, gamma)
    for xi in (1e12, 1e14, 1e16):
        eps = M.eval_epsilon(model, 1j * xi)
        assert eps.imag == 0.0
        assert eps.real == pytest.approx(1.0 + wp**2 / (xi * (xi + gamma)),
                                         rel=1e-14)


def test_drude_real_axis_closure():
    wp, gamma = 1.37e16, 5.32e13
    model = M.drude(wp, gamma)
    w = 2e15
    expected = 1.0 - wp**2 / (w * (w + 1j * gamma))
    assert M.eval_epsilon(model, w) == pytest.approx(expected, rel=1e-14)


def test_drude_low_frequency_conductivity_asymptote():
    # omega*(eps - 1) -> 4*pi*i*sigma_0 as omega -> 0
    model = M.drude(1.37e16, 5.32e13)
    sigma0 = model.omega_p ** 2 / (4.0 * math.pi * model.gamma)
    w = model.gamma * 1e-8
    val = w * (M.eval_epsilon(model, w) - 1.0)
    assert val.imag == pytest.approx(4.0 * math.pi * sigma0, rel=1e-6)
    assert abs(val.real) < abs(val.imag) * 1e-6


def test_plasma_closures_both_axes():
    wp = 2.0
    model = M.plasma(wp)
    assert M.eval_epsilon(model, 1j * 1.0) == 5.0  # 1 + (2/1)^2
    eps = M.eval_epsilon(model, 4.0)
    assert eps == pytest.approx(1.0 - 0.25, rel=1e-15)
    assert eps.imag == 0.0


def test_generalized_plasma_adds_oscillators():
    osc = M.Oscillator(2e31, 3e15, 1e14)
    model = M.generalized_plasma(1.37e16, [osc])
    xi = 1e15
    base = 1.0 + (1.37e16 / xi) ** 2
    extra = osc.strength / (osc.center**2 + xi**2 + osc.width * xi)
    assert M.eval_epsilon(model, 1j * xi).real == pytest.approx(base + extra,
                                                                rel=1e-14)
    w = 1e15
    lorentz = osc.strength / (osc.center**2 - w**2 - 1j * osc.width * w)
    expected = 1.0 - (1.37e16 / w) ** 2 + lorentz
    assert M.eval_epsilon(model, w) == pytest.approx(expected, rel=1e-13)


def test_singular_models_raise_at_zero():
    for model in (M.drude(1e16, 1e13), M.plasma(1e16),
                  M.generalized_plasma(1e16)):
        with pytest.raises(M.EvalAtZero):
            M.eval_epsilon(model, 0.0)


def test_ideal_metal_has_no_epsilon():
    with pytest.raises(M.IdealMetalHasNoEpsilon):
        M.eval_epsilon(M.ideal_metal(), 1e15)
    with pytest.raises(M.IdealMetalHasNoEpsilon):
        M.eval_imag_axis(M.ideal_metal(), np.array([1e15]))


def test_off_axis_frequency_rejected():
    with pytest.raises(ValueError):
        M.eval_epsilon(M.drude(1e16, 1e13), 1e15 + 1j * 1e14)
    with pytest.raises(ValueError):
        M.eval_epsilon(M.plasma(1e16), -1j * 1e14)


def test_oscillator_parameter_validation():
    with pytest.raises(ValueError):
        M.Oscillator(-1.0, 1e15, 1e13)
    with pytest.raises(ValueError):
        M.Oscillator(1e30, 0.0, 1e13)
    with pytest.raises(ValueError):
        M.Oscillator(1e30, 1e15, -1e13)


def test_parameters_whose_square_overflows_are_rejected():
    bound = math.sqrt(sys.float_info.max)
    below = math.nextafter(bound, 0.0)
    for bad in (bound, 1e200):
        for make in (M.plasma, lambda w: M.drude(w, 1e13),
                     lambda w: M.generalized_plasma(w)):
            with pytest.raises(ValueError, match=r"omega_p must be below"):
                make(bad)
        with pytest.raises(ValueError, match=r"center must be below"):
            M.Oscillator(1e30, bad, 1e13)
    model = M.generalized_plasma(below, (M.Oscillator(1e30, below, 1e13),))
    eps = M.eval_epsilon(model, np.array([1e10, 1e14]))
    assert np.isfinite(eps).all()
    assert np.isfinite(M.eval_epsilon(model, 1j * np.array([1e10, 1e14]))).all()


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e10, max_value=1e18),
       st.floats(min_value=1.01, max_value=3.0))
def test_imaginary_axis_reality_and_bound(xi, factor):
    """eps(i*xi) is real with eps >= 1 for every dissipative/lossless model."""
    models = [M.insulator(3.0, [M.Oscillator(2e31, 3e15, 1e14)]),
              M.drude(1.37e16, 5.32e13), M.plasma(1.37e16),
              M.generalized_plasma(1.37e16, [M.Oscillator(2e31, 3e15, 1e14)])]
    for model in models:
        eps = M.eval_epsilon(model, 1j * xi * factor)
        assert eps.imag == 0.0
        assert eps.real >= 1.0


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e11, max_value=1e17))
def test_imaginary_axis_monotone_decreasing(xi):
    """eps(i*xi) decreases with xi for the conducting models."""
    for model in (M.drude(1.37e16, 5.32e13), M.plasma(1.37e16)):
        lo = M.eval_epsilon(model, 1j * xi).real
        hi = M.eval_epsilon(model, 1j * xi * 2.0).real
        assert lo > hi >= 1.0


def test_zero_freq_class_mapping():
    table_d = [(1e14, 200.0), (2e14, 60.0), (4e14, 20.0)]
    assert M.zero_freq_class(M.insulator(3.0)) is M.ZeroFreqClass.FINITE
    assert M.zero_freq_class(M.drude(1e16, 1e13)) is M.ZeroFreqClass.INVERSE_OMEGA
    assert M.zero_freq_class(M.plasma(1e16)) is M.ZeroFreqClass.INVERSE_OMEGA_SQUARED
    assert (M.zero_freq_class(M.generalized_plasma(1e16))
            is M.ZeroFreqClass.INVERSE_OMEGA_SQUARED)
    assert M.zero_freq_class(M.ideal_metal()) is M.ZeroFreqClass.IDEAL
    assert (M.zero_freq_class(M.tabulated(table_d, M.Extrapolation.DRUDE_LIKE))
            is M.ZeroFreqClass.INVERSE_OMEGA)
    assert (M.zero_freq_class(M.tabulated(table_d, M.Extrapolation.PLASMA_LIKE))
            is M.ZeroFreqClass.INVERSE_OMEGA_SQUARED)
    assert (M.zero_freq_class(M.tabulated(table_d, M.Extrapolation.FINITE))
            is M.ZeroFreqClass.FINITE)


def test_static_epsilon():
    osc = M.Oscillator(2e30, 2e15, 1e14)
    model = M.insulator(3.0, [osc])
    assert M.static_epsilon(model) == pytest.approx(
        3.0 + osc.strength / osc.center**2, rel=1e-15)
    with pytest.raises(ValueError):
        M.static_epsilon(M.plasma(1e16))


def _drude_table(n=200, lo=1e12, hi=1e18):
    model = M.drude(1.37e16, 5.32e13)
    xs = np.geomspace(lo, hi, n)
    return [(float(x), float(M.eval_epsilon(model, 1j * x).real)) for x in xs]


def test_tabulated_round_trip_within_table():
    """Interpolated table built from a Drude model reproduces it to 1e-3."""
    model = M.tabulated(_drude_table(), M.Extrapolation.DRUDE_LIKE)
    ref = M.drude(1.37e16, 5.32e13)
    for xi in np.geomspace(1.5e12, 8e17, 41):
        got = M.eval_epsilon(model, 1j * xi).real
        want = M.eval_epsilon(ref, 1j * xi).real
        assert abs(got - want) <= 1e-3 * abs(want)


def test_tabulated_extrapolation_below_range():
    ref = M.drude(1.37e16, 5.32e13)
    model = M.tabulated(_drude_table(lo=1e13), M.Extrapolation.DRUDE_LIKE)
    # A/xi continuation tracks the 1/xi singularity of the source model;
    # the two-node fit carries an O(xi_lo / gamma) residual, here a few %
    got = M.eval_epsilon(model, 1j * 1e11).real
    want = M.eval_epsilon(ref, 1j * 1e11).real
    assert got == pytest.approx(want, rel=5e-2)

    plas = M.plasma(1.37e16)
    xs = np.geomspace(1e13, 1e18, 50)
    table = [(float(x), float(M.eval_epsilon(plas, 1j * x).real)) for x in xs]
    tab = M.tabulated(table, M.Extrapolation.PLASMA_LIKE)
    got = M.eval_epsilon(tab, 1j * 1e11).real
    want = M.eval_epsilon(plas, 1j * 1e11).real
    assert got == pytest.approx(want, rel=1e-6)
    assert M.effective_omega_p(tab) == pytest.approx(1.37e16, rel=1e-9)


def test_tabulated_finite_holds_boundary_and_above_range_tail():
    table = [(1e14, 5.0), (1e15, 3.0), (1e16, 1.5)]
    model = M.tabulated(table, M.Extrapolation.FINITE)
    assert M.eval_epsilon(model, 1j * 1e12).real == 5.0
    assert M.static_epsilon(model) == 5.0
    # above range: 1 + C/xi^2 matched at the top node
    c = (1.5 - 1.0) * (1e16) ** 2
    assert M.eval_epsilon(model, 1j * 1e17).real == pytest.approx(
        1.0 + c / 1e34, rel=1e-12)


def test_tabulated_validation():
    with pytest.raises(M.EmptyTable):
        M.tabulated([(1e14, 2.0)], M.Extrapolation.FINITE)
    with pytest.raises(ValueError):
        M.tabulated([(1e15, 2.0), (1e14, 3.0)], M.Extrapolation.FINITE)
    with pytest.raises(ValueError):
        M.tabulated([(1e14, 0.5), (1e15, 2.0)], M.Extrapolation.FINITE)
    with pytest.raises(ValueError):
        M.tabulated([(1e14, 2.0), (1e15, 3.0)], None)
    # singular continuation needs eps decreasing at the low end
    with pytest.raises(ValueError):
        M.tabulated([(1e14, 2.0), (1e15, 3.0)], M.Extrapolation.DRUDE_LIKE)


def test_tabulated_real_axis_rejected():
    model = M.tabulated([(1e14, 5.0), (1e15, 3.0)], M.Extrapolation.FINITE)
    with pytest.raises(M.TabulatedOutOfRange):
        M.eval_epsilon(model, 1e15)


def test_tabulated_singular_at_zero():
    table = [(1e14, 200.0), (2e14, 60.0)]
    model = M.tabulated(table, M.Extrapolation.DRUDE_LIKE)
    with pytest.raises(M.EvalAtZero):
        M.eval_epsilon(model, 1j * 0.0)


def test_load_table(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text("# xi  eps\n\n1e14  5.0\n1e15\t3.0\n")
    assert M.load_table(path) == [(1e14, 5.0), (1e15, 3.0)]
    bad = tmp_path / "bad.dat"
    bad.write_text("1e14 5.0 extra\n1e15 3.0\n")
    with pytest.raises(ValueError):
        M.load_table(bad)
    empty = tmp_path / "empty.dat"
    empty.write_text("# nothing\n")
    with pytest.raises(M.EmptyTable):
        M.load_table(empty)


def test_imaginary_axis_array_matches_scalar_evaluation():
    table = [(x, 1.0 + 1e32 / (x * (x + 5e13)))
             for x in np.geomspace(1e12, 1e17, 30)]
    # the table's end nodes and their neighbours, where the continuations
    # take over from the interpolation
    ends = [f(x) for x in (table[0][0], table[-1][0])
            for f in (float, lambda x: np.nextafter(x, 0.0),
                      lambda x: np.nextafter(x, np.inf))]
    xi = np.concatenate([np.geomspace(1e10, 1e19, 41), ends])
    osc = [M.Oscillator(2e31, 3e15, 1e14)]
    models = [M.insulator(3.0), M.insulator(1.0, osc),
              M.drude(1.37e16, 5.32e13), M.plasma(1.37e16),
              M.generalized_plasma(1.37e16, osc),
              M.tabulated(table, M.Extrapolation.DRUDE_LIKE),
              M.tabulated(table, M.Extrapolation.PLASMA_LIKE),
              M.tabulated(table, M.Extrapolation.FINITE)]
    for model in models:
        got = M.eval_epsilon(model, 1j * xi)
        assert got.shape == xi.shape and got.dtype == complex
        assert np.all(got.imag == 0.0)
        want = [M.eval_epsilon(model, 1j * x) for x in xi]
        assert np.array_equal(got, want)
        bare = M.eval_imag_axis(model, xi)
        assert bare.shape == xi.shape and bare.dtype == float
        assert np.array_equal(bare, got.real)


def test_array_frequencies_must_lie_on_one_axis():
    dr = M.drude(1.37e16, 5.32e13)
    for w in (np.array([1e14, 1e15j]), 1j * np.array([1e14, 0.0]),
              1j * np.array([1e14, -1e15]), np.array([1e14, 1e14 + 1e14j])):
        with pytest.raises(ValueError):
            M.eval_epsilon(dr, w)
    with pytest.raises(M.EvalAtZero):
        M.eval_epsilon(dr, np.array([1e14, 0.0]))
    assert M.eval_epsilon(M.insulator(3.0), np.array([1e14, 0.0])).tolist() \
        == [3.0, 3.0]
    table = M.tabulated([(1e14, 5.0), (1e15, 3.0)], M.Extrapolation.FINITE)
    with pytest.raises(M.TabulatedOutOfRange):
        M.eval_epsilon(table, np.array([1e14, 1e15]))
    with pytest.raises(ValueError):
        M.eval_epsilon_tabulated(table, np.array([1e14, 0.0]))


def test_real_axis_array_matches_scalar_evaluation():
    w = np.geomspace(1e10, 1e19, 41)
    osc = [M.Oscillator(2e31, 3e15, 1e14)]
    for model in (M.insulator(3.0), M.insulator(1.0, osc),
                  M.drude(1.37e16, 5.32e13), M.plasma(1.37e16),
                  M.generalized_plasma(1.37e16, osc)):
        got = M.eval_epsilon(model, w)
        assert got.shape == w.shape and got.dtype == complex
        want = [M.eval_epsilon(model, x) for x in w.tolist()]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(bad):
    for make in (lambda: M.insulator(bad), lambda: M.drude(bad, 1e13),
                 lambda: M.drude(1e16, bad), lambda: M.plasma(bad),
                 lambda: M.generalized_plasma(bad),
                 lambda: M.Oscillator(bad, 3e15, 1e14),
                 lambda: M.Oscillator(2e31, bad, 1e14),
                 lambda: M.Oscillator(2e31, 3e15, bad),
                 lambda: M.tabulated([(1e14, bad), (1e15, 3.0)],
                                     M.Extrapolation.FINITE),
                 lambda: M.tabulated([(1e14, 5.0), (bad, 3.0)],
                                     M.Extrapolation.FINITE)):
        with pytest.raises(ValueError):
            make()


def test_scalar_is_the_one_entry_array_bit_for_bit():
    w = np.geomspace(1e10, 1e19, 41)
    osc = [M.Oscillator(2e31, 3e15, 1e14)]
    for model in (M.insulator(3.0), M.insulator(1.0, osc),
                  M.drude(1.37e16, 5.32e13), M.plasma(1.37e16),
                  M.generalized_plasma(1.37e16, osc)):
        for x in (w, 1j * w):
            want = [M.eval_epsilon(model, np.array([v]))[0] for v in x]
            assert [M.eval_epsilon(model, v) for v in x.tolist()] == want


# ------------------------------------- one expression against the textbook

OSC = (M.Oscillator(2e31, 3e15, 1e14), M.Oscillator(5e30, 7e15, 3e13))
TABLE = [(1e13, 50.0), (1e14, 10.0), (1e15, 3.0), (1e16, 1.5)]


def _textbook(model, x, imag_axis):
    """(eps, the largest magnitude among its terms) as the textbook writes
    each kind, at i x on the imaginary axis or at real x."""
    wp, gam, oscs = model.omega_p, model.gamma, model.oscillators
    if imag_axis:
        drude, plasma = wp ** 2 / (x * (x + gam)), wp ** 2 / x ** 2
        lorentz = sum(o.strength / (o.center ** 2 + x ** 2 + o.width * x)
                      for o in oscs)
    else:
        drude, plasma = -wp ** 2 / (x * (x + 1j * gam)), -wp ** 2 / x ** 2
        lorentz = sum(o.strength / (o.center ** 2 - x ** 2 - 1j * o.width * x)
                      for o in oscs)
    terms = {M.Kind.INSULATOR: [model.eps0, lorentz],
             M.Kind.DRUDE: [1.0, drude],
             M.Kind.PLASMA: [1.0, plasma],
             M.Kind.GENERALIZED_PLASMA: [1.0, plasma, lorentz]}[model.kind]
    scale = np.max(np.abs(np.broadcast_arrays(*terms)), axis=0)
    return sum(terms[1:], terms[0]), scale


def _table_textbook(xi):
    """Log-log interpolation inside TABLE, A/xi below it (drude-like), and
    1 + C/xi^2 above it."""
    (x1, e1), (x2, e2), (xn, en) = TABLE[0], TABLE[1], TABLE[-1]
    a = (e1 - e2) / (1.0 / x1 - 1.0 / x2)
    inside = np.exp(np.interp(np.log(xi), *np.log(np.array(TABLE).T)))
    return np.where(xi < x1, e1 + a * (1.0 / xi - 1.0 / x1),
                    np.where(xi > xn, 1.0 + (en - 1.0) * xn ** 2 / xi ** 2,
                             inside))


def _same_bits(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.broadcast_to(np.asarray(want, dtype=complex), got.shape)
    return got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("model, exact", [
    (M.insulator(3.0), True), (M.insulator(2.0, OSC[:1]), True),
    (M.insulator(1.5, OSC), True), (M.drude(1.37e16, 5.32e13), True),
    (M.drude(1e15, 1e13), True), (M.plasma(1.37e16), False),
    (M.generalized_plasma(1.37e16, OSC[:1]), False)])
def test_both_axes_are_the_textbook_expressions(model, exact):
    # plasma and gplasma may differ from the textbook by 2 ulp of their
    # largest term (eps itself cancels near its zeros on the real axis);
    # every other kind gives the textbook's bits
    xi = np.geomspace(1e9, 1e19, 301)
    w = np.concatenate([xi, -xi])
    for x, imag_axis, got in (
            (xi, True, M.eval_imag_axis(model, xi)),
            (xi, True, M.eval_epsilon(model, 1j * xi)),
            (w, False, M.eval_epsilon(model, w))):
        want, scale = _textbook(model, x, imag_axis)
        if exact:
            assert _same_bits(got, want)
        else:
            assert np.all(np.abs(got - want) <= 2 * np.spacing(scale))
    if model.kind is M.Kind.INSULATOR:
        static = model.eps0 + sum(o.strength / o.center ** 2
                                  for o in model.oscillators)
        assert _same_bits(M.static_epsilon(model), static)


def test_tabulated_is_the_textbook_interpolation():
    model = M.tabulated(TABLE, M.Extrapolation.DRUDE_LIKE)
    xi = np.geomspace(1e11, 1e18, 301)
    assert _same_bits(M.eval_imag_axis(model, xi), _table_textbook(xi))
    assert _same_bits(M.eval_epsilon(model, 1j * xi), _table_textbook(xi))


@pytest.mark.parametrize("tag", list(M.Extrapolation))
def test_tabulated_continuations_are_the_three_branch_expression(tag):
    """Each continuation, evaluated only on the xi it covers, has the bits
    of the expression that evaluates all three branches at every xi."""
    table = [(1e13, 5e4), (1e14, 2e3), (1e15, 60.0), (1e16, 3.0)]
    model = M.tabulated(table, tag)
    (x1, e1), (x2, e2), (xn, en) = table[0], table[1], table[-1]
    xi = np.concatenate([np.geomspace(1e10, 1e19, 97),
                         [x1, np.nextafter(x1, 0.0), np.nextafter(x1, 1e99),
                          xn, np.nextafter(xn, 0.0), np.nextafter(xn, 1e99)]])
    if tag is M.Extrapolation.DRUDE_LIKE:
        a = (e1 - e2) / (1.0 / x1 - 1.0 / x2)
        below = e1 + a * (1.0 / xi - 1.0 / x1)
    elif tag is M.Extrapolation.PLASMA_LIKE:
        b = (e1 - e2) / (1.0 / x1 ** 2 - 1.0 / x2 ** 2)
        below = e1 + b * (1.0 / xi ** 2 - 1.0 / x1 ** 2)
    else:
        below = e1
    above = 1.0 + (en - 1.0) * xn ** 2 / xi ** 2
    inside = np.exp(np.interp(np.log(xi), *np.log(np.array(table).T)))
    want = np.where(xi < x1, below, np.where(xi > xn, above, inside))
    assert _same_bits(M.eval_epsilon_tabulated(model, xi), want)
    for x, w in zip(xi, want):
        assert _same_bits(M.eval_epsilon_tabulated(model, float(x)), w)
    # a sequence is not an array: as for any non-scalar, float() refuses it
    for seq in (list(xi[:3]), [], (x1,)):
        with pytest.raises(TypeError):
            M.eval_epsilon_tabulated(model, seq)


@pytest.mark.parametrize("make, field", [
    (lambda: M.MaterialModel(M.Kind.PLASMA, omega_p=1e16, gamma=1e13),
     "gamma"),
    (lambda: M.MaterialModel(M.Kind.GENERALIZED_PLASMA, omega_p=1e16,
                             gamma=1e13), "gamma"),
    (lambda: M.MaterialModel(M.Kind.INSULATOR, eps0=3.0, gamma=1e13),
     "gamma"),
    (lambda: M.MaterialModel(M.Kind.IDEAL_METAL, gamma=1e13), "gamma"),
    (lambda: M.MaterialModel(M.Kind.INSULATOR, eps0=3.0, omega_p=1e16),
     "omega_p"),
    (lambda: M.MaterialModel(M.Kind.IDEAL_METAL, omega_p=1e16), "omega_p"),
    (lambda: M.MaterialModel(M.Kind.TABULATED, omega_p=1e16,
                             table=tuple(TABLE),
                             extrapolation=M.Extrapolation.FINITE),
     "omega_p"),
    (lambda: M.MaterialModel(M.Kind.DRUDE, omega_p=1e16, gamma=1e13,
                             oscillators=OSC), "oscillators"),
    (lambda: M.MaterialModel(M.Kind.PLASMA, omega_p=1e16,
                             oscillators=OSC[:1]), "oscillators"),
    (lambda: M.MaterialModel(M.Kind.DRUDE, eps0=5.0, omega_p=1e16,
                             gamma=1e13), "eps0"),
    (lambda: M.MaterialModel(M.Kind.PLASMA, eps0=5.0, omega_p=1e16), "eps0"),
    (lambda: M.MaterialModel(M.Kind.GENERALIZED_PLASMA, eps0=5.0,
                             omega_p=1e16, oscillators=OSC), "eps0"),
    (lambda: M.MaterialModel(M.Kind.IDEAL_METAL, eps0=5.0), "eps0"),
    (lambda: M.MaterialModel(M.Kind.TABULATED, eps0=5.0, table=tuple(TABLE),
                             extrapolation=M.Extrapolation.FINITE), "eps0"),
    (lambda: M.MaterialModel(M.Kind.TABULATED, oscillators=OSC,
                             table=tuple(TABLE),
                             extrapolation=M.Extrapolation.FINITE),
     "oscillators"),
    (lambda: M.MaterialModel(M.Kind.IDEAL_METAL, oscillators=OSC),
     "oscillators"),
    (lambda: M.MaterialModel(M.Kind.DRUDE, omega_p=1e16, gamma=1e13,
                             table=tuple(TABLE)), "table"),
    (lambda: M.MaterialModel(M.Kind.INSULATOR, eps0=3.0, table=tuple(TABLE)),
     "table"),
    (lambda: M.MaterialModel(M.Kind.IDEAL_METAL, table=tuple(TABLE)),
     "table"),
    (lambda: M.MaterialModel(M.Kind.PLASMA, omega_p=1e16,
                             extrapolation=M.Extrapolation.PLASMA_LIKE),
     "extrapolation"),
    (lambda: M.MaterialModel(M.Kind.INSULATOR, eps0=3.0,
                             extrapolation=M.Extrapolation.FINITE),
     "extrapolation"),
])
def test_fields_the_kind_does_not_carry_are_rejected(make, field):
    # the one expression reads every field, so a stray one would change eps
    with pytest.raises(ValueError, match=field):
        make()


def test_eps_overflow_names_the_frequency_and_float_max():
    # omega_p^2/omega^2 overflows below about omega_p/sqrt(float max) on
    # either axis; the frequency above keeps its finite eps, bit for bit
    model = M.plasma(1.34e154)
    wp2 = model.omega_p ** 2
    with pytest.raises(ValueError, match=r"eps is not finite at omega = "
                                         r"0\.5 rad/s.*float max"):
        M.eval_epsilon(model, np.array([1e3, 0.5]))
    with pytest.raises(ValueError, match=r"at xi = 0\.5 rad/s.*float max"):
        M.eval_epsilon(model, np.array([1e3j, 0.5j]))
    assert M.eval_epsilon(model, 1e3) == complex(1.0 - wp2 / (1e3 * 1e3))
    assert M.eval_epsilon(model, 1e3j) == complex(1.0 + wp2 / (1e3 * 1e3))
    with pytest.raises(ValueError, match="float max"):
        M.eval_epsilon(M.drude(1.34e154, 1.0), 0.5)
    # w (w + i gamma) underflows to 0 here: a division by zero, not a NaN
    for w in (1e-300, 1e-300j):
        with pytest.raises(ValueError, match="float max"):
            M.eval_epsilon(M.drude(1e10, 1e-300), w)
