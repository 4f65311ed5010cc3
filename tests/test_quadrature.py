"""Adaptive quadrature, summation and fitting machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_bvl import quadrature as Q
from casimir_bvl.constants import C, HBAR, K_B


def test_adaptive_gk_exponential():
    val, err, nev = Q.adaptive_gk(lambda x: np.exp(-x), 0.0, 50.0, 1e-10)
    assert val == pytest.approx(1.0, rel=1e-10)
    assert nev >= 15


def test_adaptive_gk_polynomial_is_exact():
    val, _, _ = Q.adaptive_gk(lambda x: x**5, 0.0, 2.0, 1e-12)
    assert val == pytest.approx(64.0 / 6.0, rel=1e-14)


def _reported_error(exc):
    """The error estimate a NoConvergence message reports."""
    return float(str(exc).split("error ")[1].split()[0].rstrip(","))


def test_adaptive_gk_budget_exhaustion():
    # some 16000 oscillations need far more than the default budget of
    # intervals; the integrand stays finite, and so does the error
    budget = Q.DEFAULT_INTERVAL_BUDGET
    with pytest.raises(Q.NoConvergence,
                       match=f"budget of {budget} intervals exhausted") as info:
        Q.adaptive_gk(lambda x: np.cos(1e5 * x), 0.0, 1.0, 1e-10)
    assert math.isfinite(_reported_error(info.value))


def test_adaptive_gk_non_finite_integrand_stops_at_once():
    # bisection of [0, 1] reaches the singular point 1/3 exactly as a node
    calls = []

    def f(x):
        calls.append(x.size)
        with np.errstate(divide="ignore"):
            return abs(x - 1.0 / 3.0) ** -0.9

    with np.errstate(invalid="ignore"), pytest.raises(
            Q.NoConvergence, match=r"non-finite integrand: \d+ intervals"):
        Q.adaptive_gk(f, 0.0, 1.0, 1e-14)
    assert len(calls) < Q.DEFAULT_INTERVAL_BUDGET // 10


def test_semi_infinite_gamma_integral():
    a = 4.0e6
    res = Q.integrate_semi_infinite(lambda k: k**2 * np.exp(-a * k),
                                    1.0 / a, 1e-10)
    assert res.value == pytest.approx(2.0 / a**3, rel=1e-9)
    assert res.error_estimate < abs(res.value) * 1e-6


def test_semi_infinite_zeta3_integral():
    zeta3 = 1.2020569031595943
    res = Q.integrate_semi_infinite(
        lambda k: np.where(
            k > 0, k**2 / np.expm1(np.clip(k, 1e-300, 700.0)), 0.0),
        1.0, 1e-10)
    assert res.value == pytest.approx(2.0 * zeta3, rel=1e-9)


def test_semi_infinite_parameter_validation():
    with pytest.raises(ValueError):
        Q.integrate_semi_infinite(lambda k: k, -1.0, 1e-8)
    with pytest.raises(ValueError):
        Q.integrate_semi_infinite(lambda k: k, 1.0, 0.5)
    with pytest.raises(ValueError):
        Q.integrate_semi_infinite(lambda k: k, 1.0, 1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_linearity(a, b):
    f = lambda x: np.exp(-x)
    g = lambda x: x * np.exp(-2.0 * x)
    fa = Q.integrate_semi_infinite(f, 1.0, 1e-10)
    gb = Q.integrate_semi_infinite(g, 0.5, 1e-10)
    combo = Q.integrate_semi_infinite(lambda x: a * f(x) + b * g(x),
                                      1.0, 1e-10)
    budget = abs(a) * fa.error_estimate + abs(b) * gb.error_estimate \
        + combo.error_estimate + 1e-12
    assert abs(combo.value - (a * fa.value + b * gb.value)) <= budget


def test_error_honesty_randomized():
    """True error <= 3x the estimate in at least 95% of randomized trials."""
    rng = np.random.default_rng(20240817)
    failures = 0
    trials = 100
    for _ in range(trials):
        scale = 10.0 ** rng.uniform(-6, 6)
        p = rng.integers(0, 3)
        res = Q.integrate_semi_infinite(
            lambda k: k**p * np.exp(-k / scale), scale, 1e-8)
        exact = math.factorial(p) * scale ** (p + 1)
        if abs(res.value - exact) > 3.0 * res.error_estimate + 1e-300:
            failures += 1
    assert failures <= trials * 0.05


def test_matsubara_sum_geometric():
    r = 0.6
    res = Q.matsubara_sum(lambda n: r**n, 1e-6, 300.0, 1e-9)
    assert res.value == pytest.approx(0.5 + r / (1.0 - r), rel=1e-8)
    assert res.tail_bound <= 1e-9 * abs(res.value)


def test_matsubara_sum_survives_vanishing_terms():
    # a term that vanishes at one index must not trigger early termination
    r = 0.5

    def term(n):
        return 0.0 if n == 2 else r**n

    res = Q.matsubara_sum(term, 1e-6, 300.0, 1e-12)
    exact = 0.5 + r / (1.0 - r) - r**2
    assert res.value == pytest.approx(exact, rel=1e-10)


def test_matsubara_sum_ceiling():
    with pytest.raises(Q.NoConvergence):
        Q.matsubara_sum(lambda n: 1.0 / (n + 1.0), 1e-4, 300.0, 1e-10)


def test_matsubara_sum_validation():
    with pytest.raises(ValueError):
        Q.matsubara_sum(lambda n: 0.0, -1e-6, 300.0, 1e-9)


def test_fit_power_law_exact():
    xs = np.geomspace(0.1, 10.0, 9)
    exp, r2 = Q.fit_power_law([(x, x**2) for x in xs])
    assert exp == pytest.approx(2.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    exp, r2 = Q.fit_power_law([(x, 5.0 * x) for x in xs])
    assert exp == pytest.approx(1.0, abs=1e-10)


def test_fit_power_law_perturbed():
    xs = np.geomspace(0.01, 100.0, 25)
    pts = [(x, x**2 * (1.0 + 0.01 * math.sin(math.log(x)))) for x in xs]
    exp, _ = Q.fit_power_law(pts)
    assert 1.9 <= exp <= 2.1


def test_fit_power_law_guards():
    with pytest.raises(Q.DegenerateSweep):
        Q.fit_power_law([(1.0, 1.0), (2.0, 4.0)])
    with pytest.raises(Q.NonPositiveData):
        Q.fit_power_law([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)])


def test_integrate_real_frequency_exponential():
    w0 = 3.7e14
    res = Q.integrate_real_frequency(lambda w: math.exp(-w / w0),
                                     40.0 * w0, 1e-6)
    assert res.value == pytest.approx(w0, rel=1e-6)


def test_integrate_real_frequency_plateau_contribution():
    # finite limit L at 0: the [0, omega_min] strip contributes ~ L*omega_min
    res = Q.integrate_real_frequency(lambda w: 1.0 / (1.0 + w), 1e3, 1e-8)
    assert res.value == pytest.approx(math.log(1.0 + 1e3), rel=1e-7)


def test_integrate_real_frequency_decaying_tail():
    # sqrt decay at 0 never passes a relative settle test, but the strip
    # contribution becomes negligible and the integral must still come out
    res = Q.integrate_real_frequency(lambda w: math.sqrt(w) * math.exp(-w),
                                     50.0, 1e-6)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-5)


def test_integrate_real_frequency_no_plateau():
    with pytest.raises(Q.NoPlateau):
        Q.integrate_real_frequency(lambda w: math.cos(math.log(w)) / w,
                                   1e3, 1e-6)


def test_integrate_real_frequency_non_finite_integrand():
    def g(w):
        return math.nan if 0.4 < w < 0.5 else math.exp(-w)

    with pytest.raises(Q.NoConvergence, match="non-finite"):
        Q.integrate_real_frequency(g, 1.0, 1e-6)


def test_integrate_real_frequency_validation():
    with pytest.raises(ValueError):
        Q.integrate_real_frequency(lambda w: 1.0, -1.0, 1e-6)


def test_composite_gk_oscillatory():
    f = lambda x: np.sin(3.0 * x) * np.exp(-0.1 * x)
    edges = np.linspace(0.0, 20.0, 41)
    res = Q.composite_gk(f, edges, 1e-10)
    exact = (3.0 - math.exp(-2.0)
             * (0.1 * math.sin(60.0) + 3.0 * math.cos(60.0))) / (9.0 + 0.01)
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.evaluations >= 40 * 15


def test_composite_gk_refines_narrow_feature():
    # Lorentzian spike far narrower than the seed panels
    w, x0 = 1e-5, 0.3141
    points = []

    def f(x):
        points.append(x.size)
        return w / ((x - x0) ** 2 + w**2)

    res = Q.composite_gk(f, np.linspace(0.0, 1.0, 5), 1e-8)
    exact = math.atan((1.0 - x0) / w) + math.atan(x0 / w)
    assert res.value == pytest.approx(exact, rel=1e-7)
    assert res.evaluations == sum(points) > 4 * 15


def test_composite_gk_polynomial_is_exact():
    # GK 7/15 integrates x^5 exactly: the seed panels are never bisected
    res = Q.composite_gk(lambda x: x**5, np.linspace(0.0, 2.0, 5), 1e-12)
    assert res.value == pytest.approx(64.0 / 6.0, rel=1e-14)
    assert res.evaluations == 4 * 15


def test_composite_gk_bad_edges():
    with pytest.raises(ValueError):
        Q.composite_gk(lambda x: x, [1.0, 0.5], 1e-8)


def test_composite_gk_budget():
    # near-singular integrand with an absurd tolerance: the panel budget
    # runs out, exactly, before the error can meet the target
    budget = Q.COMPOSITE_PANEL_BUDGET
    with pytest.raises(Q.NoConvergence,
                       match=f"budget of {budget} panels exhausted: "
                             f"{budget} panels") as info:
        Q.composite_gk(lambda x: np.abs(x - 1.0 / 3.0) ** -0.9,
                       np.linspace(0.0, 1.0, 3), 1e-14)
    assert math.isfinite(_reported_error(info.value))


def test_composite_gk_non_finite_integrand():
    f = lambda x: np.where(x < 0.3, np.nan, np.exp(-x))
    with pytest.raises(Q.NoConvergence, match="non-finite"):
        Q.composite_gk(f, np.linspace(0.0, 1.0, 5), 1e-8)


# ------------------------------------------------------------ rows kernel

def _gamma_rows(p, a):
    """Rows k^p[r] exp(-a[r] k) with exact integrals p! / a^(p+1)."""
    p, a = np.asarray(p), np.asarray(a, dtype=float)

    def f(rows, k):
        return k ** p[rows] * np.exp(-a[rows] * k)

    exact = [math.factorial(int(pi)) / ai ** (pi + 1) for pi, ai in zip(p, a)]
    return f, exact


def test_integrate_rows_meets_each_row_target():
    f, exact = _gamma_rows([0, 1, 2, 5], [1.0, 3.0, 0.2, 7.0])
    res = Q.integrate_rows(f, 4, 1.0, 1e-10)
    assert not res.failures
    for i, want in enumerate(exact):
        value, err = res.row(i)
        assert value == pytest.approx(want, rel=1e-10)
        # positive rows: Int|f| is the value, so the rounding floor shows
        assert Q.ROUNDING_FLOOR * value <= err <= 1e-10 * value


def test_integrate_rows_refines_only_failing_rows():
    # row 0 is 1 on the mapped variable, exact on the initial panels; row 1
    # decays smoothly; row 2 is a narrow peak at k = 30
    w = 1e-3

    def smooth(rows, k):
        return np.exp(-k)

    def f(rows, k):
        peak = w / ((k - 30.0) ** 2 + w * w)
        return np.where(rows == 0, 1.0 / (1.0 + k) ** 2,
                        np.where(rows == 1, smooth(rows, k), peak))

    res = Q.integrate_rows(f, 3, 1.0, 1e-8)
    alone = Q.integrate_rows(smooth, 1, 1.0, 1e-8)
    assert res.panels[0] == Q.ROW_PANELS
    assert res.row(0)[0] == pytest.approx(1.0, rel=1e-14)
    assert res.panels[1] == alone.panels[0] < 2 * Q.ROW_PANELS
    assert res.row(1)[0] == pytest.approx(alone.row(0)[0], rel=1e-15)
    assert res.panels[2] > 30
    assert res.row(2)[0] == pytest.approx(
        math.pi / 2.0 + math.atan(30.0 / w), rel=1e-8)


def test_integrate_rows_budget_fails_only_its_row():
    w = 1e-9

    def f(rows, k):
        return np.where(rows == 1, w / ((k - 1.0 / 3.0) ** 2 + w * w),
                        np.exp(-k))

    res = Q.integrate_rows(f, 2, 1.0, 1e-12)
    budget = Q.DEFAULT_INTERVAL_BUDGET
    assert list(res.failures) == [1]
    assert res.row(0)[0] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(Q.NoConvergence, match=f"exhausted: {budget} panels"):
        res.row(1)
    assert res.panels[1] == budget


def test_integrate_rows_non_finite_row_fails():
    res = Q.integrate_rows(
        lambda rows, k: np.where(rows == 0, np.nan, np.exp(-k)), 2, 1.0, 1e-8)
    assert list(res.failures) == [0]
    with pytest.raises(Q.NoConvergence, match="non-finite"):
        res.row(0)
    assert res.row(1)[0] == pytest.approx(1.0, rel=1e-8)


def test_integrate_rows_validation():
    with pytest.raises(ValueError):
        Q.integrate_rows(lambda rows, k: k, 1, -1.0, 1e-8)
    with pytest.raises(ValueError):
        Q.integrate_rows(lambda rows, k: k, 1, 1.0, 0.5)


def test_matsubara_sum_ceiling_message_reports_progress():
    ceiling = Q.matsubara_ceiling(1e-4, 300.0)
    with pytest.raises(Q.NoConvergence) as info:
        Q.matsubara_sum(lambda n: 0.99 ** n, 1e-4, 300.0, 1e-10)
    msg = str(info.value)
    assert f"n = {ceiling} of the index ceiling {ceiling}" in msg
    assert "decay ratio 0.99" in msg
    assert "last |term|/|sum|" in msg and "tolerance met" in msg
