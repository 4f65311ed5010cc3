"""Adaptive quadrature, summation and fitting machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_bvl import bvl as B, lifshitz as L, materials as M
from casimir_bvl import quadrature as Q
from casimir_bvl.constants import C, HBAR, K_B


def test_adaptive_gk_exponential():
    val, err, nev = Q.adaptive_gk(lambda x: np.exp(-x), 0.0, 50.0, 1e-10)
    assert val == pytest.approx(1.0, rel=1e-10)
    assert nev >= 15


def test_adaptive_gk_polynomial_is_exact():
    val, _, _ = Q.adaptive_gk(lambda x: x**5, 0.0, 2.0, 1e-12)
    assert val == pytest.approx(64.0 / 6.0, rel=1e-14)


# ------------------------------------------------ one row on seed panels

#: Points adaptive_gk samples in its first call: its seed panels.
SEED_POINTS = Q.GK_SEED_PANELS * Q._XGK.size


def _counting(f):
    """f, and the list of the point counts it is called on."""
    sizes = []

    def g(x):
        sizes.append(np.size(x))
        return f(x)

    return g, sizes


def _captured_calls(monkeypatch, run):
    """(f, a, b, rel_tol) of every adaptive_gk call made by run()."""
    calls = []
    inner = Q.adaptive_gk

    def spy(f, a, b, rel_tol):
        calls.append((f, a, b, rel_tol))
        return inner(f, a, b, rel_tol)

    monkeypatch.setattr(Q, "adaptive_gk", spy)
    run()
    monkeypatch.undo()
    return calls


def _six_kinds():
    src = M.drude(1.37e16, 5.32e13)
    table = [(float(x), float(M.eval_epsilon(src, 1j * x).real))
             for x in np.geomspace(1e12, 1e18, 200)]
    return [M.insulator(3.0), src, M.plasma(1.37e16),
            M.generalized_plasma(1.37e16, (M.Oscillator(2e31, 3e15, 1e14),)),
            M.ideal_metal(), M.tabulated(table, M.Extrapolation.DRUDE_LIKE)]


@pytest.mark.parametrize("model", _six_kinds(), ids=lambda m: m.kind.value)
def test_adaptive_gk_is_the_single_panel_heap_on_n0_integrands(
        monkeypatch, model):
    gaps = np.geomspace(1e-8, 1e-3, 16)

    def run():
        for d in gaps:
            cfg = L.CavityConfig(model, model, float(d), 300.0)
            L.n0_term(cfg, "te")
            L.n0_term(cfg, "tm")

    # TM and ideal-metal TE are closed forms, and plasma-like TE is a row
    # of the Matsubara kernel: no n = 0 term calls adaptive_gk
    assert _captured_calls(monkeypatch, run) == []


@pytest.mark.parametrize("model", _six_kinds(), ids=lambda m: m.kind.value)
def test_adaptive_gk_is_the_single_panel_heap_on_bvl_correlator(
        monkeypatch, model):
    def run():
        for z in (1e-9, 1e-7, 1e-5, 1e-3):
            B.b_correlator_classical(model, B.SlabPoint(z, 2.0 * z))

    calls = _captured_calls(monkeypatch, run)
    # only a plasma-like static r_te needs the integral
    plasma_like = model.kind in (M.Kind.PLASMA, M.Kind.GENERALIZED_PLASMA)
    assert len(calls) == (4 if plasma_like else 0)
    for f, a, b, rel_tol in calls:
        g, sizes = _counting(f)
        assert Q.adaptive_gk(g, a, b, rel_tol)[2] == sum(sizes)
        assert sizes[0] == SEED_POINTS


def test_adaptive_gk_counts_every_point_it_samples():
    # x^5 is exact on every seed panel: one call on the seed panels, and
    # no bisection
    g, sizes = _counting(lambda x: x**5)
    assert Q.adaptive_gk(g, 0.0, 2.0, 1e-12)[2] == SEED_POINTS == sum(sizes)
    # cos(200 x) bisects the seed panels: each later round samples the two
    # halves of every panel it bisects
    g, sizes = _counting(lambda x: np.cos(200.0 * x))
    val, _, nev = Q.adaptive_gk(g, 0.0, 1.0, 1e-10)
    assert val == pytest.approx(math.sin(200.0) / 200.0, rel=1e-10)
    assert len(sizes) > 1 and sizes[0] == SEED_POINTS
    assert all(n % (2 * Q._XGK.size) == 0 for n in sizes[1:])
    assert nev == sum(sizes)


def test_adaptive_gk_is_composite_gk_on_cached_seed_panels():
    # the seed panels of [a, b] are built once and shared read-only; every
    # call gives the bits of composite_gk on the same edges
    def f(x):
        return np.cos(200.0 * x)

    for a, b in ((0.0, 1.0), (0, 1), (-2.0, 3.0)):
        edges = np.linspace(a, b, Q.GK_SEED_PANELS + 1)
        want = Q.composite_gk(f, edges, 1e-10)
        for _ in range(2):
            assert Q.adaptive_gk(f, a, b, 1e-10) == (
                want.value, want.error_estimate, want.evaluations)
    assert not any(arr.flags.writeable for arr in Q._gk_seeds(0.0, 1.0))


def _reported_error(exc):
    """The error estimate a NoConvergence message reports."""
    return float(str(exc).split("error ")[1].split()[0].rstrip(","))


def test_adaptive_gk_budget_exhaustion():
    # some 16000 oscillations need far more than the default budget of
    # panels; the integrand stays finite, and so does the error
    budget = Q.DEFAULT_INTERVAL_BUDGET
    with pytest.raises(Q.NoConvergence,
                       match=f"budget of {budget} panels exhausted: "
                             f"{budget} panels") as info:
        Q.adaptive_gk(lambda x: np.cos(1e5 * x), 0.0, 1.0, 1e-10)
    assert math.isfinite(_reported_error(info.value))


def test_adaptive_gk_non_finite_integrand_stops_at_once():
    # 1/32 is the midpoint node of the first seed panel of [0, 1]
    calls = []

    def f(x):
        calls.append(x.size)
        with np.errstate(divide="ignore"):
            return abs(x - 1.0 / 32.0) ** -0.9

    with np.errstate(invalid="ignore"), pytest.raises(
            Q.NoConvergence, match=r"non-finite integrand: \d+ panels"):
        Q.adaptive_gk(f, 0.0, 1.0, 1e-14)
    assert calls == [SEED_POINTS]


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
    for scale in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale"):
            Q.integrate_semi_infinite(lambda k: k, scale, 1e-8)
    with pytest.raises(ValueError):
        Q.integrate_semi_infinite(lambda k: k, 1.0, math.nan)
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


def test_power_law_slopes_exact():
    xs = np.geomspace(0.1, 10.0, 9)
    slopes, dx, dy = Q.power_law_slopes(xs, np.array([xs**2, 5.0 * xs]))
    assert slopes == pytest.approx([2.0, 1.0], abs=1e-10)
    # exact power laws leave no residual about the fitted line
    assert np.abs(dy - slopes[:, None] * dx).max() <= 1e-12


def test_power_law_slopes_perturbed():
    xs = np.geomspace(0.01, 100.0, 25)
    ys = xs**2 * (1.0 + 0.01 * np.sin(np.log(xs)))
    (slope,), _, _ = Q.power_law_slopes(xs, ys[None])
    assert 1.9 <= slope <= 2.1


def test_power_law_slopes_guards():
    with pytest.raises(Q.DegenerateSweep):
        Q.power_law_slopes(np.full(3, 2.0), np.array([[1.0, 4.0, 9.0]]))
    with pytest.raises(Q.NonPositiveData):
        Q.power_law_slopes(np.array([1.0, 2.0, 3.0]),
                           np.array([[1.0, -4.0, 9.0]]))
    with pytest.raises(Q.NonPositiveData):
        Q.power_law_slopes(np.array([0.0, 2.0, 3.0]),
                           np.array([[1.0, 4.0, 9.0]]))


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
    for edges in ([1.0, 0.5], [1.0], [0.0, 1.0, 1.0], [0.0, math.nan],
                  [math.nan, 1.0], [0.0, 0.5, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="edges"):
            Q.composite_gk(lambda x: x, edges, 1e-8)
    # adaptive_gk's seed panels of [a, b] go through the same check
    for a, b in ((1.0, 0.5), (1.0, 1.0), (0.0, math.nan), (-math.inf, 0.0),
                 (0.0, math.inf)) * 2:     # a second call is no cache hit
        with pytest.raises(ValueError, match="edges"):
            Q.adaptive_gk(lambda x: x, a, b, 1e-8)


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


# ------------------------------------------------- components on one row

W0 = 0.37


def _decay(x):
    return np.exp(-x / W0)


def _plateau(x):
    return 1.0 / (1.0 + x)


def _both(x):
    """The components (_decay, _plateau) stacked, shape (2, N) or (2,)."""
    return np.array([_decay(x), _plateau(x)])


def test_composite_gk_components_match_one_component_runs():
    edges = np.linspace(0.0, 10.0, 5)
    res = Q.composite_gk(_both, edges, 1e-10)
    assert res.value.shape == res.error_estimate.shape == (2,)
    for p, f in enumerate((_decay, _plateau)):
        alone = Q.composite_gk(f, edges, 1e-10)
        assert isinstance(alone.value, float)
        assert isinstance(alone.error_estimate, float)
        assert abs(res.value[p] - alone.value) <= (res.error_estimate[p]
                                                   + alone.error_estimate)
    assert res.value == pytest.approx(
        [W0 * (1.0 - math.exp(-10.0 / W0)), math.log(11.0)], rel=1e-10)


def test_composite_gk_raises_the_first_failed_component():
    def f(x):
        with np.errstate(divide="ignore"):
            return np.array([np.exp(-x), np.where(x < 0.3, np.nan, x),
                             abs(x - 1.0 / 3.0) ** -0.9])

    with np.errstate(invalid="ignore"), pytest.raises(
            Q.NoConvergence, match="non-finite integrand"):
        Q.composite_gk(f, np.linspace(0.0, 1.0, 3), 1e-14)


def _first_edges(monkeypatch, g, omega_cap, rel_tol):
    """(integrate_real_frequency result, lower edge of its panels)."""
    edges = []
    inner = Q.composite_gk

    def spy(f, e, *args):
        edges.append(e[0])
        return inner(f, e, *args)

    monkeypatch.setattr(Q, "composite_gk", spy)
    res = Q.integrate_real_frequency(g, omega_cap, rel_tol)
    monkeypatch.undo()
    return res, edges[0]


def test_integrate_real_frequency_components_wait_for_every_plateau(
        monkeypatch):
    cap, tol = 40.0, 1e-8
    res, lowest = _first_edges(monkeypatch, _both, cap, tol)
    assert res.value.shape == res.error_estimate.shape == (2,)
    edges = []
    for p, f in enumerate((_decay, _plateau)):
        alone, edge = _first_edges(monkeypatch, lambda w: float(f(w)), cap,
                                   tol)
        edges.append(edge)
        assert isinstance(alone.value, float)
        assert abs(res.value[p] - alone.value) <= (res.error_estimate[p]
                                                   + alone.error_estimate)
    # the components settle at different omega_min, and the pair at the
    # smaller one
    assert edges[0] != edges[1] and lowest == min(edges)
    assert res.value == pytest.approx(
        [W0 * (1.0 - math.exp(-cap / W0)), math.log(1.0 + cap)], rel=1e-7)


@pytest.mark.parametrize("g", [_plateau, _both])
def test_integrate_real_frequency_samples_each_omega_once(g):
    probed = []

    def spy(w):
        probed.append(w)
        return g(w)

    res = Q.integrate_real_frequency(spy, 40.0, 1e-8)
    # the plateau search halved omega_min from 40/16 some 28 times, and
    # each halving sampled only the new omega_min
    assert min(probed) < 40.0 / 16.0 / 2.0 ** 20
    assert len(set(probed)) == len(probed) == res.evaluations


def test_integrate_real_frequency_failing_component_raises():
    def g(w):
        return np.array([math.exp(-w),
                         math.nan if 0.4 < w < 0.5 else math.exp(-w)])

    with pytest.raises(Q.NoConvergence, match="non-finite"):
        Q.integrate_real_frequency(g, 1.0, 1e-6)


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
        value, err = res.values[i], res.errors[i]
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
    assert not res.failures and not alone.failures
    assert res.panels[0] == Q.ROW_PANELS
    assert res.values[0] == pytest.approx(1.0, rel=1e-14)
    assert res.panels[1] == alone.panels[0] < 2 * Q.ROW_PANELS
    assert res.values[1] == pytest.approx(alone.values[0], rel=1e-15)
    assert res.panels[2] > 30
    assert res.values[2] == pytest.approx(
        math.pi / 2.0 + math.atan(30.0 / w), rel=1e-8)


def test_integrate_rows_grades_rows_toward_their_knees():
    # row i is kappa_i/(k + kappa_i)^2, of integral 1, which turns at
    # k = kappa_i; seeded toward kappa_i, each meets its target in one
    # round, where equal seed panels take several; a row without a knee
    # keeps its equal seed panels and their bits
    kappa = np.array([1e-4, 3e-3, 0.1, 1.0])
    samples = []

    def f(rows, k):
        samples.append(k.shape[0])
        return kappa[rows] / (k + kappa[rows]) ** 2

    knees = np.where(kappa < 1.0, kappa, 0.0)
    res = Q.integrate_rows(f, 4, 1.0, 1e-8, knees)
    assert len(samples) == 1 and not res.failures
    equal = Q.integrate_rows(f, 4, 1.0, 1e-8)
    assert len(samples) > 3
    assert np.all(res.panels % Q.ROW_PANELS == 0)
    assert list(res.panels > Q.ROW_PANELS) == [True, True, True, False]
    assert res.values == pytest.approx(np.ones(4), rel=1e-8)
    alone = Q.integrate_rows(f, 4, 1.0, 1e-8, np.zeros(4))
    for got, want in ((res.values[3], equal.values[3]),
                      (res.errors[3], equal.errors[3]),
                      (alone.values, equal.values)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("halvings", [(), (0, 5, 3)])
def test_row_seeds_are_views_of_one_table(halvings):
    capacity = 64
    tables, ends, _ = Q._row_seed_table(halvings, capacity)
    whole = tables[0] + tables[1]
    for n_rows in range(1, capacity + 1):
        seeds, seed_map = Q._row_seeds(halvings + (0, 0), n_rows)
        assert Q._row_seeds(halvings, n_rows)[0] is seeds
        assert seeds[0].size == ends[n_rows - 1]
        assert seeds[0][-1] == n_rows - 1
        for view, table in zip(seeds + seed_map, whole):
            assert not view.flags.writeable
            assert np.shares_memory(view, table)
            assert np.array_equal(view, table[:view.shape[0]])


def test_zero_halving_row_is_an_equal_row():
    (rows, lo, hi, x, h), (ratio, jac) = Q._row_seeds((0, 6, 0, 9), 5)
    equal = Q._row_seeds((), 5)
    edges = np.linspace(0.0, 1.0, Q.ROW_PANELS + 1)
    assert np.array_equal(equal[0][1][:Q.ROW_PANELS], edges[:-1])
    assert np.array_equal(equal[0][2][:Q.ROW_PANELS], edges[1:])
    for i in (0, 2, 4):
        for got, want in zip((lo, hi, x, h, ratio, jac),
                             equal[0][1:] + equal[1]):
            assert np.array_equal(got[rows == i], want[equal[0][0] == i])
    counts = np.bincount(rows)
    assert list(counts) == [4, 12, 4, 16, 4]


def test_seed_table_cache_stays_bounded():
    Q._row_seed_table.cache_clear()
    maxsize = Q._row_seed_table.cache_info().maxsize
    for j in range(maxsize + 4):
        # a knee halved j times more: one more halving of the first panel
        res = Q.integrate_rows(lambda rows, k: np.exp(-k), 2, 1.0, 1e-8,
                               [1e-3 * 2.0 ** -j])
        assert not res.failures
        assert res.values == pytest.approx([1.0, 1.0], rel=1e-8)
    info = Q._row_seed_table.cache_info()
    assert info.misses == maxsize + 4
    assert info.currsize == maxsize


def test_integrate_rows_budget_fails_only_its_row():
    w = 1e-9

    def f(rows, k):
        return np.where(rows == 1, w / ((k - 1.0 / 3.0) ** 2 + w * w),
                        np.exp(-k))

    res = Q.integrate_rows(f, 2, 1.0, 1e-12)
    budget = Q.DEFAULT_INTERVAL_BUDGET
    assert list(res.failures) == [1]
    assert res.values[0] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(Q.NoConvergence, match=f"exhausted: {budget} panels"):
        raise res.failures[1]
    assert res.panels[1] == budget


def test_integrate_rows_non_finite_row_fails():
    res = Q.integrate_rows(
        lambda rows, k: np.where(rows == 0, np.nan, np.exp(-k)), 2, 1.0, 1e-8)
    assert list(res.failures) == [0]
    with pytest.raises(Q.NoConvergence, match="non-finite"):
        raise res.failures[0]
    assert res.values[1] == pytest.approx(1.0, rel=1e-8)


def _components(*fs):
    """Integrand of integrate_rows stacking one component per f."""
    return lambda rows, k: np.stack([f(rows, k) for f in fs])


def test_integrate_rows_components_on_seed_panels_are_one_component_runs():
    f, _ = _gamma_rows([0, 1, 0, 1], [1.0, 1.5, 2.0, 3.0])

    def g(rows, k):
        return np.exp(-(1.0 + rows) * k) / (1.0 + k)

    res = Q.integrate_rows(_components(f, g), 4, 2.0, 1e-6)
    alone = [Q.integrate_rows(h, 4, 2.0, 1e-6) for h in (f, g)]
    assert np.all(res.panels == Q.ROW_PANELS) and not res.failures
    for got, want in ((res.values, "values"), (res.errors, "errors"),
                      (res.panels, "panels")):
        assert np.array_equal(
            got, np.concatenate([getattr(a, want) for a in alone]))


def test_integrate_rows_refines_a_row_for_one_missing_component():
    # component 1 of row 1 is a narrow peak at k = 30; every other
    # component is smooth and meets its target on the seed panels
    w, rel_tol = 1e-3, 1e-8

    def smooth(rows, k):
        return 1.5 * np.exp(-1.5 * k)

    def peaked(rows, k):
        return np.where(rows == 1, w / ((k - 30.0) ** 2 + w * w),
                        smooth(rows, k))

    res = Q.integrate_rows(_components(smooth, peaked), 3, 2.0, rel_tol)
    alone = Q.integrate_rows(peaked, 3, 2.0, rel_tol)
    assert not res.failures
    assert list(res.panels) == 2 * [Q.ROW_PANELS, alone.panels[1],
                                     Q.ROW_PANELS]
    assert alone.panels[1] > 30
    # the smooth component rode along on the peak's panels and kept its
    # accuracy; no other row changed
    assert res.values[1] == pytest.approx(1.0, rel=rel_tol)
    assert res.errors[1] <= (rel_tol + Q.ROUNDING_FLOOR) * res.values[1]
    assert res.values[4] == pytest.approx(alone.values[1], rel=1e-12)
    for j in (0, 2, 3, 5):
        assert res.values[j] == pytest.approx(1.0, rel=1e-8)


def test_integrate_rows_component_failures_keep_their_keys(monkeypatch):
    def smooth(rows, k):
        return 1.0 / (1.0 + k) ** 2

    def nan_row_1(rows, k):
        return np.where(rows == 1, np.nan, smooth(rows, k))

    res = Q.integrate_rows(_components(smooth, nan_row_1), 3, 1.0, 1e-8)
    assert list(res.failures) == [3 + 1]
    with pytest.raises(Q.NoConvergence, match="non-finite"):
        raise res.failures[4]
    assert np.all(res.panels == Q.ROW_PANELS)
    for j in (0, 1, 2, 3, 5):
        assert res.values[j] == pytest.approx(1.0, rel=1e-8)

    # row 2's component 0 needs more panels than the budget allows
    budget, w = 40, 1e-9
    monkeypatch.setattr(Q, "DEFAULT_INTERVAL_BUDGET", budget)

    def peak_row_2(rows, k):
        return np.where(rows == 2, w / ((k - 1.0 / 3.0) ** 2 + w * w),
                        smooth(rows, k))

    res = Q.integrate_rows(_components(peak_row_2, smooth), 3, 1.0, 1e-12)
    assert list(res.failures) == [0 * 3 + 2]
    with pytest.raises(Q.NoConvergence, match=f"exhausted: {budget} panels"):
        raise res.failures[2]
    assert list(res.panels) == 2 * [Q.ROW_PANELS, Q.ROW_PANELS, budget]
    for j in (0, 1, 3, 4):
        assert res.values[j] == pytest.approx(1.0, rel=1e-12)


def test_integrate_rows_budget_keeps_the_missing_components_largest_errors(
        monkeypatch):
    # row 0 carries a narrow peak at k = 30 in component 0, row 1 in
    # component 1; the other component of each row meets its target on the
    # seed panels.  Under a budget below the peak's need, a round that wants
    # more panels than the row has room for keeps those with the largest
    # errors of the peak's component, so each row's peak ends on the panels
    # of the one-component run of the peak under the same budget.
    w, rel_tol = 1e-3, 1e-8

    def smooth(rows, k):
        return 1.5 * np.exp(-1.5 * k)

    def peak(rows, k):
        return w / ((k - 30.0) ** 2 + w * w)

    def first(rows, k):
        return np.where(rows == 0, peak(rows, k), smooth(rows, k))

    def second(rows, k):
        return np.where(rows == 1, peak(rows, k), smooth(rows, k))

    need = Q.integrate_rows(peak, 1, 1.0, rel_tol).panels[0]
    assert need > 32
    for budget in range(32, need):
        monkeypatch.setattr(Q, "DEFAULT_INTERVAL_BUDGET", budget)
        res = Q.integrate_rows(_components(first, second), 2, 1.0, rel_tol)
        alone = Q.integrate_rows(peak, 1, 1.0, rel_tol)
        assert sorted(res.failures) == ([0, 3] if alone.failures else [])
        assert list(res.panels) == [alone.panels[0]] * 4
        for j in (0, 3):        # component 0 of row 0, component 1 of row 1
            assert res.values[j] == pytest.approx(alone.values[0], rel=1e-12)
            assert res.errors[j] == pytest.approx(alone.errors[0], rel=1e-9)
        for j in (1, 2):
            assert res.values[j] == pytest.approx(1.0, rel=rel_tol)


def test_integrate_rows_validation():
    for scale in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale"):
            Q.integrate_rows(lambda rows, k: k, 1, scale, 1e-8)
    with pytest.raises(ValueError):
        Q.integrate_rows(lambda rows, k: k, 1, 1.0, 0.5)
    # more knees than rows, zero or not, and knees not finite and >= 0
    for knees in ([0.01, 0.0, 0.0], [0.0, 0.0, 0.0], [0.01, 0.02, 0.03],
                  [math.inf], [math.nan], [0.01, -0.1]):
        with pytest.raises(ValueError, match="knees"):
            Q.integrate_rows(lambda rows, k: np.exp(-k), 2, 1.0, 1e-8, knees)


def test_matsubara_sum_ceiling_message_reports_progress():
    ceiling = Q.matsubara_ceiling(1e-4, 300.0)
    with pytest.raises(Q.NoConvergence) as info:
        Q.matsubara_sum(lambda n: 0.99 ** n, 1e-4, 300.0, 1e-10)
    msg = str(info.value)
    assert f"n = {ceiling} of the index ceiling {ceiling}" in msg
    assert "decay ratio 0.99" in msg
    assert "last |term|/|sum|" in msg and "tolerance met" in msg
