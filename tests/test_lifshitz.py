"""Cavity pressure routes: Matsubara production path and stress split."""

import math

import numpy as np
import pytest

from casimir_bvl import fresnel, lifshitz as L, materials as M, quadrature as Q
from casimir_bvl.constants import C, HBAR, K_B

ZETA3 = 1.2020569031595943


def ideal_pressure_series(d, T):
    """Independent double-series evaluation of the ideal-metal pressure.

    Expands the round-trip bracket into exp(-2 m q d) terms; each k-integral
    is then elementary after substituting q for k.  The n = 0 term sums to
    zeta(3) analytically; for n >= 1 the exponential prefactor truncates the
    m series after a few dozen terms.
    """
    xi1 = 2.0 * math.pi * K_B * T / HBAR
    total = 2.0 / (8.0 * d**3) * ZETA3          # half-weighted n=0, both pols
    n = 1
    while True:
        a = n * xi1 / C
        s = 0.0
        for m in range(1, 400):
            b = 2.0 * m * d
            term = math.exp(-b * a) * (a * a / b + 2.0 * a / b**2 + 2.0 / b**3)
            s += term
            if term < 1e-18 * s:
                break
        contrib = 2.0 * s
        total += contrib
        if contrib < 1e-14 * total:
            break
        n += 1
    return -(K_B * T / math.pi) * total


# ---------------------------------------------------------------- config

def test_config_bounds():
    ideal = M.ideal_metal()
    with pytest.raises(ValueError):
        L.CavityConfig(ideal, ideal, 1e-10, 300.0)
    with pytest.raises(ValueError):
        L.CavityConfig(ideal, ideal, 1e-2, 300.0)
    with pytest.raises(ValueError):
        L.CavityConfig(ideal, ideal, 1e-6, 0.0)
    with pytest.raises(ValueError):
        L.CavityConfig(ideal, ideal, 1e-6, 2e4)
    for rel_tol in (0.0, -1.0, 1.0, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rel_tol"):
            L.CavityConfig(ideal, ideal, 1e-6, 300.0, rel_tol=rel_tol)


def test_config_tiny_rel_tol_reaches_the_sum():
    # the smallest positive float is a valid tolerance the sum cannot meet
    ideal = M.ideal_metal()
    cfg = L.CavityConfig(ideal, ideal, 1e-6, 300.0, rel_tol=5e-324)
    with pytest.raises(Q.NoConvergence):
        L.pressure_matsubara(cfg)


# ------------------------------------------------------------- matsubara

def test_vacuum_gives_zero_pressure():
    vac = M.insulator(1.0)
    res = L.pressure_matsubara(L.CavityConfig(vac, vac, 1e-6, 300.0))
    assert res.pressure == 0.0


def test_ideal_metal_against_independent_series():
    ideal = M.ideal_metal()
    for d, T in ((1e-6, 300.0), (2e-6, 77.0)):
        res = L.pressure_matsubara(L.CavityConfig(ideal, ideal, d, T))
        assert res.pressure == pytest.approx(ideal_pressure_series(d, T),
                                             rel=1e-7)


@pytest.mark.parametrize("d, T", [
    # without the n = 0 integrals' error estimates the estimate misses the
    # series at 9.16 um, 300 K; without them and the rounding floors it
    # missed by 7.9 times at 3.72 um, 77 K
    (1e-6, 300.0), (9.16e-6, 300.0), (3.7222701713006957e-06, 77.0),
    # rows integrated over u = q - xi/c report smaller estimates than over
    # k_perp (a median 0.56 of them); they must still cover the error
    *((float(d), 300.0) for d in np.geomspace(5e-7, 1e-5, 12)),
    *((float(d), 77.0) for d in np.geomspace(2e-6, 1e-5, 8)),
    # long sums: the geometric tail bound is nearly all the estimate, and
    # the true error is 0.975-0.978 of it
    (1e-6, 5.0), (1e-6, 10.0), (1.5e-6, 7.0), (2e-6, 5.0), (2e-6, 10.0)])
def test_ideal_metal_series_within_error_estimate(d, T):
    ideal = M.ideal_metal()
    # at 10 K and below, 1e-9 needs more terms than the index ceiling
    rel_tol = 2e-3 if T <= 10.0 else 1e-9
    res = L.pressure_matsubara(L.CavityConfig(ideal, ideal, d, T, rel_tol))
    assert abs(res.pressure - ideal_pressure_series(d, T)) \
        <= res.error_estimate


def test_n0_closed_form_ideal():
    ideal = M.ideal_metal()
    cfg = L.CavityConfig(ideal, ideal, 1e-6, 300.0)
    want = -K_B * 300.0 * ZETA3 / (8.0 * math.pi * 1e-18)
    for pol in ("te", "tm"):     # the closed form, to a few ulp
        assert abs(L.n0_term(cfg, pol) - want) <= 4 * math.ulp(want)


def test_n0_te_vanishes_for_finite_and_drude_classes():
    d, T = 1e-6, 300.0
    for m in (M.insulator(3.0), M.drude(1.37e16, 5.32e13)):
        cfg = L.CavityConfig(m, m, d, T)
        assert L.n0_term(cfg, "te") == 0.0
        assert L.n0_term(cfg, "tm") < 0.0


def test_n0_term_polarization_is_te_or_tm():
    pl = M.plasma(1.37e16)
    cfg = L.CavityConfig(pl, pl, 1e-6, 300.0)
    assert L.n0_term(cfg, "TE") == L.n0_term(cfg, "te") < 0.0
    assert L.n0_term(cfg, "Tm") == L.n0_term(cfg, "tm") < 0.0
    # the whole word, in any case: not a suffix, not padded
    for bad in ("note", "x", "", " te", "tetm", None):
        with pytest.raises(ValueError, match="polarization"):
            L.n0_term(cfg, bad)


def test_classical_transverse_equals_n0_te():
    pl = M.plasma(1.37e16)
    cfg = L.CavityConfig(pl, pl, 1e-6, 300.0)
    assert L.classical_transverse_pressure(cfg) == L.n0_term(cfg, "te")


def test_pressure_equals_sum_of_breakdown():
    dr = M.drude(1.37e16, 5.32e13)
    cfg = L.CavityConfig(dr, dr, 1e-6, 300.0)
    res = L.pressure_matsubara(cfg)
    resummed = sum(te + tm for _, te, tm in res.per_n)
    assert resummed == pytest.approx(res.pressure, abs=2.0 * res.error_estimate
                                     + 1e-12 * abs(res.pressure))
    assert res.per_n[0][1] == res.n0_te
    assert res.per_n[0][2] == res.n0_tm
    assert res.n0_te == 0.0


def test_like_materials_attract():
    models = [M.insulator(3.0), M.drude(1.37e16, 5.32e13),
              M.plasma(1.37e16), M.ideal_metal()]
    for m in models:
        res = L.pressure_matsubara(L.CavityConfig(m, m, 1e-6, 300.0))
        assert res.pressure < 0.0


def test_real_materials_bounded_by_ideal():
    ideal = L.pressure_matsubara(
        L.CavityConfig(M.ideal_metal(), M.ideal_metal(), 1e-6, 300.0))
    for m in (M.plasma(1.37e16), M.drude(1.37e16, 5.32e13)):
        res = L.pressure_matsubara(L.CavityConfig(m, m, 1e-6, 300.0))
        assert ideal.pressure < res.pressure < 0.0


def test_low_temperature_distance_scaling():
    # near T = 0 the ideal-metal pressure follows d^-4
    ideal = M.ideal_metal()
    vals = []
    for d in (5e-7, 1e-6, 2e-6):
        cfg = L.CavityConfig(ideal, ideal, d, 1.0, rel_tol=2e-3)
        vals.append(L.pressure_matsubara(cfg).pressure * d**4)
    assert vals[0] == pytest.approx(vals[1], rel=2e-2)
    assert vals[1] == pytest.approx(vals[2], rel=2e-2)


def _drude_table():
    src = M.drude(1.37e16, 5.32e13)
    table = [(float(x), float(M.eval_epsilon(src, 1j * x).real))
             for x in np.geomspace(1e12, 1e18, 200)]
    return M.tabulated(table, M.Extrapolation.DRUDE_LIKE)


def _scalar_row(cfg, n, pol):
    """One Matsubara row from a scalar k_perp integral, as summed, Pa."""
    xi = n * 2.0 * math.pi * K_B * cfg.T / HBAR
    eps1, eps2 = (fresnel.epsilon(m, 1j * xi)
                  for m in (cfg.material_1, cfg.material_2))

    def f(k):
        q = np.sqrt(k * k + (xi / C) ** 2)
        r1 = fresnel.imag_axis_coefficients(eps1, xi, q)[pol]
        r2 = fresnel.imag_axis_coefficients(eps2, xi, q)[pol]
        y = r1 * r2 * np.exp(-2.0 * q * cfg.d)
        return k * q * y / (1.0 - y)

    res = Q.integrate_semi_infinite(f, 0.5 / cfg.d, L.KPERP_REL_TOL)
    return -K_B * cfg.T / math.pi * res.value


@pytest.mark.parametrize("pair", [
    ("drude", "drude"), ("plasma", "plasma"), ("table", "table"),
    ("ideal", "ideal"), ("insulator", "drude")])
def test_batched_rows_match_scalar_integrals(pair):
    models = {"drude": M.drude(1.37e16, 5.32e13), "plasma": M.plasma(1.37e16),
              "table": _drude_table(), "ideal": M.ideal_metal(),
              "insulator": M.insulator(3.0)}
    cfg = L.CavityConfig(models[pair[0]], models[pair[1]], 1e-6, 300.0)
    res = L.pressure_matsubara(cfg)
    assert [n for n, _, _ in res.per_n] == list(range(res.n_max + 1))
    for n, te, tm in res.per_n[1:]:
        assert te == pytest.approx(_scalar_row(cfg, n, 0), rel=1e-8)
        assert tm == pytest.approx(_scalar_row(cfg, n, 1), rel=1e-8)


def _one_polarization_rows(m1, m2, d, xi, pol):
    """integrate_rows of one polarization of the Matsubara rows at xi."""
    eps1, eps2 = (fresnel.epsilon(m, 1j * xi) for m in (m1, m2))

    def f(rows, u):
        x = xi[rows]
        q = u + x / C
        r1, r2 = (fresnel.imag_axis_coefficients(
            None if eps is None else eps[rows], x, q)[pol]
            for eps in (eps1, eps2))
        return q * q * L._round_trip(r1, r2, np.exp((-2.0 * d) * q))

    return Q.integrate_rows(f, xi.size, L.ROW_SCALE / d, L.KPERP_REL_TOL)


@pytest.mark.parametrize("pair", [
    ("insulator", "insulator"), ("drude", "drude"), ("plasma", "plasma"),
    ("gplasma", "gplasma"), ("ideal", "ideal"), ("table", "table"),
    ("ideal", "drude"), ("insulator", "table")], ids="/".join)
@pytest.mark.parametrize("d, T", [(1e-6, 300.0), (5e-6, 77.0)])
def test_matsubara_rows_are_one_polarization_runs(pair, d, T):
    # TE and TM share each row's panels; each block equals, bit for bit,
    # a run of its polarization alone
    models = {"insulator": M.insulator(3.0),
              "drude": M.drude(1.37e16, 5.32e13), "plasma": M.plasma(1.37e16),
              "gplasma": M.generalized_plasma(
                  1.37e16, (M.Oscillator(2e31, 3e15, 1e14),)),
              "ideal": M.ideal_metal(), "table": _drude_table()}
    m1, m2 = models[pair[0]], models[pair[1]]
    xi = np.arange(1, L.ROWS_PER_PASS + 1) * (2.0 * math.pi * K_B * T / HBAR)
    res = L._matsubara_rows(m1, m2, d, xi)
    n = xi.size
    for pol in (0, 1):
        alone = _one_polarization_rows(m1, m2, d, xi, pol)
        block = slice(pol * n, (pol + 1) * n)
        assert np.array_equal(res.values[block], alone.values)
        assert np.array_equal(res.errors[block], alone.errors)
        assert np.array_equal(res.panels[block], alone.panels)
        assert not res.failures and not alone.failures


def _inject_failures(monkeypatch, cfg, fails):
    """Make the k_perp rows of the indices n with fails(n) fail; returns
    the list of indices the kernel computed."""
    xi1 = 2.0 * math.pi * K_B * cfg.T / HBAR
    seen = []
    original = L._matsubara_rows

    def rows(m1, m2, d, xi):
        res = original(m1, m2, d, xi)
        for i, n in enumerate(np.rint(xi / xi1).astype(int)):
            seen.append(n)
            if fails(n):
                res.failures[i] = Q.NoConvergence("injected")
        return res

    monkeypatch.setattr(L, "_matsubara_rows", rows)
    return seen


def _count_row_passes(monkeypatch):
    """Record the index count of every integrate_rows call."""
    passes = []
    original = Q.integrate_rows

    def counted(f, n_rows, scale, rel_tol, knees=()):
        passes.append(n_rows)       # one row per index, TE and TM
        return original(f, n_rows, scale, rel_tol, knees)

    monkeypatch.setattr(Q, "integrate_rows", counted)
    return passes


def _count_samples(monkeypatch):
    """Record (indices, integrand samples, panels) of every integrate_rows
    call; one sample is one refinement round."""
    calls = []
    original = Q.integrate_rows

    def counted(f, n_rows, scale, rel_tol, knees=()):
        samples = [0]

        def g(rows, u):
            samples[0] += 1
            return f(rows, u)

        res = original(g, n_rows, scale, rel_tol, knees)
        calls.append((n_rows, samples[0], res.panels))
        return res

    monkeypatch.setattr(Q, "integrate_rows", counted)
    return calls


def test_chunk_schedule_follows_predicted_index_count(monkeypatch):
    # the first chunk covers the predicted count, so a 300 K pressure takes
    # one pass and computes few rows past n_max
    dr = M.drude(1.37e16, 5.32e13)
    passes = _count_row_passes(monkeypatch)
    res = L.pressure_matsubara(L.CavityConfig(dr, dr, 1e-6, 300.0))
    assert len(passes) == 1
    assert res.n_max <= sum(passes) <= res.n_max + 8
    # a long sum takes a first chunk of ROWS_PER_PASS indices, then one
    # chunk sized from the decay of its terms, which ends a few indices
    # past n_max
    ideal = M.ideal_metal()
    passes.clear()
    res = L.pressure_matsubara(
        L.CavityConfig(ideal, ideal, 1.5e-6, 5.0, rel_tol=2e-3))
    assert len(passes) == 2 and passes[0] == L.ROWS_PER_PASS
    assert res.n_max <= sum(passes) <= res.n_max + max(8, res.n_max // 10)


@pytest.mark.parametrize("pair", [
    ("insulator", "insulator"), ("drude", "drude"), ("plasma", "plasma"),
    ("gplasma", "gplasma"), ("ideal", "ideal"), ("table", "table"),
    ("drude", "plasma"), ("insulator", "ideal"), ("table", "drude")],
    ids="/".join)
@pytest.mark.parametrize("d, T", [
    (5e-7, 300.0), (1e-6, 300.0), (1e-5, 300.0), (2e-6, 77.0),
    (5e-6, 77.0)])
def test_matsubara_rows_converge_on_seed_panels(monkeypatch, pair, d, T):
    # every row shares the envelope exp(-2 u d) at mapping scale
    # ROW_SCALE/d, so each integrate_rows call meets all its targets on the
    # seed panels and samples the integrand once; at 0.5 um, 300 K the
    # first chunk holds the most rows of a one-chunk sum
    models = {"insulator": M.insulator(3.0),
              "drude": M.drude(1.37e16, 5.32e13), "plasma": M.plasma(1.37e16),
              "gplasma": M.generalized_plasma(
                  1.37e16, (M.Oscillator(2e31, 3e15, 1e14),)),
              "ideal": M.ideal_metal(), "table": _drude_table()}
    calls = _count_samples(monkeypatch)
    L.pressure_matsubara(
        L.CavityConfig(models[pair[0]], models[pair[1]], d, T))
    assert calls
    for indices, samples, panels in calls:
        assert samples == 1
        assert panels.shape == (2 * indices,)     # TE, then TM, per index
        assert np.all(panels == Q.ROW_PANELS)


#: The nine material pairs of the benchmark's matsubara-grid workload.
GRID_PAIRS = [("insulator", "insulator"), ("drude", "drude"),
              ("plasma", "plasma"), ("gplasma", "gplasma"), ("ideal", "ideal"),
              ("table", "table"), ("drude", "plasma"), ("insulator", "ideal"),
              ("table", "drude")]


@pytest.mark.parametrize("pair", GRID_PAIRS, ids="/".join)
def test_rows_do_not_depend_on_the_chunking(pair):
    # a long sum's rows, its graded low rows and the xi = 0 row included,
    # have the same bits in one call as in uneven pieces, so the chunk
    # schedule moves no result
    m1, m2 = (_static_models()[name] for name in pair)
    d, T = 1.03e-6, 7.2
    start = 0 if L._static_te_row(m1, m2) else 1
    xi = np.arange(start, 241) * (2.0 * math.pi * K_B * T / HBAR)
    whole = L._matsubara_rows(m1, m2, d, xi)
    cuts = [0, 49 - start, 97 - start, 180 - start, xi.size]
    pieces = [L._matsubara_rows(m1, m2, d, xi[a:b])
              for a, b in zip(cuts, cuts[1:])]
    assert not whole.failures
    if pair != ("ideal", "ideal"):
        assert whole.panels.max() > Q.ROW_PANELS     # graded low rows
    for field in ("values", "errors", "panels"):
        want = np.concatenate([getattr(p, field).reshape(2, -1)
                               for p in pieces], axis=1)
        assert np.array_equal(getattr(whole, field).reshape(2, -1), want)


@pytest.mark.parametrize("pair", GRID_PAIRS, ids="/".join)
@pytest.mark.parametrize("d, T", [(1e-6, 5.0), (2e-6, 10.0)])
def test_long_sum_is_two_one_round_passes(monkeypatch, pair, d, T):
    # the first chunk's graded low rows meet their targets on their seed
    # panels, and the second chunk, sized from the decay of the terms,
    # reaches n_max and ends a few indices past it
    m1, m2 = (_static_models()[name] for name in pair)
    calls = _count_samples(monkeypatch)
    res = L.pressure_matsubara(L.CavityConfig(m1, m2, d, T, rel_tol=2e-3))
    assert len(calls) == 2 and calls[0][0] <= L.ROWS_PER_PASS + 1
    assert all(samples == 1 for _, samples, _ in calls)
    computed = sum(n for n, _, _ in calls) - L._static_te_row(m1, m2)
    assert res.n_max <= computed <= res.n_max + max(8, res.n_max // 10)


@pytest.mark.parametrize("pair", [p for p in GRID_PAIRS
                                  if p != ("ideal", "ideal")], ids="/".join)
def test_graded_rows_agree_with_tightly_refined_rows(monkeypatch, pair):
    # the rows below GRADE_BELOW, on their graded seed panels, agree within
    # their reported errors with the same rows refined from equal panels to
    # a 1e-12 target
    m1, m2 = (_static_models()[name] for name in pair)
    d, T = 1e-6, 5.0
    xi1 = 2.0 * math.pi * K_B * T / HBAR
    xi = np.arange(1, math.ceil(L.GRADE_BELOW * C / (d * xi1))) * xi1
    calls = _count_samples(monkeypatch)
    res = L._matsubara_rows(m1, m2, d, xi)
    assert np.all(res.panels > Q.ROW_PANELS)
    monkeypatch.setattr(L, "KPERP_REL_TOL", 1e-12)
    monkeypatch.setattr(L, "GRADE_BELOW", 0.0)
    ref = L._matsubara_rows(m1, m2, d, xi)
    assert calls[0][1] == 1
    assert calls[1][1] > 1 and not ref.failures
    assert np.all(np.abs(res.values - ref.values) <= res.errors)


def test_failed_row_beyond_n_max_does_not_fail_pressure(monkeypatch):
    dr = M.drude(1.37e16, 5.32e13)
    cfg = L.CavityConfig(dr, dr, 1e-6, 300.0)
    want = L.pressure_matsubara(cfg)
    seen = _inject_failures(monkeypatch, cfg, lambda n: n > want.n_max)
    got = L.pressure_matsubara(cfg)
    assert max(seen) > want.n_max          # rows past n_max were computed
    assert (got.pressure, got.n_max, got.error_estimate) == \
        (want.pressure, want.n_max, want.error_estimate)


def test_failed_consumed_row_names_itself(monkeypatch):
    dr = M.drude(1.37e16, 5.32e13)
    cfg = L.CavityConfig(dr, dr, 1e-6, 300.0)
    _inject_failures(monkeypatch, cfg, lambda n: n == 3)
    with pytest.raises(Q.NoConvergence, match=r"\(n=3, TE\): injected"):
        L.pressure_matsubara(cfg)


def _static_models():
    return {"plasma": M.plasma(1.37e16),
            "gplasma": M.generalized_plasma(
                1.37e16, (M.Oscillator(2e31, 3e15, 1e14),)),
            "ideal": M.ideal_metal(), "drude": M.drude(1.37e16, 5.32e13),
            "insulator": M.insulator(3.0), "table": _drude_table()}


@pytest.mark.parametrize("pair", [
    ("plasma", "plasma"), ("gplasma", "gplasma"), ("plasma", "ideal"),
    ("ideal", "gplasma"), ("plasma", "gplasma")], ids="/".join)
def test_n0_te_term_is_the_pressure_row(pair):
    # n0_term and pressure_matsubara take the plasma-like n = 0 TE term
    # from the same xi = 0 row of the kernel, so they give the same bits
    models = _static_models()
    m1, m2 = models[pair[0]], models[pair[1]]
    for d in (5e-7, 2e-6, 1e-5):
        for T in (300.0, 77.0) if d > 1e-6 else (300.0,):
            cfg = L.CavityConfig(m1, m2, d, T)
            res = L.pressure_matsubara(cfg)
            assert L.n0_term(cfg, "te") == res.n0_te == res.per_n[0][1]
            assert res.n0_te < 0.0


@pytest.mark.parametrize("pair", [
    ("plasma", "plasma"), ("gplasma", "gplasma"), ("plasma", "ideal"),
    ("drude", "drude"), ("insulator", "ideal"), ("table", "plasma")],
    ids="/".join)
def test_static_row_is_te_only_and_equals_the_standalone_row(pair):
    models = _static_models()
    m1, m2 = models[pair[0]], models[pair[1]]
    d, T = 1e-6, 300.0
    xi = np.arange(0, 21) * (2.0 * math.pi * K_B * T / HBAR)
    n = xi.size
    res = L._matsubara_rows(m1, m2, d, xi)
    alone = L._matsubara_rows(m1, m2, d, np.zeros(1))
    assert not res.failures and not alone.failures
    # TM of the xi = 0 row is identically 0, with error 0
    assert (res.values[n], res.errors[n]) == (0.0, 0.0)
    assert (alone.values[1], alone.errors[1]) == (0.0, 0.0)
    assert (res.values[0], res.errors[0]) == (alone.values[0],
                                              alone.errors[0])
    if L._static_te_row(m1, m2):
        assert alone.values[0] > 0.0
    else:   # a finite or 1/omega static r_te is 0
        assert (alone.values[0], alone.errors[0]) == (0.0, 0.0)
    # the static row leaves the other rows of its chunk as they were
    rest = L._matsubara_rows(m1, m2, d, xi[1:])
    assert np.array_equal(np.delete(res.values, [0, n]), rest.values)
    assert np.array_equal(np.delete(res.errors, [0, n]), rest.errors)


def test_failed_static_row_names_itself(monkeypatch):
    pl = M.plasma(1.37e16)
    cfg = L.CavityConfig(pl, pl, 1e-6, 300.0)
    seen = _inject_failures(monkeypatch, cfg, lambda n: n == 0)
    for run in (L.pressure_matsubara, lambda c: L.n0_term(c, "te")):
        seen.clear()
        with pytest.raises(Q.NoConvergence, match=r"\(n=0, TE\): injected"):
            run(cfg)
        assert seen[0] == 0         # the xi = 0 row leads its call


# -------------------------------------------------------- real frequency

def test_real_frequency_rejects_tabulated():
    tab = M.tabulated([(1e14, 5.0), (1e15, 3.0)], M.Extrapolation.FINITE)
    cfg = L.CavityConfig(tab, tab, 1e-6, 300.0)
    with pytest.raises(M.TabulatedOutOfRange):
        L.pressure_real_frequency(cfg)


@pytest.mark.parametrize("model", [
    M.plasma(1.37e16), M.ideal_metal(), M.insulator(3.0),
    M.generalized_plasma(1.37e16, (M.Oscillator(2e31, 3e15, 1e14),)),
    M.insulator(1.0, (M.Oscillator(2e31, 3e15, 1e14),))])
def test_real_frequency_rejects_lossless_models_up_front(model):
    dr = M.drude(1.37e16, 5.32e13)
    for pair in ((model, model), (dr, model), (model, dr)):
        with pytest.raises(M.MaterialError):
            L.pressure_real_frequency(L.CavityConfig(*pair, 1e-6, 300.0))


def test_real_frequency_vacuum_is_zero(monkeypatch):
    calls = []
    inner = Q.integrate_real_frequency

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(Q, "integrate_real_frequency", spy)
    vac = M.insulator(1.0)
    res = L.pressure_real_frequency(L.CavityConfig(vac, vac, 1e-6, 300.0))
    assert res.pressure == 0.0
    assert res.evanescent == 0.0 and res.propagating == 0.0
    # total and evanescent part are two components of the one integral
    assert len(calls) == 1


def test_real_frequency_parts_add_up_to_the_pressure(monkeypatch):
    # a short frequency cap keeps the test fast; the identity holds at any
    dr = M.drude(1e14, 1e13)
    monkeypatch.setattr(L, "OMEGA_CAP_FACTOR", 10.0)
    res = L.pressure_real_frequency(L.CavityConfig(dr, dr, 1e-6, 300.0))
    e, p = res.evanescent, res.propagating
    assert e != 0.0 and p != 0.0
    assert abs(e + p - res.pressure) <= 1e-12 * (abs(e) + abs(p))


# ----------------------------------------------------------- stress split

def test_stress_split_cancellation_and_structure():
    dr = M.drude(1.37e16, 5.32e13)
    cfg = L.CavityConfig(dr, dr, 1e-6, 300.0)
    s = L.stress_split_integrands(cfg, 3e15, 2e6)
    assert s.longitudinal == -s.transverse_scalar
    assert s.longitudinal != 0.0


def test_stress_split_vacuum_is_zero():
    vac = M.insulator(1.0)
    cfg = L.CavityConfig(vac, vac, 1e-6, 300.0)
    s = L.stress_split_integrands(cfg, 3e15, 2e6)
    assert (s.longitudinal, s.transverse_scalar,
            s.transverse_propagating_te, s.transverse_propagating_tm) \
        == (0.0, 0.0, 0.0, 0.0)


def test_stress_split_ideal_te_equals_tm():
    ideal = M.ideal_metal()
    cfg = L.CavityConfig(ideal, ideal, 1e-6, 300.0)
    s = L.stress_split_integrands(cfg, 2.7e15, 3e6)
    assert s.transverse_propagating_te == pytest.approx(
        s.transverse_propagating_tm, rel=1e-12)


def test_stress_split_guards():
    dr = M.drude(1.37e16, 5.32e13)
    cfg = L.CavityConfig(dr, dr, 1e-6, 300.0)
    with pytest.raises(ValueError):
        L.stress_split_integrands(cfg, 0.0, 1e6)
    with pytest.raises(ValueError):
        L.stress_split_integrands(cfg, 1e15, -1.0)
