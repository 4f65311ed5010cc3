"""Cavity pressure routes: Matsubara production path and stress split."""

import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest

from casimir_bvl import fresnel, lifshitz as L, materials as M, quadrature as Q
from casimir_bvl.constants import C, HBAR, K_B

ZETA3 = 1.2020569031595943


def ideal_pressure_series(d, T):
    """Independent Matsubara sum of the ideal-metal pressure, each index in
    closed form.

    Expanding the round-trip bracket into exp(-2 m q d) terms makes every
    k-integral elementary, and the sum over m is a polylogarithm: term n of
    either polarization is (a^2/2d) Li_1(x) + (a/2d^2) Li_2(x)
    + Li_3(x)/(4 d^3), with a = xi_n/c, x = exp(-2 a d) and
    Li_1(x) = -ln(1 - x), taken by log1p.  At n = 0 it is zeta(3)/(4 d^3),
    half-weighted.  The n series stops at a term below 1e-17 of the sum,
    whose geometric tail is then below nu times that.
    """
    xi1 = 2.0 * math.pi * K_B * T / HBAR
    terms = [2.0 / (8.0 * d**3) * ZETA3]        # half-weighted n=0, both pols
    total = terms[0]
    n = 1
    while terms[-1] >= 1e-17 * total:
        a = n * xi1 / C
        x = math.exp(-2.0 * a * d)
        terms.append(2.0 * (-a * a / (2.0 * d) * math.log1p(-x)
                            + a / (2.0 * d**2) * mpmath.fp.polylog(2, x)
                            + mpmath.fp.polylog(3, x) / (4.0 * d**3)))
        total += terms[-1]
        n += 1
    return -(K_B * T / math.pi) * math.fsum(terms)


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
    # long sums, up to 9288 indices at 0.5 um and 1 K: the geometric tail
    # bound is nearly all the estimate, and the true error is 0.844-0.847
    # of it
    (1e-6, 5.0), (1e-6, 10.0), (1.5e-6, 7.0), (2e-6, 5.0), (2e-6, 10.0),
    (5e-7, 1.0), (1e-6, 1.0), (2e-6, 1.0)])
def test_ideal_metal_series_within_error_estimate(d, T):
    ideal = M.ideal_metal()
    res = L.pressure_matsubara(L.CavityConfig(ideal, ideal, d, T))
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


def test_matsubara_ceiling(monkeypatch):
    # twice the reach ceil(nu x*) + 3, nu = c/(2 d xi_1): nu = 0.607 at
    # 1 um and 300 K, and x* = 25.49 at rel_tol 1e-9, 9.25 at 2e-3
    ceilings = []
    original = Q.matsubara_sum

    def recorded(term, ceiling, rel_tol):
        ceilings.append(ceiling)
        return original(term, ceiling, rel_tol)

    monkeypatch.setattr(Q, "matsubara_sum", recorded)
    ideal = M.ideal_metal()
    for d, T, rel_tol in ((1e-6, 300.0, 1e-9), (1e-7, 300.0, 1e-9),
                          (1e-6, 5.0, 2e-3), (1e-6, 1.0, 1e-9)):
        L.pressure_matsubara(L.CavityConfig(ideal, ideal, d, T, rel_tol))
    assert ceilings == [38, 316, 682, 9296]


def test_reach_cap_accepts_at_the_cap_and_rejects_one_past(monkeypatch):
    # nu = 0.607 at 1 um and 300 K and x* = 25.49 at rel_tol 1e-9: the
    # reach is ceil(nu x*) + 3 = 19
    ideal = M.ideal_metal()
    cfg = L.CavityConfig(ideal, ideal, 1e-6, 300.0)
    monkeypatch.setattr(L, "MAX_REACH", 19)
    want = L.pressure_matsubara(cfg)
    monkeypatch.setattr(L, "MAX_REACH", 18)
    rows = []
    monkeypatch.setattr(L, "_matsubara_rows",
                        lambda *args: rows.append(args))
    with pytest.raises(ValueError, match=r"^the Matsubara sum would need 19 "
                       r"indices \(ceil\(nu x\*\) \+ 3\), above the cap "
                       r"MAX_REACH = 18;"):
        L.pressure_matsubara(cfg)
    assert rows == []
    monkeypatch.undo()
    assert repr(L.pressure_matsubara(cfg)) == repr(want)


@pytest.mark.parametrize("T", [1e-300, 1e-310])
def test_reach_cap_rejects_tiny_temperatures_before_any_row(monkeypatch, T):
    # at 1e-310 K xi_1 underflows to 0 and the reach is not divided out;
    # the plasma model's eps would overflow at such xi
    rows = []
    monkeypatch.setattr(L, "_matsubara_rows",
                        lambda *args: rows.append(args))
    for m in (M.ideal_metal(), M.plasma(1e10), M.drude(1.37e16, 5.32e13)):
        with pytest.raises(ValueError, match=r"above the cap MAX_REACH = "
                           r"4194304; its cost grows as 1/\(d T\)"):
            with np.errstate(all="raise"):
                L.pressure_matsubara(L.CavityConfig(m, m, 1e-6, T))
    assert rows == []
    assert L.MAX_REACH == 1 << 22


@pytest.mark.parametrize("pair", [
    (M.plasma(1e16), M.plasma(1e16)),
    (M.insulator(3.0), M.ideal_metal()),
    (M.drude(1.37e16, 5.32e13), M.plasma(1.37e16)),
], ids=["plasma-plasma", "insulator-ideal", "drude-plasma"])
def test_second_pressure_on_the_same_models_classifies_neither(
        monkeypatch, pair):
    # fresnel.static_nw and static_rtm keep their value per model
    # instance, so only the first call on fresh models classifies them
    m1, m2 = (dataclasses.replace(m) for m in pair)     # fresh instances
    calls = []
    for module in (M, fresnel):
        original = module.zero_freq_class

        def spy(model, original=original):
            calls.append(model)
            return original(model)

        monkeypatch.setattr(module, "zero_freq_class", spy)
    cfg = L.CavityConfig(m1, m2, 1e-6, 300.0)
    first = L.pressure_matsubara(cfg)
    assert calls
    calls.clear()
    again = L.pressure_matsubara(cfg)
    assert calls == []
    assert repr(again) == repr(first)


def test_matsubara_ceiling_validation():
    # the ceiling is reached only through a CavityConfig, which rejects a
    # d or T that is not positive and finite
    ideal = M.ideal_metal()
    for d, T in ((-1e-6, 300.0), (1e-6, 0.0), (math.inf, 300.0),
                 (1e-6, math.inf), (math.nan, 300.0), (1e-6, math.nan)):
        with pytest.raises(ValueError, match="outside sanity bounds"):
            L.CavityConfig(ideal, ideal, d, T)


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-6, 2e-3, 1e-2])
def test_ideal_stop_bounds_the_ideal_metal_sum(rel_tol):
    # up to a factor, the term n of two ideal metals is I(n/nu) with
    # I(x) = sum_m exp(-m x) (x^2/m + 2 x/m^2 + 2/m^3), half-weighted at
    # n = 0; matsubara_sum stops on it by ceil(nu x*) + 3, and not far
    # before
    x = L._ideal_stop(rel_tol)
    assert x >= 3.0 and math.exp(-x) * (x * x + 2.0 * x + 2.0) * x / (
        x - 2.0) == pytest.approx(math.pi ** 4 / 15.0 * rel_tol, rel=1e-2)
    m = np.arange(1.0, 4001.0)
    for nu in (0.5, 1.2, 5.0, 36.4):
        def term(n):
            u = n / nu
            return (0.5 if n == 0 else 1.0) * float(np.sum(
                np.exp(-m * u) * (u * u / m + 2.0 * u / m ** 2
                                  + 2.0 / m ** 3)))
        n_max = Q.matsubara_sum(term, 10 ** 5, rel_tol).n_max
        assert n_max <= math.ceil(nu * x) + 3 <= n_max + 3 + nu / 4


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


def _nw(eps, xi):
    """nw = (1 - eps)(xi/c)^2 of fresnel.imag_axis_coefficients; None for
    the ideal metal's eps None."""
    return None if eps is None else (1.0 - eps) * (xi / C) ** 2


def _scalar_row(cfg, n, pol):
    """One Matsubara row from a scalar k_perp integral, as summed, Pa."""
    xi = n * 2.0 * math.pi * K_B * cfg.T / HBAR
    eps1, eps2 = (fresnel.epsilon(m, 1j * xi)
                  for m in (cfg.material_1, cfg.material_2))

    def f(k):
        q = np.sqrt(k * k + (xi / C) ** 2)
        r1, r2 = (fresnel.imag_axis_coefficients(eps, _nw(eps, xi), q)[pol]
                  for eps in (eps1, eps2))
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
        cols = [None if eps is None else eps[rows] for eps in (eps1, eps2)]
        r1, r2 = (fresnel.imag_axis_coefficients(e, _nw(e, x), q)[pol]
                  for e in cols)
        y = r1 * r2 * np.exp((-2.0 * d) * q)
        return q * q * (y / (1.0 - y))

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
    xi = np.arange(1, 49) * (2.0 * math.pi * K_B * T / HBAR)
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
    # the first pass computes the indices up to the reach ceil(nu x*) + 3,
    # where x* is the ideal-metal stop; a sum that reads on, here one made
    # to read to its ceiling, twice the reach, goes on in passes towards
    # the ceiling, of at most MAX_ROWS_PER_PASS indices each
    original = Q.matsubara_sum

    def to_the_ceiling(term, ceiling, rel_tol):
        for n in range(ceiling + 1):
            term(n)
        return original(term, ceiling, rel_tol)

    ideal = M.ideal_metal()
    cfgs = [L.CavityConfig(ideal, ideal, 1e-6, T) for T in (300.0, 5.0)]
    want = [L.pressure_matsubara(cfg) for cfg in cfgs]
    monkeypatch.setattr(Q, "matsubara_sum", to_the_ceiling)
    passes = _count_row_passes(monkeypatch)
    # nu = 0.607 and x* = 25.49: up to 19, then to the ceiling 38
    assert L.pressure_matsubara(cfgs[0]) == want[0]
    assert passes == [19, 19]
    # nu = 36.4: the reach 932 is cut at 512 indices, and so is every
    # later pass up to the ceiling 1864
    passes.clear()
    assert L.pressure_matsubara(cfgs[1]) == want[1]
    assert passes == [512, 512, 512, 328] and L.MAX_ROWS_PER_PASS == 512


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
    # ROW_SCALE/d, so the integrate_rows call meets all its targets on the
    # seed panels and samples the integrand once; the one pass, up to the
    # ideal-metal stop, ends 1-3 indices past n_max.  At 0.5 um, 300 K and
    # at 2 um, 77 K it holds 34 indices, the most of these sums
    models = {"insulator": M.insulator(3.0),
              "drude": M.drude(1.37e16, 5.32e13), "plasma": M.plasma(1.37e16),
              "gplasma": M.generalized_plasma(
                  1.37e16, (M.Oscillator(2e31, 3e15, 1e14),)),
              "ideal": M.ideal_metal(), "table": _drude_table()}
    m1, m2 = models[pair[0]], models[pair[1]]
    calls = _count_samples(monkeypatch)
    res = L.pressure_matsubara(L.CavityConfig(m1, m2, d, T))
    assert len(calls) == 1
    indices, samples, panels = calls[0]
    assert samples == 1
    assert panels.shape == (2 * indices,)     # TE, then TM, per index
    assert np.all(panels == Q.ROW_PANELS)
    computed = indices - L._static_te_row(m1, m2)
    assert res.n_max <= computed <= res.n_max + 12


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
def test_long_sum_is_one_one_round_pass(monkeypatch, pair, d, T):
    # the first pass, up to the ideal-metal stop, holds every summed index
    # of a long sum too, and its graded low rows meet their targets on
    # their seed panels.  It ends up to 19 indices (0.06 n_max) past n_max
    m1, m2 = (_static_models()[name] for name in pair)
    calls = _count_samples(monkeypatch)
    res = L.pressure_matsubara(L.CavityConfig(m1, m2, d, T, rel_tol=2e-3))
    assert len(calls) == 1 and calls[0][1] == 1
    computed = calls[0][0] - L._static_te_row(m1, m2)
    assert res.n_max <= computed <= res.n_max + max(12, res.n_max // 16)


@pytest.mark.parametrize("pair", [
    ("insulator", "insulator"), ("insulator80", "insulator80"),
    ("insulator80", "ideal"), ("drude", "drude"), ("plasma", "plasma"),
    ("gplasma", "gplasma"), ("ideal", "ideal"), ("table", "drude")],
    ids="/".join)
def test_every_sum_converges_below_its_ceiling(pair):
    # the terms of two ideal metals bound every pair's, so every sum stops
    # near the reach ceil(nu x*) + 3 and well below the ceiling, twice it;
    # the insulator eps = 80 comes closest, at 1.0107 of it.  Cases whose
    # reach exceeds 5000 indices, which cost as 1/(d T), are left out
    models = {**_static_models(), "insulator80": M.insulator(80.0)}
    m1, m2 = models[pair[0]], models[pair[1]]
    for d, T, rel_tol in itertools.product(
            (1e-8, 1e-7, 1e-6, 1e-5, 1e-4), (1.0, 10.0, 77.0, 300.0, 3000.0),
            (1e-12, 1e-9, 1e-6, 2e-3, 1e-1)):
        nu = C * HBAR / (4.0 * math.pi * d * K_B * T)
        reach = math.ceil(nu * L._ideal_stop(rel_tol)) + 3
        if reach <= 5000:
            res = L.pressure_matsubara(L.CavityConfig(m1, m2, d, T, rel_tol))
            assert res.n_max <= 1.05 * reach


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


@pytest.mark.parametrize("d, T", [(1e-6, 300.0), (5e-6, 77.0)])
def test_plasma_like_table_n0_te_is_its_effective_plasma(d, T):
    # the xi = 0 row of a plasma-like table reads only the omega_p,eff of
    # its low-end fit, so it has the bits of that pure plasma's row
    src = M.plasma(1.37e16)
    table = M.tabulated([(float(x), M.eval_epsilon(src, 1j * x).real)
                         for x in np.geomspace(1e12, 1e18, 200)],
                        M.Extrapolation.PLASMA_LIKE)
    twin = M.plasma(M.effective_omega_p(table))
    got, want = (L.CavityConfig(m, m, d, T) for m in (table, twin))
    assert L.n0_term(got, "te") == L.n0_term(want, "te") < 0.0
    assert (L.pressure_matsubara(got).n0_te
            == L.pressure_matsubara(want).n0_te == L.n0_term(want, "te"))


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


def test_failed_static_row_raises_before_the_sum(monkeypatch):
    pl = M.plasma(1.37e16)
    cfg = L.CavityConfig(pl, pl, 1e-6, 300.0)
    _inject_failures(monkeypatch, cfg, lambda n: n == 0)
    entered = []
    monkeypatch.setattr(Q, "matsubara_sum", lambda *args: entered.append(1))
    with pytest.raises(Q.NoConvergence, match=r"\(n=0, TE\): injected"):
        L.pressure_matsubara(cfg)
    assert not entered


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
