"""Real-axis coefficients and the electric-correlator exponent against
60-digit mpmath evaluations of the same formulas at the same float inputs,
the trilogarithm and the closed-form n = 0 TM terms against 40-digit
``mpmath.polylog``, the imaginary-axis r_te against 40 digits at the same
float eps, and the plasma-like n = 0 TE term and static magnetic
correlator against a 30-digit ``mpmath.quad``."""

import numpy as np
import pytest

from casimir_bvl import bvl as B
from casimir_bvl import fresnel as F
from casimir_bvl import lifshitz as L
from casimir_bvl import materials as M
from casimir_bvl import quadrature as Q
from casimir_bvl.constants import C, HBAR, K_B

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

DPS = 60
DRUDE = M.drude(1.37e16, 5.32e13)
PLASMA = M.plasma(1.37e16)
GPLASMA = M.generalized_plasma(1.37e16, [M.Oscillator(2e31, 3e15, 1e14)])
INSULATOR = M.insulator(3.0)
IDEAL = M.ideal_metal()
CATALOG = {"insulator": INSULATOR, "drude": DRUDE, "plasma": PLASMA,
           "gplasma": GPLASMA, "ideal": IDEAL}


def _mp_eps(model, w):
    """eps(w) at real w, from the model's expression in mpmath."""
    w = mpf(w)
    osc = sum((mpf(o.strength) / (mpf(o.center) ** 2 - w * w
                                  - 1j * mpf(o.width) * w)
               for o in model.oscillators), mpf(0))
    if model.kind is M.Kind.INSULATOR:
        return mpf(model.eps0) + osc
    if model.kind is M.Kind.DRUDE:
        return 1 - mpf(model.omega_p) ** 2 / (w * (w + 1j * mpf(model.gamma)))
    return 1 - (mpf(model.omega_p) / w) ** 2 + osc


def _mp_branch_sqrt(z):
    r = mpmath.sqrt(z)
    return -r if mpmath.im(r) < 0 else r


def _mp_reflection(model, w, k_perp):
    """(r_te, r_tm, r_bar, k_z) at real w in the direct quotient forms."""
    k0sq = (mpf(w) / mpf(C)) ** 2
    kp2 = mpf(k_perp) ** 2
    k_z = _mp_branch_sqrt(k0sq - kp2)
    if model.kind is M.Kind.IDEAL_METAL:
        return mpf(-1), mpf(1), mpf(1), k_z
    eps = _mp_eps(model, w)
    s = _mp_branch_sqrt(eps * k0sq - kp2)
    return ((k_z - s) / (k_z + s), (eps * k_z - s) / (eps * k_z + s),
            (eps - 1) / (eps + 1), k_z)


def _rel_err(got, want):
    want = complex(want)
    return abs(complex(got) - want) / abs(want)


def _log_slope(points):
    """Least-squares slope of log y against log x of (x, y) pairs."""
    return float(np.polyfit(*np.log(np.array(points).T), 1)[0])


@pytest.mark.parametrize("name", list(CATALOG))
def test_e_limit_exponent_matches_60_digit_sweep(name):
    model = CATALOG[name]
    for z in np.geomspace(1e-9, 1e-4, 11).tolist():
        got = B.bvl_verdict(model, 1e-6, 300.0, z).e_limit_exponent
        k_perp = 1.0 / z
        te, gap = [], []
        with mpmath.workdps(DPS):
            for w in B._default_sweep(k_perp).tolist():
                r_te, r_tm, r_bar, _ = _mp_reflection(model, w, k_perp)
                te.append((w, float(abs((mpf(w) / mpf(C)) ** 2 * r_te))))
                gap.append((w, float(abs(r_tm - r_bar))))
        want = _log_slope(te)
        if model is not IDEAL:
            want = min(want, _log_slope(gap))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), z


REAL_AXIS_GRID = [(w, k) for w in (1e11, 1e13, 1e15) for k in (1e5, 3e7, 1e9)]


@pytest.mark.parametrize("model", [INSULATOR, DRUDE, PLASMA],
                         ids=["insulator", "drude", "plasma"])
def test_real_axis_r_te_matches_60_digit_reference(model):
    for w, k in REAL_AXIS_GRID:
        with mpmath.workdps(DPS):
            want, want_tm, want_bar, _ = _mp_reflection(model, w, k)
        assert _rel_err(F.reflection(model, w, k).r_te, want) <= 1e-14
        assert _rel_err(F.reflection(model, w, np.array([k])).r_te[0],
                        want) <= 1e-14
        r_te, gap = F.real_axis_sweep(model, np.array([w]), k)
        assert _rel_err(r_te[0], want) <= 1e-14
        assert _rel_err(gap[0], want_tm - want_bar) <= 1e-14


def test_stress_split_te_piece_matches_60_digit_reference():
    # insulator facing Drude gold, deep in the evanescent range
    d, T, w, k = 1e-6, 300.0, 1e13, 3e7
    got = L.stress_split_integrands(
        L.CavityConfig(INSULATOR, DRUDE, d, T), w, k).transverse_propagating_te
    with mpmath.workdps(DPS):
        r1, _, _, k_z = _mp_reflection(INSULATOR, w, k)
        r2 = _mp_reflection(DRUDE, w, k)[0]
        y = r1 * r2 * mpmath.exp(2j * k_z * mpf(d))
        x = mpf(HBAR) * mpf(w) / (2 * mpf(K_B) * mpf(T))
        ebw = mpf(HBAR) / 2 / mpmath.tanh(x) / mpmath.pi ** 2
        want = -ebw * mpf(k) * mpmath.im(-1j * k_z * y / (1 - y))
    assert _rel_err(got, want) <= 1e-13


def test_real_axis_sweep_is_one_pass_of_the_scalar_expressions():
    w = np.geomspace(1e11, 1e15, 9)
    for model in (INSULATOR, DRUDE, PLASMA, GPLASMA):
        np.testing.assert_allclose(
            M.eval_epsilon(model, w),
            [M.eval_epsilon(model, x) for x in w.tolist()],
            rtol=1e-15, atol=0.0)
        r_te, _ = F.real_axis_sweep(model, w, 3e7)
        np.testing.assert_allclose(
            r_te, [F.reflection(model, x, 3e7).r_te for x in w.tolist()],
            rtol=1e-15, atol=0.0)
    r_te, gap = F.real_axis_sweep(IDEAL, w, 3e7)
    assert r_te.tolist() == [-1.0] * 9 and gap.tolist() == [0.0] * 9
    with pytest.raises(F.ZeroFrequency):
        F.real_axis_sweep(INSULATOR, np.array([1e12, 0.0]), 3e7)
    with pytest.raises(ValueError):
        F.real_axis_sweep(DRUDE, np.array([1e12, np.inf]), 3e7)


POLYLOG_GRID = sorted(set(np.linspace(0.0, 1.0, 41).tolist() + [
    1e-300, 1e-8, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.5001,
    0.99, 1.0 - 1e-6, 1.0 - 1e-12]))


def test_polylog3_matches_40_digit_reference():
    assert Q.polylog3(0.0) == 0.0
    with mpmath.workdps(40):
        for R in POLYLOG_GRID[1:]:
            want = mpmath.polylog(3, mpf(R))
            assert _rel_err(Q.polylog3(R), want) <= 1e-15, R
    assert Q.polylog3(1.0) == Q.ZETA3
    for bad in (-1e-300, 1.0 + 1e-15, float("nan")):
        with pytest.raises(ValueError):
            Q.polylog3(bad)


def _mp_static_rtm(model):
    """Static r_TM from the model's eps(0) in mpmath; 1 for conductors."""
    if model.kind is not M.Kind.INSULATOR:
        return mpf(1)
    eps = mpf(model.eps0) + sum((mpf(o.strength) / mpf(o.center) ** 2
                                 for o in model.oscillators), mpf(0))
    return (eps - 1) / (eps + 1)


@pytest.mark.parametrize("pair", [
    ("insulator", "insulator"), ("insulator", "ideal"), ("lorentz", "ideal"),
    ("insulator", "lorentz"), ("drude", "plasma"), ("ideal", "ideal")],
    ids="/".join)
def test_closed_n0_tm_matches_40_digit_reference(pair):
    models = dict(CATALOG, lorentz=M.insulator(
        1.5, [M.Oscillator(2e31, 3e15, 1e14)]))
    m1, m2 = (models[name] for name in pair)
    for d in (1e-8, 3e-7, 1e-6, 2.5e-5, 1e-3):
        for T in (1.0, 77.0, 300.0):
            got = L.n0_term(L.CavityConfig(m1, m2, d, T), "tm")
            with mpmath.workdps(40):
                R = _mp_static_rtm(m1) * _mp_static_rtm(m2)
                want = (-mpf(K_B) * mpf(T) / (2 * mpmath.pi)
                        * mpmath.polylog(3, R) / (4 * mpf(d) ** 3))
            assert _rel_err(got, want) <= 1e-15, (d, T)


def _mp_static_te(model, k):
    """Static r_te at k_perp = k in mpmath, from the effective omega_p of a
    plasma-like model; -1 for the ideal metal."""
    if model.kind is M.Kind.IDEAL_METAL:
        return mpf(-1)
    kp2 = (mpf(M.effective_omega_p(model)) / mpf(C)) ** 2
    return -kp2 / (k + mpmath.sqrt(k * k + kp2)) ** 2


@pytest.mark.parametrize("pair", [
    ("plasma", "plasma"), ("gplasma", "gplasma"), ("plasma", "ideal")],
    ids="/".join)
def test_plasma_like_n0_te_matches_30_digit_reference(pair):
    # the n = 0 TE term of a plasma-like pair is the xi = 0 row of the
    # Matsubara kernel; no oracle of the benchmark checks this value
    m1, m2 = (CATALOG[name] for name in pair)
    for d in np.geomspace(1e-8, 1e-3, 6).tolist():
        got = L.n0_term(L.CavityConfig(m1, m2, d, 300.0), "te")
        with mpmath.workdps(30):
            dd = mpf(d)

            def f(k):
                y = (_mp_static_te(m1, k) * _mp_static_te(m2, k)
                     * mpmath.exp(-2 * k * dd))
                return k * k * y / (1 - y)

            edges = [0] + [mpf(x) / dd for x in (0.25, 0.5, 1, 2, 4, 8, 16,
                                                 32, 64)] + [mpmath.inf]
            want = (-mpf(K_B) * 300 / (2 * mpmath.pi)
                    * mpmath.quad(f, edges))
        assert _rel_err(got, want) <= 5e-14, d


@pytest.mark.parametrize("name", ["plasma", "gplasma"])
def test_plasma_like_b_correlator_matches_30_digit_reference(name):
    # B_zz = Int k^2 r_te(0, k) exp(-k (z + z')) dk of the classical
    # magnetic correlator, at z = z' from 1 nm to 1 mm
    model = CATALOG[name]
    for z in np.geomspace(1e-9, 1e-3, 25).tolist():
        got = B.b_correlator_classical(model, B.SlabPoint(z, z))[2, 2]
        with mpmath.workdps(30):
            # over u = k (z + z'), on which the integrand is e^-u u^2 r_te
            zsum = 2 * mpf(z)
            want = mpmath.quad(lambda u: u * u * _mp_static_te(model, u / zsum)
                               * mpmath.exp(-u),
                               [0, 2, 8, 32, mpmath.inf]) / zsum ** 3
        assert abs(got - want) <= B.B_REL_TOL * abs(want), z


def test_imaginary_axis_r_te_matches_40_digit_reference():
    # r_te is small and (q - kappa)/(q + kappa), the quotient used before
    # -w/(q + kappa)^2, cancels where eps(i xi) -> 1 (Drude gold at
    # 1e16-1e18 rad/s, eps - 1 down to 2e-4) and where k_perp >> xi/c
    # (the insulator at 1e10-1e12 rad/s): here that quotient missed this
    # bound by up to 1.3e-12 and 3.6e-2 relative
    for model, lo, hi in ((DRUDE, 1e16, 1e18), (INSULATOR, 1e10, 1e12)):
        for xi in np.geomspace(lo, hi, 9).tolist():
            eps = float(M.eval_epsilon(model, 1j * xi).real)
            ks = np.geomspace(1e3, 1e9, 25)
            got = F.reflection(model, 1j * xi, ks).r_te
            with mpmath.workdps(40):
                a2 = (mpf(xi) / mpf(C)) ** 2
                for k, r in zip(ks.tolist(), got.tolist()):
                    q = mpmath.sqrt(mpf(k) ** 2 + a2)
                    kappa = mpmath.sqrt(mpf(k) ** 2 + mpf(eps) * a2)
                    want = (q - kappa) / (q + kappa)
                    assert r.imag == 0.0
                    assert _rel_err(r, want) <= 1e-15, (model.kind, xi, k)
