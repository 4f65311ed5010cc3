"""Regression pin of the Matsubara route.

The pressure, error-estimate and n_max literals were produced by
``pressure_matsubara`` before its n >= 1 k_perp integrals were batched into
one array kernel.  The n = 0 literals are those of the closed form
-(k_B T / 2 pi) Li_3(R)/(4 d^3) for every TM term and the TE terms of two
ideal metals, and, for the plasma-like TE terms, of the xi = 0 row of the
Matsubara k_perp kernel, which leads the pressure's first chunk.
Any later change to the route must keep the summed index count, keep the
n = 0 terms exact and move the pressure by no more than the pinned error
estimate.
"""

import numpy as np
import pytest

from casimir_bvl import lifshitz as L, materials as M

OMEGA_P, GAMMA = 1.37e16, 5.32e13


def _table():
    src = M.drude(OMEGA_P, GAMMA)
    table = [(float(x), float(M.eval_epsilon(src, 1j * x).real))
             for x in np.geomspace(1e12, 1e18, 200)]
    return M.tabulated(table, M.Extrapolation.DRUDE_LIKE)


MODELS = {
    "insulator": M.insulator(3.0),
    "drude": M.drude(OMEGA_P, GAMMA),
    "plasma": M.plasma(OMEGA_P),
    "gplasma": M.generalized_plasma(OMEGA_P,
                                    (M.Oscillator(2e31, 3e15, 1e14),)),
    "ideal": M.ideal_metal(),
    "table": _table(),
}

# (material 1, material 2, d [m], T [K], rel_tol,
#  pressure [Pa], error_estimate [Pa], n_max, n0_te [Pa], n0_tm [Pa])
PINNED = [
    ('insulator', 'insulator', 5e-07, 300.0, 1e-09,
     -0.0018671871544966323, 6.269323702423111e-12, 33,
     0.0, -0.0003407613656443227),
    ('insulator', 'insulator', 1e-06, 300.0, 1e-09,
     -0.00011829530967387855, 3.1650243566556963e-13, 18,
     0.0, -4.2595170705540335e-05),
    ('insulator', 'insulator', 5e-06, 77.0, 1e-09,
     -1.9214492295089701e-07, 4.977845440604137e-16, 15,
     0.0, -8.746208384870945e-08),
    ('drude', 'drude', 5e-07, 300.0, 1e-09,
     -0.015396373843101985, 3.148992917289024e-11, 31,
     0.0, -0.001584819081551518),
    ('drude', 'drude', 1e-06, 300.0, 1e-09,
     -0.0009834369771813821, 2.259932357494905e-12, 18,
     0.0, -0.00019810238519393976),
    ('drude', 'drude', 5e-06, 77.0, 1e-09,
     -1.635661593408806e-06, 5.053913066240153e-15, 15,
     0.0, -4.0677023093155616e-07),
    ('plasma', 'plasma', 5e-07, 300.0, 1e-09,
     -0.016772354196937976, 3.1787998487549774e-11, 31,
     -0.0012324702815333165, -0.001584819081551518),
    ('plasma', 'plasma', 1e-06, 300.0, 1e-09,
     -0.0011648535004410755, 2.3134060970821274e-12, 18,
     -0.0001742201330412275, -0.00019810238519393976),
    ('plasma', 'plasma', 5e-06, 77.0, 1e-09,
     -2.0418551000767544e-06, 5.164995822611211e-15, 15,
     -3.9627321079526736e-07, -4.0677023093155616e-07),
    ('gplasma', 'gplasma', 5e-07, 300.0, 1e-09,
     -0.01678576493706359, 3.200143236273093e-11, 31,
     -0.0012324702815333165, -0.001584819081551518),
    ('gplasma', 'gplasma', 1e-06, 300.0, 1e-09,
     -0.0011650132396657524, 2.314746721498117e-12, 18,
     -0.0001742201330412275, -0.00019810238519393976),
    ('gplasma', 'gplasma', 5e-06, 77.0, 1e-09,
     -2.041857846779545e-06, 5.1650210115910586e-15, 15,
     -3.9627321079526736e-07, -4.0677023093155616e-07),
    ('ideal', 'ideal', 5e-07, 300.0, 1e-09,
     -0.02080405510424995, 6.139408746140544e-11, 33,
     -0.001584819081551518, -0.001584819081551518),
    ('ideal', 'ideal', 1e-06, 300.0, 1e-09,
     -0.0013021685199163919, 3.0629335582188203e-12, 18,
     -0.00019810238519393976, -0.00019810238519393976),
    ('ideal', 'ideal', 5e-06, 77.0, 1e-09,
     -2.089066315260691e-06, 5.587158183225507e-15, 15,
     -4.0677023093155616e-07, -4.0677023093155616e-07),
    ('table', 'table', 5e-07, 300.0, 1e-09,
     -0.015396327298799382, 3.149009453294321e-11, 31,
     0.0, -0.001584819081551518),
    ('table', 'table', 1e-06, 300.0, 1e-09,
     -0.0009834340769755844, 2.259913629785588e-12, 18,
     0.0, -0.00019810238519393976),
    ('table', 'table', 5e-06, 77.0, 1e-09,
     -1.6356592198055544e-06, 5.053887025771648e-15, 15,
     0.0, -4.0677023093155616e-07),
    ('drude', 'plasma', 5e-07, 300.0, 1e-09,
     -0.015467765815516102, 3.15945035870827e-11, 31,
     0.0, -0.001584819081551518),
    ('drude', 'plasma', 1e-06, 300.0, 1e-09,
     -0.0009870229705068252, 2.2860776293022933e-12, 18,
     0.0, -0.00019810238519393976),
    ('drude', 'plasma', 5e-06, 77.0, 1e-09,
     -1.6406082380430922e-06, 5.1089430260628354e-15, 15,
     0.0, -4.0677023093155616e-07),
    ('insulator', 'ideal', 5e-07, 300.0, 1e-09,
     -0.005120186701226547, 1.490637445649814e-11, 33,
     0.0, -0.0007082740574538473),
    ('insulator', 'ideal', 1e-06, 300.0, 1e-09,
     -0.0003196817885751255, 8.559071108955816e-13, 18,
     0.0, -8.853425718173091e-05),
    ('insulator', 'ideal', 5e-06, 77.0, 1e-09,
     -5.106164818035124e-07, 1.0134306655757845e-15, 15,
     0.0, -1.8179034141315407e-07),
    ('table', 'drude', 5e-07, 300.0, 1e-09,
     -0.015396350570886466, 3.149001108539742e-11, 31,
     0.0, -0.001584819081551518),
    ('table', 'drude', 1e-06, 300.0, 1e-09,
     -0.0009834355270763994, 2.2599229346403227e-12, 18,
     0.0, -0.00019810238519393976),
    ('table', 'drude', 5e-06, 77.0, 1e-09,
     -1.6356604066064153e-06, 5.053899963948909e-15, 15,
     0.0, -4.0677023093155616e-07),
    ('drude', 'drude', 1.5e-06, 5.0, 0.002,
     -0.00023305879718567608, 4.548906732840098e-07, 218,
     0.0, -9.782833836737766e-07),
]


@pytest.mark.parametrize("case", PINNED,
                         ids=lambda c: "{}/{}-{}-{}".format(*c[:4]))
def test_pressure_matsubara_matches_pin(case):
    m1, m2, d, T, rel_tol, pressure, error, n_max, n0_te, n0_tm = case
    res = L.pressure_matsubara(
        L.CavityConfig(MODELS[m1], MODELS[m2], d, T, rel_tol=rel_tol))
    assert res.n_max == n_max
    assert res.n0_te == n0_te and res.n0_tm == n0_tm
    assert abs(res.pressure - pressure) <= error
