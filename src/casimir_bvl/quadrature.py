"""Shared numerical machinery: adaptive quadrature, Matsubara summation,
power-law fitting.

Every integral uses the Gauss-Kronrod 7/15 rule with interval bisection.
All Kronrod nodes are interior, so integrand endpoints are never evaluated.
Integrand callables must be vectorized (ndarray in, ndarray out).
:func:`adaptive_gk` bisects one interval at a time from a heap;
:func:`integrate_rows` and :func:`composite_gk` share one batched loop
that refines a flat panel list of many integrals, each held to its own
target.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR, K_B


class QuadratureError(Exception):
    """Base class for numerical-machinery errors."""


class NoConvergence(QuadratureError):
    """Requested tolerance not reached within the configured budget."""


class NonPositiveData(QuadratureError):
    """Power-law fitting needs strictly positive coordinates."""


class NoPlateau(QuadratureError):
    """Real-frequency integrand does not settle near omega = 0."""


class DegenerateSweep(QuadratureError):
    """A limit sweep needs more points to be fitted."""


@dataclass
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int


@dataclass
class SumResult:
    value: float
    n_max: int
    tail_bound: float


@dataclass
class RowsResult:
    """Per-row outcome of :func:`integrate_rows` and :func:`_refine`."""

    values: np.ndarray
    errors: np.ndarray
    panels: np.ndarray     # GK 7/15 panels each row ended with
    failures: dict         # row -> NoConvergence, for rows out of budget

    def row(self, i):
        """(value, error_estimate) of row i; raises the row's NoConvergence."""
        if i in self.failures:
            raise self.failures[i]
        return float(self.values[i]), float(self.errors[i])


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_IG = np.array([1, 3, 5, 7, 9, 11, 13])  # Gauss-7 node positions inside _XGK
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])

DEFAULT_INTERVAL_BUDGET = 2000
#: Rounding floor of a reported error estimate, relative to the integral of
#: |f|: 50 machine epsilons, as in QUADPACK.  The GK 7/15 tables carry 15
#: digits, so a Kronrod-minus-Gauss estimate can fall below the rounding.
ROUNDING_FLOOR = 50.0 * np.finfo(float).eps
#: Equal panels each row of :func:`integrate_rows` starts from.  The
#: Matsubara rows (lifshitz._matsubara_rows) meet their targets on them:
#: over the benchmark's nine material pairs at gaps of 0.3-20 um and
#: 30-300 K (933 pressures), 1378 of 1389 calls ended after one round,
#: with 8.0 panels per row on average.
ROW_PANELS = 8
#: Most panels of one :func:`composite_gk` integral.
COMPOSITE_PANEL_BUDGET = 20000
#: Weight of the integral of |g| in the tolerance floor of
#: :func:`integrate_real_frequency` and of its negligible-strip test.  The
#: frequency integrand cancels over many oscillations, so the floor sits
#: far below the 0.01 of the other integrals.
FREQUENCY_FLOOR_FRAC = 1e-4


def _gk_panels(y, h):
    """(Kronrod value, |Kronrod - Gauss|, Kronrod of |y|) of each panel.

    y holds the integrand at the 15 nodes of each panel, shape (m, 15), or
    of one panel, shape (15,); h holds the panels' half-widths.
    """
    kron = h * (y @ _WGK)
    gauss = h * ((y[:, _IG] if y.ndim == 2 else y[_IG]) @ _WG)
    return kron, abs(kron - gauss), h * (abs(y) @ _WGK)


def adaptive_gk(f, a, b, rel_tol):
    """Adaptive Gauss-Kronrod integration of a vectorized f over [a, b].

    Bisects the interval with the largest local error estimate until the
    accumulated estimate meets ``rel_tol*|I|`` or a small floor
    proportional to the integral of |f| (guards against demanding
    impossible relative accuracy on strongly cancelling integrands).  At
    most DEFAULT_INTERVAL_BUDGET intervals are used; a non-finite error
    estimate raises NoConvergence at once.  Returns (value,
    error_estimate, evaluations).
    """
    def panel(lo, hi):
        h = 0.5 * (hi - lo)
        y = np.asarray(f(0.5 * (lo + hi) + h * _XGK), dtype=float)
        return map(float, _gk_panels(y, h))

    counter = itertools.count()
    val, err, resabs = panel(a, b)
    heap = [(-err, next(counter), a, b, val, err, resabs)]
    total_val, total_err, total_abs = val, err, resabs
    nvals = 15
    n_intervals = 1
    while True:
        target = max(rel_tol * abs(total_val), 0.01 * rel_tol * total_abs)
        if total_err <= target:
            return total_val, total_err, nvals
        if not math.isfinite(total_err):   # a NaN or inf never leaves the sum
            raise NoConvergence(
                f"non-finite integrand: {n_intervals} intervals, error "
                f"{total_err:.3e} against target {target:.3e}")
        if n_intervals >= DEFAULT_INTERVAL_BUDGET:
            raise NoConvergence(
                f"quadrature budget of {DEFAULT_INTERVAL_BUDGET} intervals "
                f"exhausted (error {total_err:.3e}, target {target:.3e})")
        _, _, pa, pb, pval, perr, pabs = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        lval, lerr, labs = panel(pa, mid)
        rval, rerr, rabs = panel(mid, pb)
        nvals += 30
        n_intervals += 1
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        total_abs += labs + rabs - pabs
        heapq.heappush(heap, (-lerr, next(counter), pa, mid, lval, lerr, labs))
        heapq.heappush(heap, (-rerr, next(counter), mid, pb, rval, rerr, rabs))


def _check_mapping(scale, rel_tol):
    """Validate the arguments of the semi-infinite integrals."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not 1e-14 < rel_tol < 1e-2:
        raise ValueError("rel_tol must lie in (1e-14, 1e-2)")


def integrate_semi_infinite(f, scale, rel_tol):
    """Integrate f over [0, inf) via the substitution k = scale*t/(1-t).

    Parameters
    ----------
    f : callable
        Vectorized integrand, decaying beyond roughly 1/scale.
    scale : float
        Positive mapping scale.
    rel_tol : float
        Relative tolerance, within (1e-14, 1e-2).
    """
    _check_mapping(scale, rel_tol)

    def g(t):
        u = 1.0 - t
        k = scale * t / u
        return f(k) * scale / (u * u)

    return IntegralResult(*adaptive_gk(g, 0.0, 1.0, rel_tol))


def _refine(sample, n_rows, rows, lo, hi, rel_tol, floor_frac, budget):
    """Bisect the flat panel list (rows, lo, hi) until every row is done.

    ``sample(rows, x)`` returns the integrand at the GK 7/15 nodes x
    (shape (m, 15)) of panels belonging to ``rows`` (shape (m, 1)); every
    round calls it once, on all new panels.  A row meets its target when
    its summed Kronrod-minus-Gauss error is within ``max(rel_tol*|I|,
    floor_frac*rel_tol*Int|f|)``.  Only rows that miss it are refined:
    their panels whose error exceeds half their even share of the target
    are bisected.  A row's reported error adds ROUNDING_FLOOR times its
    Int|f| to that estimate.  A row that would need more than ``budget``
    panels, or whose error is not finite, stops; its NoConvergence is kept
    in the result's ``failures``.
    """
    def evaluate(rows, lo, hi):
        h = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + h[:, None] * _XGK
        return _gk_panels(sample(rows[:, None], x), h)

    val, err, resabs = evaluate(rows, lo, hi)
    failures = {}
    while True:
        total = np.bincount(rows, val, n_rows)
        total_err = np.bincount(rows, err, n_rows)
        total_abs = np.bincount(rows, resabs, n_rows)
        target = np.maximum(rel_tol * np.abs(total),
                            floor_frac * rel_tol * total_abs)
        count = np.bincount(rows, minlength=n_rows)
        refine = ~(total_err <= target)      # NaN errors refine too
        refine[list(failures)] = False
        if not refine.any():
            return RowsResult(total, total_err + ROUNDING_FLOOR * total_abs,
                              count, failures)
        split = refine[rows] & (err > target[rows] / (2.0 * count[rows]))
        room = budget - count
        wanted = np.bincount(rows[split], minlength=n_rows)
        for i in np.flatnonzero(refine & ((wanted == 0) | (wanted > room))):
            mine = rows == i
            if wanted[i] == 0 or room[i] <= 0:
                why = (f"quadrature budget of {budget} panels exhausted"
                       if wanted[i] else "non-finite integrand")
                failures[i] = NoConvergence(
                    f"{why}: {count[i]} panels, error {total_err[i]:.3e} "
                    f"against target {target[i]:.3e}")
                split &= ~mine
            else:   # bisect only the room[i] largest errors, ties or not
                cand = np.flatnonzero(split & mine)
                split[cand[np.argsort(err[cand])[:-room[i]]]] = False
        if not split.any():
            continue
        sr, sa, sb = rows[split], lo[split], hi[split]
        mid = 0.5 * (sa + sb)
        nval, nerr, nabs = evaluate(np.concatenate([sr, sr]),
                                    np.concatenate([sa, mid]),
                                    np.concatenate([mid, sb]))
        keep = ~split
        rows = np.concatenate([rows[keep], sr, sr])
        lo = np.concatenate([lo[keep], sa, mid])
        hi = np.concatenate([hi[keep], mid, sb])
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])
        resabs = np.concatenate([resabs[keep], nabs])


def integrate_rows(f, n_rows, scale, rel_tol):
    """Integrate n_rows integrands over [0, inf) at once, each to its target.

    Each row is mapped as in :func:`integrate_semi_infinite`, onto t in
    [0, 1] with k = scale*t/(1-t), and starts from ROW_PANELS equal GK 7/15
    panels.  The panels of all rows are refined together by
    :func:`_refine`, which calls ``f(rows, k)`` once per round, where
    ``rows`` (shape (m, 1)) names each panel's row and k has shape (m, 15).
    Each row is held to the target of :func:`adaptive_gk` on its own
    Kronrod-minus-Gauss estimate, within DEFAULT_INTERVAL_BUDGET panels.
    A row that fails keeps its NoConvergence in ``failures`` rather than
    raising it, so that the caller decides whether the row is needed.
    """
    _check_mapping(scale, rel_tol)

    def sample(rows, t):
        u = 1.0 - t
        return f(rows, scale * t / u) * (scale / (u * u))

    return _refine(sample, n_rows, *_row_seeds(n_rows), rel_tol, 0.01,
                   DEFAULT_INTERVAL_BUDGET)


@functools.lru_cache(maxsize=128)
def _row_seeds(n_rows):
    """Read-only (rows, lo, hi) of the ROW_PANELS seed panels of n_rows rows.

    Built once per row count: a Matsubara call usually ends in one round,
    which makes the set-up a fixed cost of the call.  _refine never writes
    to its input arrays.
    """
    edges = np.linspace(0.0, 1.0, ROW_PANELS + 1)
    seeds = (np.repeat(np.arange(n_rows), ROW_PANELS),
             np.tile(edges[:-1], n_rows), np.tile(edges[1:], n_rows))
    for a in seeds:
        a.flags.writeable = False
    return seeds


def composite_gk(f, edges, rel_tol, floor_frac=0.01):
    """Composite Gauss-Kronrod integration over a seeded panel list.

    The panels are refined by :func:`_refine` as one row: a single
    vectorized call per refinement round, and every panel whose local
    error exceeds half its fair share of the target is bisected.  Seeding
    the panels on the natural oscillation scale of the integrand makes
    this efficient for strongly oscillatory integrands where a
    single-root bisection tree would be wasteful.  At most
    COMPOSITE_PANEL_BUDGET panels are used; a non-finite integrand or an
    exhausted budget raises NoConvergence.

    Parameters
    ----------
    f : callable
        Vectorized integrand (ndarray in, ndarray out).
    edges : array_like
        Strictly increasing panel edges; the integral runs over
        [edges[0], edges[-1]].
    rel_tol : float
        Relative tolerance.
    floor_frac : float
        Weight of the integral-of-|f| term in the tolerance floor.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    if a.size < 1 or np.any(b <= a):
        raise ValueError("edges must be strictly increasing with >= 2 entries")

    def sample(rows, x):
        return np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)

    res = _refine(sample, 1, np.zeros(a.size, dtype=int), a, b, rel_tol,
                  floor_frac, COMPOSITE_PANEL_BUDGET)
    value, error = res.row(0)
    # every bisection adds one panel and evaluates two
    return IntegralResult(value, error,
                          _XGK.size * (2 * int(res.panels[0]) - a.size))


def matsubara_ceiling(d, T):
    """Index ceiling of :func:`matsubara_sum`, max(50, ceil(10*nu)).

    nu = c/(2 d xi_1) with xi_1 = 2 pi k_B T / hbar; terms fall like
    exp(-n/nu).
    """
    xi1 = 2.0 * math.pi * K_B * T / HBAR
    return max(50, math.ceil(10.0 * C / (2.0 * d * xi1)))


def matsubara_sum(term, d, T, rel_tol):
    """Sum term(n) over Matsubara indices with half-weighted n = 0.

    Accumulates until three consecutive terms fall below
    ``rel_tol * |partial sum|`` and the geometric tail bound is within
    tolerance.  The index ceiling is :func:`matsubara_ceiling`.  At the
    ceiling, NoConvergence reports the last |term|/|sum|, the decay ratio
    of the last two terms and the tolerance the stopping rule did meet.
    """
    if d <= 0 or T <= 0:
        raise ValueError("d and T must be positive")
    ceiling = matsubara_ceiling(d, T)
    total = 0.5 * term(0)
    streak = 0
    prev = None
    recent = []     # |term|/|sum| of the last three terms
    n = 0
    while n < ceiling:
        n += 1
        t = term(n)
        total += t
        streak = streak + 1 if abs(t) <= rel_tol * abs(total) else 0
        recent = recent[-2:] + [abs(t) / abs(total) if total else math.inf]
        if prev and abs(t) < abs(prev):
            ratio = abs(t) / abs(prev)
            tail = abs(t) * ratio / (1.0 - ratio)
        else:
            ratio = None
            tail = abs(t)
        if streak >= 3 and tail <= rel_tol * abs(total):
            return SumResult(total, n, tail)
        prev = t
    met = max(recent + [tail / abs(total) if total else math.inf])
    decay = "no decay" if ratio is None else f"decay ratio {ratio:.4g}"
    raise NoConvergence(
        f"Matsubara sum reached n = {n} of the index ceiling {ceiling} "
        f"before the tail bound met rel_tol={rel_tol:g}: last |term|/|sum| "
        f"{recent[-1]:.3e}, {decay}, tolerance met {met:.3e}")


def fit_power_law(points):
    """Least-squares slope of log y versus log x.

    Returns
    -------
    (exponent, r_squared)
    """
    if len(points) < 3:
        raise DegenerateSweep("power-law fit needs at least 3 points")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise NonPositiveData("power-law fit needs positive coordinates")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def integrate_real_frequency(g, omega_cap, rel_tol, seed_panels=16):
    """Integrate a scalar g over [0, omega_cap] with plateau handling at 0.

    g must be bounded toward omega -> 0; the lower panel edge omega_min is
    pushed down until g settles (g(omega_min), g(2*omega_min) and
    g(4*omega_min) pairwise within rel_tol) or until the remaining strip is
    negligible against the integrand scale (covers integrands that decay to
    zero, e.g. like sqrt(omega), without ever satisfying a relative test).
    The [0, omega_min] strip then contributes the plateau rectangle
    g(omega_min)*omega_min.  The panel-wise integration over
    [omega_min, omega_cap] is seeded with ``seed_panels`` uniform panels
    (choose one per half-oscillation for oscillatory integrands) plus a
    logarithmic ramp covering the small-omega decades, and integrated by
    :func:`composite_gk` with floor weight FREQUENCY_FLOOR_FRAC.
    """
    if omega_cap <= 0:
        raise ValueError("omega_cap must be positive")
    if seed_panels < 1:
        raise ValueError("seed_panels must be >= 1")

    def close(p, q):
        return abs(p - q) <= rel_tol * 0.5 * (abs(p) + abs(q)) + 1e-300

    nvals = 0
    w = omega_cap / 16.0
    floor = omega_cap * 1e-12
    scale = None
    while w > floor:
        g_lo, g_hi, g_hi2 = g(w), g(2.0 * w), g(4.0 * w)
        nvals += 3
        if scale is None:
            # magnitude reference for the negligible-strip test, frozen at
            # the first probe so a divergent integrand cannot inflate it
            scale = max(abs(g_lo), abs(g_hi), abs(g_hi2))
        if close(g_lo, g_hi) and close(g_hi, g_hi2):
            plateau_err = abs(g_lo - g_hi) * w
            break
        strip_bound = (abs(g_lo) + abs(g_hi)) * w
        if strip_bound <= rel_tol * FREQUENCY_FLOOR_FRAC * scale * omega_cap:
            plateau_err = strip_bound
            break
        w *= 0.5
    else:
        raise NoPlateau("integrand does not settle toward omega = 0; "
                        "the model may be singular there")

    def gv(xs):
        return np.array([g(x) for x in np.atleast_1d(xs)])

    first = omega_cap / seed_panels
    if w < first:
        ramp = np.geomspace(w, first, 9)
        edges = np.concatenate([ramp[:-1],
                                np.linspace(first, omega_cap, seed_panels + 1)])
    else:
        edges = np.linspace(w, omega_cap, seed_panels + 1)
    res = composite_gk(gv, edges, rel_tol, FREQUENCY_FLOOR_FRAC)
    plateau = g_lo * w
    return IntegralResult(res.value + plateau,
                          res.error_estimate + plateau_err,
                          res.evaluations + nvals)
