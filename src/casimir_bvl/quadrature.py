"""Shared numerical machinery: adaptive quadrature, Matsubara summation,
power-law fitting.

The adaptive engine is a Gauss-Kronrod 7/15 rule with interval bisection.
All Kronrod nodes are interior, so integrand endpoints are never evaluated.
Integrand callables must be vectorized (ndarray in, ndarray out).
:func:`integrate_rows` runs the same rule on many semi-infinite integrals
at once, each held to its own target.
"""

from __future__ import annotations

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
    """Per-row outcome of :func:`integrate_rows`."""

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
#: Equal panels each row of :func:`integrate_rows` starts from; fewer cost
#: more refinement rounds, each a fixed overhead for all rows.
ROW_PANELS = 16


def _gk_panels(y, h):
    """(Kronrod value, |Kronrod - Gauss|, Kronrod of |y|) of each panel.

    y holds the integrand at the 15 nodes of each panel, shape (m, 15);
    h holds the panels' half-widths.
    """
    kron = h * (y @ _WGK)
    gauss = h * (y[:, _IG] @ _WG)
    return kron, np.abs(kron - gauss), h * (np.abs(y) @ _WGK)


def _panel(f, a, b):
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _XGK
    y = np.asarray(f(x), dtype=float)
    k = h * float(_WGK @ y)
    g = h * float(_WG @ y[_IG])
    resabs = h * float(_WGK @ np.abs(y))
    return k, abs(k - g), resabs


def adaptive_gk(f, a, b, rel_tol, abs_tol=0.0,
                max_intervals=DEFAULT_INTERVAL_BUDGET):
    """Adaptive Gauss-Kronrod integration of a vectorized f over [a, b].

    Bisects the interval with the largest local error estimate until the
    accumulated estimate meets ``max(rel_tol*|I|, abs_tol)`` plus a small
    floor proportional to the integral of |f| (guards against demanding
    impossible relative accuracy on strongly cancelling integrands).
    """
    counter = itertools.count()
    val, err, resabs = _panel(f, a, b)
    heap = [(-err, next(counter), a, b, val, err, resabs)]
    total_val, total_err, total_abs = val, err, resabs
    nvals = 15
    n_intervals = 1
    while True:
        target = max(rel_tol * abs(total_val), abs_tol,
                     0.01 * rel_tol * total_abs)
        if total_err <= target:
            return total_val, total_err, nvals
        if n_intervals >= max_intervals:
            raise NoConvergence(
                f"quadrature budget of {max_intervals} intervals exhausted "
                f"(error {total_err:.3e}, target {target:.3e})")
        _, _, pa, pb, pval, perr, pabs = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        lval, lerr, labs = _panel(f, pa, mid)
        rval, rerr, rabs = _panel(f, mid, pb)
        nvals += 30
        n_intervals += 1
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        total_abs += labs + rabs - pabs
        heapq.heappush(heap, (-lerr, next(counter), pa, mid, lval, lerr, labs))
        heapq.heappush(heap, (-rerr, next(counter), mid, pb, rval, rerr, rabs))


def integrate_semi_infinite(f, scale, rel_tol, abs_tol=0.0,
                            max_intervals=DEFAULT_INTERVAL_BUDGET):
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
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not 1e-14 < rel_tol < 1e-2:
        raise ValueError("rel_tol must lie in (1e-14, 1e-2)")

    def g(t):
        u = 1.0 - t
        k = scale * t / u
        return f(k) * scale / (u * u)

    val, err, nvals = adaptive_gk(g, 0.0, 1.0, rel_tol, abs_tol, max_intervals)
    return IntegralResult(val, err, nvals)


def integrate_rows(f, n_rows, scale, rel_tol):
    """Integrate n_rows integrands over [0, inf) at once, each to its target.

    Each row is mapped as in :func:`integrate_semi_infinite`, onto t in
    [0, 1] with k = scale*t/(1-t), and starts from ROW_PANELS equal GK 7/15
    panels.  The panels of all rows live in one flat list; every
    round evaluates the 15 nodes of every new panel in a single call
    ``f(rows, k)``, where ``rows`` (shape (m, 1)) names each panel's row
    and k has shape (m, 15).  A row meets its target when its summed
    Kronrod-minus-Gauss error is within ``max(rel_tol*|I|,
    0.01*rel_tol*Int|f|)``, the target of :func:`adaptive_gk`.  Only rows
    that miss it are refined: their panels whose error exceeds half their
    even share of the target are bisected.  A row's reported error adds
    ROUNDING_FLOOR times its Int|f| to that estimate.  A row that would need
    more than DEFAULT_INTERVAL_BUDGET panels stops, and its NoConvergence is
    kept in ``failures`` rather than raised, so that the caller decides
    whether the row is needed.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not 1e-14 < rel_tol < 1e-2:
        raise ValueError("rel_tol must lie in (1e-14, 1e-2)")

    def evaluate(rows, lo, hi):
        h = 0.5 * (hi - lo)
        t = (0.5 * (lo + hi))[:, None] + h[:, None] * _XGK
        u = 1.0 - t
        return _gk_panels(
            f(rows[:, None], scale * t / u) * (scale / (u * u)), h)

    edges = np.linspace(0.0, 1.0, ROW_PANELS + 1)
    rows = np.repeat(np.arange(n_rows), ROW_PANELS)
    lo = np.tile(edges[:-1], n_rows)
    hi = np.tile(edges[1:], n_rows)
    val, err, resabs = evaluate(rows, lo, hi)
    budget = DEFAULT_INTERVAL_BUDGET
    failures = {}
    while True:
        total = np.bincount(rows, val, n_rows)
        total_err = np.bincount(rows, err, n_rows)
        total_abs = np.bincount(rows, resabs, n_rows)
        target = np.maximum(rel_tol * np.abs(total),
                            0.01 * rel_tol * total_abs)
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
            else:   # bisect only the largest errors that still fit
                split &= ~mine | (err >= np.sort(err[split & mine])[-room[i]])
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


def composite_gk(f, edges, rel_tol, abs_tol=0.0, max_panels=20000,
                 floor_frac=0.01):
    """Composite Gauss-Kronrod integration over a seeded panel list.

    All panels are evaluated with a single vectorized call per refinement
    round; every panel whose local error exceeds its fair share of the
    target is bisected.  Seeding the panels on the natural oscillation
    scale of the integrand makes this efficient for strongly oscillatory
    integrands where a single-root bisection tree would be wasteful.

    Parameters
    ----------
    f : callable
        Vectorized integrand (ndarray in, ndarray out).
    edges : array_like
        Strictly increasing panel edges; the integral runs over
        [edges[0], edges[-1]].
    rel_tol, abs_tol : float
        Tolerance targets, combined as in :func:`adaptive_gk`.
    floor_frac : float
        Weight of the integral-of-|f| term in the tolerance floor.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    if a.size < 1 or np.any(b <= a):
        raise ValueError("edges must be strictly increasing with >= 2 entries")

    def evaluate(lo, hi):
        h = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        x = (mid[:, None] + h[:, None] * _XGK[None, :]).ravel()
        return _gk_panels(
            np.asarray(f(x), dtype=float).reshape(lo.size, _XGK.size), h)

    val, err, resabs = evaluate(a, b)
    nvals = a.size * _XGK.size
    while True:
        total_val, total_err = val.sum(), err.sum()
        target = max(rel_tol * abs(total_val), abs_tol,
                     floor_frac * rel_tol * resabs.sum())
        if total_err <= target:
            return IntegralResult(float(total_val), float(total_err), nvals)
        room = max_panels - a.size
        if room <= 0:
            raise NoConvergence(
                f"composite quadrature budget of {max_panels} panels "
                f"exhausted (error {total_err:.3e}, target {target:.3e})")
        split = err > target / (2.0 * a.size)
        if not split.any():
            split = err == err.max()
        if split.sum() > room:
            split = err >= np.sort(err[split])[-room]
        sa, sb = a[split], b[split]
        mid = 0.5 * (sa + sb)
        nval, nerr, nabs = evaluate(np.concatenate([sa, mid]),
                                    np.concatenate([mid, sb]))
        nvals += 2 * sa.size * _XGK.size
        a = np.concatenate([a[~split], sa, mid])
        b = np.concatenate([b[~split], mid, sb])
        val = np.concatenate([val[~split], nval])
        err = np.concatenate([err[~split], nerr])
        resabs = np.concatenate([resabs[~split], nabs])


def integrate_real_frequency(g, omega_cap, rel_tol, seed_panels=16,
                             max_panels=20000, floor_frac=0.01):
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
    logarithmic ramp covering the small-omega decades.
    """
    if omega_cap <= 0:
        raise ValueError("omega_cap must be positive")
    if seed_panels < 1:
        raise ValueError("seed_panels must be >= 1")
    nvals = 0

    w = omega_cap / 16.0
    floor = omega_cap * 1e-12
    g_lo = g_hi = 0.0
    scale = None
    plateau_err = 0.0
    settled = False
    while w > floor:
        g_lo, g_hi, g_hi2 = g(w), g(2.0 * w), g(4.0 * w)
        nvals += 3
        if scale is None:
            # magnitude reference for the negligible-strip test, frozen at
            # the first probe so a divergent integrand cannot inflate it
            scale = max(abs(g_lo), abs(g_hi), abs(g_hi2))
        close = (abs(g_lo - g_hi) <= rel_tol * 0.5 * (abs(g_lo) + abs(g_hi))
                 + 1e-300)
        close2 = (abs(g_hi - g_hi2) <= rel_tol * 0.5 * (abs(g_hi) + abs(g_hi2))
                  + 1e-300)
        if close and close2:
            plateau_err = abs(g_lo - g_hi) * w
            settled = True
            break
        strip_bound = (abs(g_lo) + abs(g_hi)) * w
        if strip_bound <= rel_tol * floor_frac * scale * omega_cap:
            plateau_err = strip_bound
            settled = True
            break
        w *= 0.5
    if not settled:
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
    res = composite_gk(gv, edges, rel_tol, max_panels=max_panels,
                       floor_frac=floor_frac)
    plateau = g_lo * w
    return IntegralResult(res.value + plateau,
                          res.error_estimate + plateau_err,
                          res.evaluations + nvals)
