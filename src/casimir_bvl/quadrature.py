"""Shared numerical machinery: adaptive quadrature, Matsubara summation,
power-law slopes and the trilogarithm of the closed-form n = 0 terms.

Every integral uses the Gauss-Kronrod 7/15 rule with interval bisection.
All Kronrod nodes are interior, so integrand endpoints are never evaluated.
Integrand callables must be vectorized (ndarray in, ndarray out).
Every integral is refined by one batched loop, :func:`_refine`, over a
flat panel list of many integrals, each held to its own target; every
k_perp integral of the Matsubara route, the n = 0 TE term of plasma-like
models included, is a row of it.  A row of :func:`integrate_rows` starts
from ROW_PANELS equal panels of its mapped variable, or from panels graded
toward a knee where it turns, on which a Matsubara row meets its target in
one round, both views of one bounded cache of seed tables.  A row may carry
several components, integrands that share its panels and are each held to
their own target.  :func:`composite_gk` refines one row from the panels it
is given: the (total, evanescent) pair of :func:`integrate_real_frequency`
and the propagating k_z integrals of the real-frequency route.
:func:`adaptive_gk` refines one row from GK_SEED_PANELS equal panels of
[a, b]: the static magnetic correlator of ``bvl`` and the evanescent
k_perp integrals of the real-frequency route.
:func:`polylog3` gives Li_3 on [0, 1] in plain floats.
"""

from __future__ import annotations

import fractions
import functools
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
ROUNDING_FLOOR = 50.0 * float(np.finfo(float).eps)
#: Equal seed panels of a row of :func:`integrate_rows`, the first of them
#: cut finer on a row graded toward a knee.  The Matsubara rows
#: (lifshitz._matsubara_rows, mapped at lifshitz.ROW_SCALE/d) meet their
#: targets on them, low rows graded: over the 942 pressures of
#: scripts/route_digest.py, all 1272 calls end after one round, at 62.2
#: points per row (60.4 with equal seed panels for every row, where 228 of
#: 1522 calls took more rounds; 8 panels at scale 1/d: 120 points).
ROW_PANELS = 4
#: Equal panels :func:`adaptive_gk` seeds [a, b] with.  The static
#: magnetic correlator of ``bvl`` and the evanescent k_perp integrals of
#: the real-frequency route are its callers.
GK_SEED_PANELS = 16
#: Reach of the first seed panel of a graded row of :func:`integrate_rows`,
#: in units of the knee's mapped point t: the panel ends at the first
#: power-of-two fraction of 1/ROW_PANELS within GRADE_FIRST*t (the row's
#: halvings in :func:`_row_seed_table`).  At 2 the lowest rows of the
#: route's long sums (insulator 3.0 at 1 um, 5 K: first panel 1.7 t) end in
#: one round; at 3 or 4, 15 of 652 calls need a second.
GRADE_FIRST = 2.0
#: Most panels of one :func:`composite_gk` integral.
COMPOSITE_PANEL_BUDGET = 20000
#: Weight of the integral of |g| in the tolerance floor of
#: :func:`integrate_real_frequency` and of its negligible-strip test.  The
#: frequency integrand cancels over many oscillations, so the floor sits
#: far below the 0.01 of the other integrals.
FREQUENCY_FLOOR_FRAC = 1e-4
#: zeta(3) and zeta(2) of :func:`polylog3`.
ZETA3 = 1.2020569031595942854
ZETA2 = math.pi ** 2 / 6.0
#: 1/k^3 of the power series of :func:`polylog3`, k = 1..55: at R = 1/2
#: the terms left out are below 1e-17 of the sum.
_INV_CUBES = tuple(1.0 / k ** 3 for k in range(1, 56))
#: Coefficients of mu^(2m+2), m = 1..12, in the expansion of Li_3(e^mu)
#: about mu = 0: zeta(1 - 2m)/(2m + 2)! = -B_2m/(2m (2m + 2)!), B_2m the
#: Bernoulli numbers.  At |mu| <= ln 2 the terms left out are below 1e-17.
_LOG_SERIES = tuple(
    float(-fractions.Fraction(b) / (2 * m) / math.factorial(2 * m + 2))
    for m, b in enumerate(
        ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6",
         "-3617/510", "43867/798", "-174611/330", "854513/138",
         "-236364091/2730"), start=1))


def _gk_panels(y, h):
    """(Kronrod value, |Kronrod - Gauss|, Kronrod of |y|) of each panel.

    y holds the integrand at the 15 nodes of each panel, shape (..., m, 15),
    and h the panels' half-widths, shape (m,).
    """
    kron = h * (y @ _WGK)
    gauss = h * (y[..., _IG] @ _WG)
    return kron, abs(kron - gauss), h * (abs(y) @ _WGK)


def adaptive_gk(f, a, b, rel_tol):
    """Adaptive Gauss-Kronrod integration of a vectorized f over [a, b].

    [a, b] is cut into GK_SEED_PANELS equal panels, refined by
    :func:`_refine` as one row until the summed error estimate meets
    ``rel_tol*|I|`` or a floor of 0.01*rel_tol times the integral of |f|
    (guards against demanding impossible relative accuracy on strongly
    cancelling integrands).  Bounds other than finite a < b raise
    ValueError.  At most DEFAULT_INTERVAL_BUDGET panels are
    used; a non-finite integrand or an exhausted budget raises
    NoConvergence.  Returns (value, error_estimate, evaluations): the
    estimate adds ROUNDING_FLOOR times the integral of |f|, and the count
    takes every point f was called on.
    """
    return _gk_row(f, _gk_seeds(float(a), float(b)), rel_tol, 0.01,
                   DEFAULT_INTERVAL_BUDGET)


@functools.lru_cache(maxsize=128)
def _gk_seeds(a, b):
    """Read-only :func:`_seed_panels` of GK_SEED_PANELS equal panels of
    [a, b], built once per (a, b): the callers integrate over [0, 1], and
    the set-up would otherwise be a large part of a short call."""
    with np.errstate(invalid="ignore"):     # an infinite bound gives NaN
        seeds = _seed_panels(np.linspace(a, b, GK_SEED_PANELS + 1))
    for arr in seeds:
        arr.flags.writeable = False
    return seeds


def _check_mapping(scale, rel_tol):
    """Validate the arguments of the semi-infinite integrals."""
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
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


def _panels(rows, lo, hi):
    """(rows, lo, hi, GK 7/15 nodes, half-widths) of the panels
    (rows, lo, hi)."""
    h = 0.5 * (hi - lo)
    return rows, lo, hi, (0.5 * (lo + hi))[:, None] + h[:, None] * _XGK, h


def _refine(sample, n_rows, panels, rel_tol, floor_frac, budget):
    """Bisect the flat panel list of :func:`_panels` until every row is done.

    ``sample(rows, x)`` returns the integrand at the GK 7/15 nodes x
    (shape (m, 15)) of panels belonging to ``rows`` (shape (m, 1)), as an
    array of shape (m, 15), or (P, m, 15) for P components sharing the
    panels; every round calls it once, on all new panels.  A component
    meets its target when its summed Kronrod-minus-Gauss error is within
    ``max(rel_tol*|I|, floor_frac*rel_tol*Int|f|)``, and a row is done once
    all its components meet theirs.  Only rows that miss a target are
    refined: their panels on which a missing component's error exceeds half
    that component's even share of its target are bisected.  A reported
    error adds ROUNDING_FLOOR times Int|f| to that estimate.  Results list
    component p of row i at p*n_rows + i.  A component whose row would need
    more than ``budget`` panels, or whose error is not finite, stops; its
    NoConvergence is kept in the result's ``failures`` under that key.
    """
    def evaluate(rows, lo, hi, x, h):
        # the _gk_panels sums, stacked: shape (3, components, panels)
        return np.array(_gk_panels(
            sample(rows[:, None], x).reshape((-1,) + x.shape), h))

    rows, lo, hi, _, _ = panels
    sums = evaluate(*panels)
    n_comp = sums.shape[1]
    size = n_comp * n_rows
    offsets = _key_offsets(n_rows, n_comp)
    failures = {}
    while True:
        keys = (rows + offsets).ravel()
        total, total_err, total_abs = np.bincount(
            keys, sums.ravel(), 3 * size).reshape(3, -1)
        keys = keys[:n_comp * rows.size]      # the components' keys
        target = np.maximum(rel_tol * np.abs(total),
                            floor_frac * rel_tol * total_abs)
        count = np.bincount(keys, minlength=size)
        missing = ~(total_err <= target)      # NaN errors refine too
        if failures:
            missing[list(failures)] = False
        if not np.count_nonzero(missing):
            return RowsResult(total, total_err + ROUNDING_FLOOR * total_abs,
                              count, failures)
        err = sums[1]
        share = (target / (2.0 * count)).reshape(n_comp, -1)
        wants = missing.reshape(n_comp, -1)[:, rows] & (err > share[:, rows])
        room = budget - count
        own = np.bincount(keys[wants.ravel()], minlength=size)
        for j in np.flatnonzero(missing & ((own == 0) | (room <= 0))):
            why = (f"quadrature budget of {budget} panels exhausted"
                   if own[j] else "non-finite integrand")
            failures[j] = NoConvergence(
                f"{why}: {count[j]} panels, error "
                f"{total_err[j]:.3e} against target {target[j]:.3e}")
            missing[j] = False
            wants[j // n_rows, rows == j % n_rows] = False
        split = wants.any(axis=0)
        room = room[:n_rows]
        wanted = np.bincount(rows[split], minlength=n_rows)
        for i in np.flatnonzero(wanted > room):
            # bisect only the room[i] largest errors, ties or not, of the
            # row's first component that misses its target
            p = np.flatnonzero(missing[i::n_rows])[0]
            cand = np.flatnonzero(split & (rows == i))
            split[cand[np.argsort(err[p, cand])[:-room[i]]]] = False
        if not split.any():
            continue
        sr, sa, sb = rows[split], lo[split], hi[split]
        mid = 0.5 * (sa + sb)
        new = _panels(np.concatenate([sr, sr]), np.concatenate([sa, mid]),
                      np.concatenate([mid, sb]))
        keep = ~split
        sums = np.concatenate([sums[..., keep], evaluate(*new)], axis=2)
        rows, lo, hi = (np.concatenate([a[keep], b])
                        for a, b in zip((rows, lo, hi), new))


@functools.lru_cache(maxsize=128)
def _key_offsets(n_rows, n_comp):
    """Read-only column of the offsets that key the per-panel sums of
    :func:`_refine`: sum s of component p of row i has key
    (s*n_comp + p)*n_rows + i."""
    offsets = n_rows * np.arange(3 * n_comp)[:, None]
    offsets.flags.writeable = False
    return offsets


def integrate_rows(f, n_rows, scale, rel_tol, knees=()):
    """Integrate n_rows integrands over [0, inf) at once, each to its target.

    Each row is mapped as in :func:`integrate_semi_infinite`, onto t in
    [0, 1] with k = scale*t/(1-t), and starts from ROW_PANELS equal GK 7/15
    panels.  Row i < len(knees) with knees[i] > 0, a row that turns at
    k = knees[i], starts instead from panels graded toward
    t_i = knees[i]/(knees[i] + scale), down to within GRADE_FIRST*t_i.
    More knees than rows, or a knee that is not finite and >= 0, raise
    ValueError.  The panels of all rows are refined together by
    :func:`_refine`, which calls ``f(rows, k)`` once per round, where
    ``rows`` (shape (m, 1)) names each panel's row and k has shape (m, 15).
    f returns shape (m, 15), or (P, m, 15) for P components per row that
    share its panels; the results then hold component p of row i at
    p*n_rows + i.  Each component is held to the target of
    :func:`adaptive_gk` on its own Kronrod-minus-Gauss estimate, within
    DEFAULT_INTERVAL_BUDGET panels per row.  A component that fails keeps
    its NoConvergence in ``failures`` rather than raising it, so that the
    caller decides whether it is needed.
    """
    _check_mapping(scale, rel_tol)
    if len(knees) > n_rows or not all(0.0 <= k < math.inf for k in knees):
        raise ValueError("knees must be at most n_rows values, finite, >= 0")
    halvings = tuple(max(0, math.ceil(math.log2(
        (k + scale) / (ROW_PANELS * GRADE_FIRST * k)))) if k > 0 else 0
        for k in knees)
    seeds, seed_map = _row_seeds(halvings, n_rows)

    def sample(rows, t):
        ratio, jac = seed_map if t is seeds[3] else _unit_map(t)
        return f(rows, scale * ratio) * (scale * jac)

    return _refine(sample, n_rows, seeds, rel_tol, 0.01,
                   DEFAULT_INTERVAL_BUDGET)


def _unit_map(t):
    """(t/(1-t), 1/(1-t)^2): the scale-free node and Jacobian of the
    mapping k = scale*t/(1-t) at the nodes t."""
    u = 1.0 - t
    return t / u, 1.0 / (u * u)


def _row_seeds(halvings, n_rows):
    """Read-only :func:`_panels` of the seed panels of n_rows rows and the
    :func:`_unit_map` of their nodes (_refine writes to neither), views of
    a :func:`_row_seed_table` made once per row count: the set-up is a
    fixed cost of a one-round call.  Trailing zero halvings are dropped, so
    the calls without a graded row share tables."""
    while halvings and not halvings[-1]:
        halvings = halvings[:-1]
    tables, ends, views = _row_seed_table(
        halvings, 1 << max(6, (n_rows - 1).bit_length()))
    if n_rows not in views:
        m = int(ends[n_rows - 1])
        views[n_rows] = tuple(tuple(a[:m] for a in t) for t in tables)
    return views[n_rows]


@functools.lru_cache(maxsize=16)
def _row_seed_table(halvings, capacity):
    """(tables, ends, views) of capacity rows, a power of two: the read-only
    :func:`_panels` and :func:`_unit_map` of their seed panels, the panel
    count of rows 0..i at ends[i], and the :func:`_row_seeds` views made.

    Row i has ROW_PANELS equal panels, of which the first is cut at J
    points spaced evenly in log down to 2^-h/ROW_PANELS, h = halvings[i]
    (0 past its end) and J the least multiple of ROW_PANELS >= h: cuts lie
    at most a factor 2 apart, and h = 0 gives the equal edges, exact in
    binary.  With a multiple of ROW_PANELS panels per row, the BLAS sums of
    :func:`_gk_panels` take a panel alike wherever it lies in a call, so a
    row has the same bits in any call.  An entry takes 392 bytes a panel:
    0.10 MB for 64 equal rows, 0.81 MB for 512, 1.6 MB for 512 graded rows
    (Drude at 0.1 um and 1 K; the benchmark's graded ones: 0.11-0.12 MB).
    """
    h = np.zeros(capacity, dtype=int)
    h[:len(halvings)] = halvings
    cuts = -(-h // ROW_PANELS) * ROW_PANELS
    count = ROW_PANELS + cuts
    ends = np.cumsum(count)
    first = ends - count
    k = np.arange(ends[-1]) - np.repeat(first + cuts, count)
    step = np.repeat(h / np.maximum(cuts, 1), count)
    hi = np.where(k < 0, np.exp2(np.minimum(k, 0) * step) / ROW_PANELS,
                  (k + 1.0) / ROW_PANELS)
    lo = np.concatenate([[0.0], hi[:-1]])
    lo[first] = 0.0
    seeds = _panels(np.repeat(np.arange(capacity), count), lo, hi)
    seed_map = _unit_map(seeds[3])
    for a in seeds + seed_map:
        a.flags.writeable = False
    return (seeds, seed_map), ends, {}


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
        Vectorized integrand: N points in, N values out, or a (P, N) array
        for P components that share the panels, each held to its own
        target; value and error_estimate are then arrays of P entries.
    edges : array_like
        Finite, strictly increasing panel edges; the integral runs over
        [edges[0], edges[-1]].  Other edges raise ValueError.
    rel_tol : float
        Relative tolerance.
    floor_frac : float
        Weight of the integral-of-|f| term in the tolerance floor.
    """
    return IntegralResult(*_gk_row(f, _seed_panels(edges), rel_tol,
                                   floor_frac, COMPOSITE_PANEL_BUDGET))


def _seed_panels(edges):
    """:func:`_panels` of one row, a panel between each two consecutive
    edges; ValueError unless the edges are finite and strictly
    increasing, with at least two of them."""
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    if a.size < 1 or not np.isfinite(edges).all() or np.any(b <= a):
        raise ValueError("edges must be finite and strictly increasing "
                         "with >= 2 entries")
    return _panels(np.zeros(a.size, dtype=int), a, b)


def _gk_row(f, seeds, rel_tol, floor_frac, budget):
    """(value, error_estimate, evaluations) of a vectorized f over the
    :func:`_seed_panels` seeds, refined by :func:`_refine` as one row of
    at most ``budget`` panels; arrays of P entries for an f of P
    components.  The first failed component's NoConvergence is raised."""

    def sample(rows, x):
        return np.asarray(f(x.ravel()), dtype=float).reshape((-1,) + x.shape)

    res = _refine(sample, 1, seeds, rel_tol, floor_frac, budget)
    if res.failures:
        raise res.failures[min(res.failures)]
    value, error = res.values, res.errors
    if value.size == 1:
        value, error = float(value[0]), float(error[0])
    # every bisection adds one panel and evaluates two
    return value, error, _XGK.size * (2 * int(res.panels[0]) - seeds[0].size)


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
    last = 0.0      # |previous term|
    near = ceiling - 3
    recent = []     # |term|/|sum| of the last three indices
    for n in range(1, ceiling + 1):
        t = term(n)
        total += t
        mag, mag_total = abs(t), abs(total)
        if mag <= rel_tol * mag_total:
            streak += 1
        else:
            streak = 0
        if streak >= 3 or n > near:
            if last and mag < last:     # the geometric tail of the decay
                ratio = mag / last
                tail = mag * ratio / (1.0 - ratio)
            else:
                ratio, tail = None, mag
            if streak >= 3 and tail <= rel_tol * mag_total:
                return SumResult(total, n, tail)
            if n > near:
                recent.append(mag / mag_total if mag_total else math.inf)
        last = mag
    met = max(*recent, tail / mag_total if mag_total else math.inf)
    decay = "no decay" if ratio is None else f"decay ratio {ratio:.4g}"
    raise NoConvergence(
        f"Matsubara sum reached n = {n} of the index ceiling {ceiling} "
        f"before the tail bound met rel_tol={rel_tol:g}: last |term|/|sum| "
        f"{recent[-1]:.3e}, {decay}, tolerance met {met:.3e}")


def polylog3(R):
    """Trilogarithm Li_3(R) = sum_k R^k/k^3 of a float R in [0, 1].

    For R <= 1/2 the power series is summed by Horner's rule.  Above, the
    expansion in mu = ln R about mu = 0 is used (D. C. Wood, "The computation
    of polylogarithms", Univ. of Kent TR 15-92, 1992):
    Li_3(e^mu) = zeta(3) + zeta(2) mu + (3/4 - ln(-mu)/2) mu^2 - mu^3/12
    + sum_m zeta(1 - 2m) mu^(2m+2)/(2m + 2)!, its terms added exactly by
    ``math.fsum``.  Li_3(1) is zeta(3).  Raises ValueError outside [0, 1].
    """
    if not 0.0 <= R <= 1.0:
        raise ValueError(f"polylog3 needs R in [0, 1], got {R!r}")
    if R <= 0.5:
        total = 0.0
        for c in reversed(_INV_CUBES):
            total = total * R + c
        return total * R
    if R == 1.0:
        return ZETA3
    mu = math.log(R)
    mu2 = mu * mu
    tail = 0.0
    for c in reversed(_LOG_SERIES):
        tail = tail * mu2 + c
    return math.fsum((ZETA3, ZETA2 * mu,
                      mu2 * (0.75 - 0.5 * math.log(-mu)),
                      -mu2 * mu / 12.0, tail * mu2 * mu2))


def power_law_slopes(x, y):
    """Least-squares slope of log y against log x for each row of y.

    x holds n positive abscissae and y an (rows, n) array of positive
    ordinates.  The slope is the centred closed form sum(dx dy)/sum(dx^2),
    dx and dy the deviations of log x and of each row of log y from their
    means.

    Returns
    -------
    (slopes, dx, dy)
    """
    if (x <= 0).any() or (y <= 0).any():
        raise NonPositiveData("power-law fit needs positive coordinates")
    lx, ly = np.log(x), np.log(y)
    dx = lx - lx.sum() / lx.size
    dy = ly - ly.sum(axis=1, keepdims=True) / lx.size
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DegenerateSweep("power-law fit needs distinct x")
    return dy @ dx / sxx, dx, dy


def integrate_real_frequency(g, omega_cap, rel_tol, seed_panels=16):
    """Integrate g over [0, omega_cap] with plateau handling at 0.

    g returns a float, or an ndarray of P components (value and error are
    then arrays), bounded toward omega -> 0.  The lower panel edge
    omega_min is halved until each component settles (g(omega_min),
    g(2*omega_min) and g(4*omega_min) pairwise within rel_tol; a halving
    samples only the new omega_min) or its remaining strip is negligible
    against its integrand scale (covers integrands that decay to zero,
    e.g. like sqrt(omega), without ever satisfying a relative test).
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

    w = omega_cap / 16.0
    floor = omega_cap * 1e-12
    scale = None
    g_hi, g_hi2 = g(2.0 * w), g(4.0 * w)
    nvals = 2
    while w > floor:
        g_lo = g(w)
        nvals += 1
        if scale is None:
            # magnitude reference for the negligible-strip test, frozen at
            # the first probe so a divergent integrand cannot inflate it
            scale = np.abs([g_lo, g_hi, g_hi2]).max(axis=0)
        settled = close(g_lo, g_hi) & close(g_hi, g_hi2)
        strip_bound = (abs(g_lo) + abs(g_hi)) * w
        negligible = (strip_bound
                      <= rel_tol * FREQUENCY_FLOOR_FRAC * scale * omega_cap)
        if np.all(settled | negligible):
            plateau_err = np.where(settled, abs(g_lo - g_hi) * w, strip_bound)
            break
        # halving w makes the old w and 2w the new 2w and 4w
        w *= 0.5
        g_hi, g_hi2 = g_lo, g_hi
    else:
        raise NoPlateau("integrand does not settle toward omega = 0; "
                        "the model may be singular there")

    def gv(xs):
        return np.array([g(x) for x in np.atleast_1d(xs)]).T

    first = omega_cap / seed_panels
    if w < first:
        ramp = np.geomspace(w, first, 9)
        edges = np.concatenate([ramp[:-1],
                                np.linspace(first, omega_cap, seed_panels + 1)])
    else:
        edges = np.linspace(w, omega_cap, seed_panels + 1)
    res = composite_gk(gv, edges, rel_tol, FREQUENCY_FLOOR_FRAC)
    if np.ndim(plateau_err) == 0:
        plateau_err = float(plateau_err)
    return IntegralResult(res.value + g_lo * w,
                          res.error_estimate + plateau_err,
                          res.evaluations + nvals)
