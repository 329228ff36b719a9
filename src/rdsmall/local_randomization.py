"""Fisherian randomization inference in a window around the cutoff.

Within a small symmetric window, treatment (being at or above the cutoff) is
taken as good as randomly assigned with fixed margins: every subset of
window observations of the observed treated size is an equally likely
assignment.  Under the sharp null of a constant effect tau0, responses with
tau0 removed from the treated are fixed, so the permutation distribution of
the difference in means is known exactly; p-values count assignments at
least as extreme as the observed one (ties count as extreme).

Interval estimation inverts the test over a 401-point grid of hypothesized
constant effects.  For assignment A the statistic is u_A - tau0 * v_A, and
v_A depends only on how many treated units A holds, so the assignments fall
into at most k + 1 groups that share one v.  Within a group tau0 * v is one
number t, and fl(u - t) is monotone in u: the assignments at least as
extreme as the observed one are a prefix and a suffix of the group's sorted
u.  One binary search per group and grid point finds each boundary, which
is then moved until the test's own comparison holds on its side of it.  The
counts, and so the p-values and the interval, are exactly those of
evaluating every assignment at every grid point.

A Monte Carlo draw, the k smallest of n uniform keys, is the mask of keys at
most the row's k-th smallest; a row whose (k+1)-th smallest key ties it
(chance about n * 2**-53) takes argsort's first k instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .core import EffectEstimate, RDSample
from .errors import EmptyWindowSideError, InsufficientDataError, NonFiniteError

DEFAULT_MAX_EXACT = 20_000
DEFAULT_N_MC = 999
# odd, so that the middle grid point sits at the estimate
DEFAULT_GRID_POINTS = 401
DEFAULT_GRID_SPAN_SDS = 6.0
WINDOW_POLICIES = ("strict", "capped")

# Relative slack when counting |stat| >= |observed|: exact ties recomputed
# through different float paths must still count as extreme.
_TIE_RTOL = 1e-12
# Rows of an exact table gathered at once; a row's temporaries take 16 * k bytes
_GATHER_ROWS = 2048


@dataclass(frozen=True)
class LRWindow:
    """Symmetric window [c - w, c + w] with per-side index sets."""

    half_width: float
    indices_below: np.ndarray
    indices_above: np.ndarray


def select_window(sample: RDSample, min_per_side: int = 5,
                  policy: str = "strict") -> LRWindow:
    """Smallest symmetric window holding min_per_side points per side.

    The half-width is the larger of the two per-side min_per_side-th order
    statistics of |x - c|, so one side sits exactly at its minimum count and
    the other holds at least as many.  Policy ``"strict"`` rejects a side
    with fewer than min_per_side points; ``"capped"`` caps the minimum at
    each side's size, so the method runs whenever both sides are populated,
    as the benchmark's operating characteristics assume.

    Raises
    ------
    EmptyWindowSideError
        A side of the cutoff has no observations.
    InsufficientDataError
        Strict policy only: a side has fewer than min_per_side observations.
    """
    if min_per_side < 1:
        raise ValueError(f"min_per_side must be >= 1, got {min_per_side}")
    if policy not in WINDOW_POLICIES:
        raise ValueError(f"policy must be one of {WINDOW_POLICIES}, got {policy!r}")
    if sample.empty_side is not None:
        raise EmptyWindowSideError(f"no observations {sample.empty_side} the cutoff")
    dist = np.abs(sample.x - sample.cutoff)
    per_side = []
    for name, idx in (("below", sample.below), ("above", sample.above)):
        need = min(min_per_side, idx.size) if policy == "capped" else min_per_side
        if idx.size < need:
            raise InsufficientDataError(
                f"side {name} has {idx.size} observation(s); "
                f"window needs {min_per_side}"
            )
        per_side.append(np.sort(dist[idx])[need - 1])
    w = float(max(per_side))
    inside = dist <= w
    return LRWindow(
        half_width=w,
        indices_below=sample.below[inside[sample.below]],
        indices_above=sample.above[inside[sample.above]],
    )


@lru_cache(maxsize=128)
def _exact_layout(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All k-subsets of range(n), grouped by how many of the last k they hold.

    Returns (idx, bounds, k_groups).  ``idx`` is the (n_choose_k, k) index
    array, of the narrowest unsigned dtype that holds n - 1, with rows in
    descending order of k_A, the count of indices >= n - k; group g is rows
    bounds[g]:bounds[g + 1], all with k_A = k_groups[g], built as the
    k_c-subsets of the controls (outer) times the k_A-subsets of the treated
    (inner), k_c = k - k_A, which is the lexicographic k-subsets stably sorted
    by k_A.  Row 0, the only row with k_A = k, is the observed assignment.
    The arrays are shared between calls and read-only.
    """
    n_control = n - k
    k_c = np.arange(min(k, n_control) + 1)
    bounds = np.append(0, np.cumsum([math.comb(n_control, c) * math.comb(k, c) for c in k_c]))
    idx = np.empty((bounds[-1], k), dtype=np.min_scalar_type(n - 1))
    for c, a, b in zip(k_c, bounds[:-1], bounds[1:]):
        rows = idx[a:b].reshape(-1, math.comb(k, c), k)
        rows[:, :, :c] = _k_subsets(n_control, c)[:, None]
        rows[:, :, c:] = _k_subsets(k, k - c) + n_control
    k_groups = k - k_c
    for arr in (idx, bounds, k_groups):
        arr.flags.writeable = False
    return idx, bounds, k_groups


def _k_subsets(n: int, k: int) -> np.ndarray:
    """``itertools.combinations(range(n), k)`` as an (n_choose_k, k) array."""
    c = math.comb(n, k)
    subsets = chain.from_iterable(combinations(range(n), k))
    return np.fromiter(subsets, np.intp, c * k).reshape(c, k)


def _groups(k_c: np.ndarray, k: int):
    """Order the Monte Carlo draw's rows by descending treated count
    k_A = k - k_c, stably, from each row's control count k_c; returns
    (order, bounds, k_groups)."""
    order = np.argsort(k_c, kind="stable")
    sizes = np.bincount(k_c, minlength=k + 1)
    bounds = np.concatenate([[0], np.cumsum(sizes[sizes > 0])])
    return order, bounds, k - np.flatnonzero(sizes)


def _assignment_stats(y_window: np.ndarray, n_treated: int, max_exact: int,
                      n_mc: int, rng: np.random.Generator | int | None):
    """Difference-in-means decomposition over an assignment set.

    ``y_window`` is ordered controls-then-treated.  Beyond ``max_exact``
    assignments, ``n_mc`` are drawn with ``rng``: a Generator, used as is; an
    int, its seed; or None, for fresh entropy.  Each draw is the k smallest of
    n uniform keys, a uniform k-subset (a mask, or argsort's on a tie: see
    the module docstring).  Returns
    (u, bounds, v, mode): the statistic under hypothesized effect tau0 for
    assignment A is u_A - tau0 * v_A, where v_A depends only on the treated
    count k_A.  Rows are grouped by k_A; group g is rows bounds[g]:bounds[g+1]
    and has v_A = v[g].  Row 0 is the observed assignment (u_0 = observed
    difference in means, v_0 = 1).
    """
    n = y_window.size
    k = n_treated
    n_control = n - k
    if math.comb(n, k) <= max_exact:
        idx, bounds, k_groups = _exact_layout(n, k)
        s_a = np.empty(len(idx))
        for a in range(0, len(idx), _GATHER_ROWS):
            y_window[idx[a:a + _GATHER_ROWS]].sum(axis=1, out=s_a[a:a + _GATHER_ROWS])
        mode = "exact"
    else:
        keys = np.random.default_rng(rng).random((n_mc, n))
        edge = np.sort(keys, axis=1)[:, k - 1:k + 1]
        mask = np.empty((n_mc + 1, n), dtype=bool)
        mask[0] = np.arange(n) >= n_control
        np.less_equal(keys, edge[:, :1], out=mask[1:])
        tied = np.flatnonzero(edge[:, 0] == edge[:, 1])
        if tied.size:  # more than k keys are <= the k-th: argsort picks k
            mask[1 + tied] = False
            mask[1 + tied[:, None], keys[tied].argsort(axis=1)[:, :k]] = True
        order, bounds, k_groups = _groups(mask[:, :n_control].sum(axis=1), k)
        # row by row in ascending index order: the values of y_window[idx]
        s_a = np.broadcast_to(y_window, mask.shape)[mask].reshape(-1, k).sum(axis=1)[order]
        mode = "monte_carlo"

    s_total = y_window.sum()
    u = s_a / k - (s_total - s_a) / n_control
    v = k_groups / k - (k - k_groups) / n_control
    return u, bounds, v, mode


def _p_values(u: np.ndarray, bounds: np.ndarray, v: np.ndarray,
              taus: np.ndarray) -> np.ndarray:
    """Permutation p-value at each hypothesized effect in ``taus``.

    p(tau) is the share of assignments A with |u_A - tau v_A| >= cut(tau),
    where cut is the observed |u_0 - tau| less a relative tie slack.  The
    count is the one the predicate gives on every row, found by a sweep:
    within a group tau * v_A is one number t, and fl(u - t) is monotone in
    u, so the rows meeting u - t >= cut are a suffix of the group's sorted
    u and those meeting u - t <= -cut a prefix.  ``np.searchsorted`` at
    t +- cut guesses each boundary; the guess is then moved, one distinct
    value at a time, until the predicate itself holds on its side of it.
    """
    n_rows = u.size
    observed = np.abs(u[0] - taus)
    cut = observed - _TIE_RTOL * np.maximum(1.0, observed)

    # Sorted distinct values of each group, concatenated; group g holds
    # vals[lo[g]:hi[g]], and rows_before[j] rows sort before vals[j].
    u_sorted = u.copy()
    for a, b in zip(bounds[:-1], bounds[1:]):
        u_sorted[a:b].sort()
    new = np.empty(n_rows, dtype=bool)
    np.not_equal(u_sorted[1:], u_sorted[:-1], out=new[1:])
    new[bounds[:-1]] = True
    rows_before = np.append(np.flatnonzero(new), n_rows)
    vals = u_sorted[new]
    edges = np.searchsorted(rows_before, bounds)
    lo, hi = edges[:-1, None], edges[1:, None]

    t = np.multiply.outer(v, taus)
    upper_guess = np.empty(t.shape, dtype=np.intp)
    lower_guess = np.empty(t.shape, dtype=np.intp)
    for g in range(v.size):
        seg = vals[lo[g, 0]:hi[g, 0]]
        upper_guess[g] = lo[g, 0] + np.searchsorted(seg, t[g] + cut, "left")
        lower_guess[g] = lo[g, 0] + np.searchsorted(seg, t[g] - cut, "right")

    def first_holding(holds, i):
        # The first index in [lo, hi] at which a predicate that is monotone
        # along each sorted group holds (hi where it holds nowhere).
        while True:
            back = (i > lo) & holds(i - 1)
            if not back.any():
                break
            i = i - back
        while True:
            ahead = (i < hi) & ~holds(i)
            if not ahead.any():
                break
            i = i + ahead
        return i

    def diff(j):
        return vals.take(j, mode="clip") - t

    upper = first_holding(lambda j: diff(j) >= cut, upper_guess)
    lower = first_holding(lambda j: diff(j) > -cut, lower_guess)
    counts = (rows_before[hi] - rows_before[upper]
              + rows_before[lower] - rows_before[lo]).sum(axis=0)
    # With cut <= 0 the two sides overlap and every row counts.
    counts = np.where(cut > 0, counts, n_rows)
    return counts / n_rows


def lr_interval(
    sample: RDSample,
    window: LRWindow,
    alpha: float = 0.05,
    *,
    rng: np.random.Generator | int | None = None,
) -> EffectEstimate:
    """Constant-effect point estimate and interval by test inversion.

    The point estimate is the window difference in means.  p(tau0) enumerates
    every assignment when there are at most DEFAULT_MAX_EXACT of them, and
    otherwise draws DEFAULT_N_MC with ``rng`` besides the observed one, each
    the k smallest of n uniform keys: a uniform k-subset.  The
    interval is the hull of grid values tau0 with p(tau0) > alpha, on a grid of
    DEFAULT_GRID_POINTS values centered at the point estimate spanning +-
    DEFAULT_GRID_SPAN_SDS pooled within-group standard deviations.  When the
    pooled sd is zero (to within roundoff of the responses' scale) the test
    rejects every effect other than the point or none of them, so the
    interval is the point or the call raises.  A disconnected acceptance
    region gives its hull.  ``diagnostics`` holds the assignment ``mode``
    and ``n_assignments``, the ``grid_step``, and ``grid_clipped``: the
    accepted set reaches the first or last grid point, so the interval is
    cut off by the grid, not by the test.

    Raises
    ------
    InsufficientDataError
        The window holds one observation per side, so the pooled sd that
        scales the grid has no degrees of freedom; or y is constant within
        each side and the test rejects no effect at level alpha.
    NonFiniteError
        The pooled variance overflows (responses near 1e154 and up), or the
        difference in means does; or the pooled variance underflows to 0
        while some within-side residual is beyond roundoff (responses near
        1e-162 and below), which would give a zero-width interval.  A
        response constant on each side, up to roundoff, has variance 0 and
        passes.
    """
    y_control = sample.y[window.indices_below]
    y_treated = sample.y[window.indices_above]
    if y_control.size == 0 or y_treated.size == 0:
        raise EmptyWindowSideError("both window sides must be nonempty")

    n_c, n_t = y_control.size, y_treated.size
    dof = n_c + n_t - 2
    if dof == 0:
        raise InsufficientDataError(
            "window holds one observation per side: the pooled standard "
            "deviation that scales the inversion grid has 0 degrees of freedom"
        )
    with np.errstate(over="ignore"):  # raised as NonFiniteError below
        point = float(y_treated.mean() - y_control.mean())
        resid = (y_control - y_control.mean(), y_treated - y_treated.mean())
        pooled_var = ((resid[0] ** 2).sum() + (resid[1] ** 2).sum()) / dof
    if not math.isfinite(pooled_var):
        raise NonFiniteError(f"pooled variance of the window's y is not finite ({pooled_var})")
    if not math.isfinite(point):
        raise NonFiniteError(f"difference in means of the window's y is not finite ({point})")
    y_window = np.concatenate([y_control, y_treated])
    y_scale = np.abs(y_window).max()
    # residuals beyond roundoff whose squares all underflow: y is not constant
    if pooled_var == 0 and max(np.abs(r).max() for r in resid) > _TIE_RTOL * y_scale:
        raise NonFiniteError("pooled variance of the window's y underflows to 0 "
                             "(y near 1e-162 and below)")
    pooled_sd = math.sqrt(pooled_var)

    u, bounds, v, mode = _assignment_stats(y_window, n_t, DEFAULT_MAX_EXACT,
                                           DEFAULT_N_MC, rng)
    if pooled_sd <= _TIE_RTOL * y_scale:
        # y is constant within each side (up to roundoff, which would
        # otherwise steer a grid this narrow), so u_A = point * v_A and the
        # statistic is (point - tau0) * v_A: every tau0 != point has the same
        # p, the share of assignments with |v_A| >= 1
        p_off_point = np.diff(bounds)[np.abs(v) >= 1.0].sum() / u.size
        if p_off_point > alpha:
            raise InsufficientDataError(
                f"y is constant within each window side and p = {p_off_point:.4g} "
                f"> alpha at every effect: the acceptance set is the whole real line"
            )
        # the point itself has p = 1, which roundoff in u must not undo
        grid, accepted = np.array([point]), np.array([0])
    else:
        span = DEFAULT_GRID_SPAN_SDS * pooled_sd
        grid = np.linspace(point - span, point + span, DEFAULT_GRID_POINTS)
        # The center always survives: at tau0 = point the observed statistic
        # is zero, the least extreme value, so p = 1.  linspace can miss the
        # point by roundoff, and a coarse grid may accept the center alone.
        grid[DEFAULT_GRID_POINTS // 2] = point
        accepted = np.flatnonzero(_p_values(u, bounds, v, grid) > alpha)
    lo = float(grid[accepted[0]])
    hi = float(grid[accepted[-1]])

    return EffectEstimate(
        tau_hat=point,
        se=None,
        ci_lower=lo,
        ci_upper=hi,
        bandwidth_or_window=window.half_width,
        diagnostics={
            "mode": mode,
            "n_assignments": u.size,
            "grid_step": float(grid[1] - grid[0]) if grid.size > 1 else 0.0,
            "grid_clipped": bool(grid.size > 1 and (accepted[0] == 0
                                                    or accepted[-1] == grid.size - 1)),
        },
    )
