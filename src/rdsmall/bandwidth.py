"""Data-driven bandwidth selection for boundary local-linear regression.

Three selectors:

* ``silverman_rot`` — the density rule of thumb 0.9 * s* * n^(-1/5) with
  s* = min(IQR/1.34, sd).  Method-free, so it anchors the study-size metric.
* ``ik_bandwidth`` — plug-in minimizer of the asymptotic MSE of the LATE
  estimator, with a regularization term that keeps the bandwidth finite when
  the two one-sided curvature estimates nearly cancel.
* ``ak_bandwidth`` — direct finite-sample MSE minimization under a global
  second-derivative bound M (user supplied, or estimated by
  ``estimate_m_hat``).

A selector that cannot choose a bandwidth raises an ``RDError`` whose
``reason`` tags the stage that could not run (``pilot_cubic``, ...) and whose
message names it in words; the Monte Carlo harness counts that tag.
Responses whose squares overflow raise ``NonFiniteError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RDSample
from .errors import (
    BadBandwidthError,
    DegenerateSampleError,
    EmptyWindowSideError,
    InsufficientDataError,
    NonFiniteError,
    ZeroCurvatureBoundError,
)
from .local_poly import Kernel, local_poly_fit, power_columns

# Pilot constants for the plug-in selector.  The first-stage window is
# 1.84 * s* * n^(-1/5); the curvature-stage windows scale the variance/
# curvature ratio to the n^(-1/7) rate optimal for second-derivative
# estimation; 2160 is the variance constant of a one-sided quadratic fit's
# second-derivative estimate, which sizes the regularization term.
_PILOT_H1_FACTOR = 1.84
_PILOT_H2_FACTOR = 3.56
_PILOT_H2_RATE = 1.0 / 7.0
_REGULARIZATION_CONST = 2160.0
# Floor on the squared third-derivative estimate in the curvature-stage
# window formula, in natural response/score units.  Keeps the window finite
# on locally-cubicless data; note it is unit dependent, so exact scale
# equivariance of the selector holds only while the floor is not binding.
_M3_FLOOR = 0.01
# The triangular kernel's boundary local-linear AMSE constant C_K, on the
# fifth-root scale: with one-sided moments nu_j = integral of u^j (1 - u) on
# [0, 1], bias constant b = (nu2^2 - nu1 nu3) / (nu0 nu2 - nu1^2) and
# variance constant v = integral of ((nu2 - nu1 u)(1 - u))^2 / (nu0 nu2 -
# nu1^2)^2, v / b^2 = 480 exactly (Imbens and Kalyanaraman, 2012).
_IK_KERNEL_CONSTANT = 480.0 ** 0.2
# Candidate bandwidths on the bounded-curvature selector's logarithmic grid,
# and the candidates in one block of its exact sweep.  A row sums over its
# block's widest window: the block fixes the pick's rounding and so its bytes.
_AK_GRID_SIZE = 100
_AK_BLOCK = 32


@dataclass(frozen=True)
class CurvatureBound:
    """Global bound M on |second derivative of the mean function|."""

    value: float

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0:
            raise NonFiniteError(f"curvature bound must be finite and >= 0, got {self.value}")


@dataclass(frozen=True)
class BandwidthResult:
    """A selected bandwidth; a selector that cannot choose raises, so ``ok`` is true."""

    h: float
    diagnostics: dict = field(default_factory=dict, compare=False)
    ok = True


def _quartiles(x: np.ndarray) -> tuple[float, float]:
    """The 25th and 75th percentiles by numpy's ``linear`` method, written out.

    Bit for bit ``np.percentile(x, (25, 75))``, whose first call imports
    ``numpy.ma``: the same partition, on the same kth indices, puts the same
    values (the same signed zeros) at each virtual index (n - 1) q, and the
    interpolation is ``_lerp``'s two-branch form.  Needs n >= 2; overflow
    is the caller's.
    """
    n = x.size
    lo, hi = (n - 1) * 0.25, (n - 1) * 0.75
    i, j = int(lo), int(hi)  # floors: lo, hi >= 0
    xs = np.partition(x, sorted({0, -1, i, i + 1, j, j + 1}))

    def lerp(v, k):
        a, b, g = float(xs[k]), float(xs[k + 1]), v - k
        return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g

    return lerp(lo, i), lerp(hi, j)


def _distinct_count(x: np.ndarray) -> int:
    """``np.unique(x).size`` (-0.0 equals 0.0) without importing ``numpy.ma``."""
    return int(np.count_nonzero(np.diff(np.sort(x)))) + 1


def _sample_spread(x: np.ndarray) -> float:
    """s* = min(IQR/1.34, sd), linear-interpolation quartiles, sd with ddof=1.

    An sd that overflows (x near 1e154 and up) leaves the IQR to decide; a
    spread that is not finite raises NonFiniteError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q25, q75 = _quartiles(x)
        iqr = q75 - q25
        sd = float(np.std(x, ddof=1))
    s = min(iqr / 1.34, sd) if np.isfinite(sd) else iqr / 1.34
    if not np.isfinite(s):
        raise NonFiniteError("the spread of the running variable is not finite "
                             "(x near 1e308)")
    return s


def silverman_rot(x) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(IQR/1.34, sd) * n^(-1/5)."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DegenerateSampleError(f"need n >= 2, got n={x.size}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("running variable contains NaN or inf")
    s = _sample_spread(x)
    if s <= 0:
        raise DegenerateSampleError("running variable has zero spread")
    return 0.9 * s * x.size ** (-0.2)


def silverman_rot_population(iqr: float, sd: float, n: int) -> float:
    """Population rule of thumb 0.9 * min(iqr/1.34, sd) * n^(-1/5).

    Callers choose the scale of (iqr, sd); the study-size metric is invariant
    to that choice as long as cutoff and spread use the same scale.
    """
    if not (np.isfinite(iqr) and np.isfinite(sd)) or iqr <= 0 or sd <= 0:
        raise DegenerateSampleError(f"population iqr/sd must be positive, got {iqr}, {sd}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 0.9 * min(iqr / 1.34, sd) * n ** (-0.2)


# ---------------------------------------------------------------------------
# Plug-in selector
# ---------------------------------------------------------------------------


def _variance(v: np.ndarray) -> float:
    """Sample variance; exactly 0 for equal values, whose mean can round
    away from them."""
    return float(np.var(v, ddof=1)) if np.ptp(v) else 0.0


def _pilot_stage(sample: RDSample):
    """First pilot stage: density and per-side response variances at the cutoff.

    Returns (f_hat, s2_below, s2_above).  Raises a tagged ``RDError`` when a
    stage cannot run, and NonFiniteError when a variance overflows.  Both
    sides must be nonempty, so n >= 2.
    """
    x, y, c = sample.x, sample.y, sample.cutoff
    s_star = _sample_spread(x)
    if s_star <= 0:
        raise DegenerateSampleError("ik density pilot: x has zero spread",
                                    reason="degenerate_running_variable")
    h1 = _PILOT_H1_FACTOR * s_star * x.size ** (-0.2)
    below = sample.below[x[sample.below] >= c - h1]
    above = sample.above[x[sample.above] <= c + h1]
    n1m, n1p = below.size, above.size
    if n1m < 2 or n1p < 2:
        raise InsufficientDataError(f"ik variance pilot: {n1m} below, {n1p} above the "
                                    "cutoff, 2 a side needed", reason="pilot_variance")
    f_hat = (n1m + n1p) / (2.0 * x.size * h1)
    with np.errstate(over="ignore"):  # raised as NonFiniteError below
        s2m, s2p = _variance(y[below]), _variance(y[above])
    if not np.isfinite(s2m + s2p):
        raise NonFiniteError("pilot variance of y is not finite (y near 1e154 and up)")
    if s2m + s2p <= 0:
        raise DegenerateSampleError("ik variance pilot: y is constant on each side",
                                    reason="pilot_variance_zero")
    return f_hat, s2m, s2p


def ik_bandwidth(sample: RDSample) -> BandwidthResult:
    """Regularized plug-in bandwidth for the boundary local-linear LATE.

    Pipeline: (i) rule-of-thumb pilot window gives f_hat(c) and per-side
    variances; (ii) a global cubic with an intercept jump sizes one-sided
    quadratic windows, whose fits give the one-sided curvatures mu''+-(c);
    (iii) a regularization term r = sum of 2160 * s2 / (N2 * h2^4) is added
    to the squared curvature difference.  The bandwidth, for the triangular
    kernel, is

        C_K * [ (s2+ + s2-) / (n * f_hat * ((mu''+ - mu''-)^2 + r)) ]^(1/5)

    which has the n^(-1/5) rate and is exactly scale equivariant while the
    curvature-window floor is not binding.  A stage that cannot run raises an
    ``RDError`` tagged with its name (``pilot_cubic``, ...); a response whose
    spread or pilot variances overflow (y near 1e154 and up) raises
    ``NonFiniteError``, and so do scores so far apart that f_hat * m3^2
    underflows to 0 (near 1e307), tagged ``pilot_curvature_below``.
    """
    if sample.empty_side is not None:
        raise EmptyWindowSideError(f"ik: no observations {sample.empty_side} the cutoff")

    f_hat, s2m, s2p = _pilot_stage(sample)

    x, y, c = sample.x, sample.y, sample.cutoff
    n = sample.n
    u = x - c

    # Global cubic with a jump dummy; its cubic coefficient estimates the
    # third derivative used to size the curvature windows.
    scale = max(np.abs(u).max(), 1e-300)
    t = u / scale
    jump = np.zeros(n)
    jump[sample.above] = 1.0
    design = np.column_stack([np.ones(n), jump, t, t**2, t**3])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 5:
        raise InsufficientDataError(f"ik cubic pilot: design of rank {rank}, 5 needed",
                                    reason="pilot_cubic")
    # a spread that overflows raises NonFiniteError below, and so does an
    # f_hat * m3^2 that is not a positive number: the cubic term overflows at
    # scores close together, f_hat underflows at scores near 1e307
    with np.errstate(over="ignore", divide="ignore"):
        y_sd = float(np.std(y))
        # a response linear on each side with one slope leaves only roundoff
        # in the cubic coefficient; snap it to zero, as estimate_m_hat does
        # the curvature, so that roundoff does not size the curvature windows
        m3 = 6.0 * coef[4] / scale**3 if abs(coef[4]) >= 1e-8 * y_sd else 0.0
        # a float, so that s2 / f_m3sq overflows to inf without a warning
        f_m3sq = float(f_hat * max(m3**2, _M3_FLOOR))
    if not np.isfinite(y_sd):
        raise NonFiniteError("ik cubic pilot: the standard deviation of y is not finite")

    curvature = {}
    regularization = 0.0
    for side, s2, n_side in (("below", s2m, sample.n_below), ("above", s2p, sample.n_above)):
        if not 0.0 < f_m3sq < np.inf:
            raise NonFiniteError(f"ik curvature pilot {side} the cutoff: f_hat * m3^2 is "
                                 f"{f_m3sq}, not a positive finite number",
                                 reason=f"pilot_curvature_{side}")
        h2 = _PILOT_H2_FACTOR * (s2 / f_m3sq) ** _PILOT_H2_RATE * n_side ** (-_PILOT_H2_RATE)
        try:
            fit = local_poly_fit(sample, side, degree=2, h=h2, kernel=Kernel.UNIFORM)
        except (InsufficientDataError, BadBandwidthError) as err:
            raise InsufficientDataError(f"ik curvature pilot {side} the cutoff: {err}",
                                        reason=f"pilot_curvature_{side}") from None
        curvature[side] = float(fit.weights @ y)
        regularization += _REGULARIZATION_CONST * s2 / (fit.n_effective * h2**4)

    curv_gap = curvature["above"] - curvature["below"]
    denom = n * f_hat * (curv_gap**2 + regularization)
    h = _IK_KERNEL_CONSTANT * ((s2m + s2p) / denom) ** 0.2 if denom > 0 else 0.0
    if not np.isfinite(h) or h <= 0:
        raise NonFiniteError(f"ik bandwidth is {h}, not a positive finite number",
                             reason="nonfinite_result")
    return BandwidthResult(float(h))


# ---------------------------------------------------------------------------
# Bounded-curvature selector
# ---------------------------------------------------------------------------


def _grid_objective(u: np.ndarray, sig2: np.ndarray, grid: np.ndarray):
    """One side's worst-case-bias and variance loadings at every candidate.

    Evaluates the triangular-kernel degree-1 intercept-extraction weights in
    closed form (the 2x2 normal equations), u sorted by |u|:

        w_i = k(t_i) (S2 - S1 t_i) / (S0 S2 - S1^2),  t_i = u_i / h

    and returns (feasible, bias_load, variance) with
    bias_load = sum |w_i| u_i^2 and variance = sum w_i^2 sig2_i; candidates
    with fewer than two in-window points or a numerically singular design are
    marked infeasible.  A row sums over its _AK_BLOCK block's widest window:
    this arithmetic decides ak's pick.  Must agree with ``local_poly_fit``
    weights (tested).
    """
    absu = np.abs(u)
    k_count = grid.size
    feasible = np.zeros(k_count, dtype=bool)
    bias_load = np.full(k_count, np.inf)
    variance = np.full(k_count, np.inf)
    counts = np.searchsorted(absu, grid, side="left")

    for start in range(0, k_count, _AK_BLOCK):
        rows = slice(start, min(start + _AK_BLOCK, k_count))
        m_max = int(counts[rows].max())
        if m_max < 2:
            continue
        h = grid[rows, None]
        t = u[None, :m_max] / h
        w = np.maximum(Kernel.TRIANGULAR.weight(t), 0.0)  # +0.0 at |t| >= 1
        s0 = w.sum(axis=1)
        wt = w * t
        s1 = wt.sum(axis=1)
        s2 = (wt * t).sum(axis=1)
        det = s0 * s2 - s1**2
        ok = (counts[rows] >= 2) & (det > 1e-12 * np.maximum(s0 * s2, s1**2))
        safe_det = np.where(ok, det, 1.0)
        w_int = w * (s2[:, None] - s1[:, None] * t) / safe_det[:, None]
        bias_load[rows] = np.where(
            ok, (np.abs(w_int) * t**2).sum(axis=1) * h[:, 0] ** 2, np.inf
        )
        variance[rows] = np.where(
            ok, (w_int**2 * sig2[None, :m_max]).sum(axis=1), np.inf
        )
        feasible[rows] = ok
    return feasible, bias_load, variance


def _screen_loads(dist: list, sig2: list, grid: np.ndarray):
    """(sure, bias, bias_err, var, var_err), each of shape (2, G): both sides'
    bias loads and variances at every candidate from prefix sums, and bounds on
    their distance from ``_grid_objective``'s.

    ``dist`` holds each side's sorted |x - c|, ``sig2`` their variances.  With
    a = |x - c| / grid[-1] in [0, 1] and r = grid[-1] / h, a window's m points
    give T_j = r^j sum a^j, U_j = r^j sum sig2 a^j (j <= 4), the moments s_j =
    T_j - T_(j+1) and det = s0 s2 - s1^2.  A weight is q(t) / det, q(t) = (1 -
    t)(s2 - s1 t) = c0 + c1 t + c2 t^2, so the variance is sum c_j c_k U_(j+k)
    / det^2 and the bias load h^2 sum t^2 |q(t)| / det; q changes sign at s2/s1.

    Bound: |X| is X summed over absolute values, with one smallest normal per
    prefix-sum term for underflow.  Rounding at depth d moves X by at most
    d eps |X| to first order (Higham, 2002, sec. 3.1).  Here and in the sweep
    det, the variance's numerator N and the bias load's B have depth < 2 (m +
    8) and size <= |X| (a point put on the wrong side of the sign change costs
    twice its rounding), so the two differ by E_X <= 4 (m + 8) eps |X|.  With
    det > E_det, by convexity the variance is within (N + E_N) / (det -
    E_det)^2 - N / det^2 of the screen's, the bias load likewise.  A side is
    sure when it holds two points and det - E_det > 2e-12 (max(s0 s2, s1^2) +
    E_det), so the sweep's 1e-12 test passes.
    """
    top, n_b = grid[-1], dist[0].size
    a = np.concatenate([[0.0], dist[0] / top, [0.0], dist[1] / top])  # a 0 opens each side
    sums = np.empty((9, a.size))  # rows a^j (j = 1..4), then sig2 a^j (j = 0..4)
    sums[0], sums[1] = a, a * a
    sums[2], sums[3] = sums[1] * a, sums[1] * sums[1]
    sums[4] = np.concatenate([[0.0], sig2[0], [0.0], sig2[1]])
    np.multiply(sums[:4], sums[4], out=sums[5:])
    for side in (sums[:, :n_b + 1], sums[:, n_b + 1:]):
        np.cumsum(side, axis=1, out=side)
    start, m = np.array([[0], [n_b + 1]]), np.stack([np.searchsorted(d, grid) for d in dist])
    a_sums, s_sums = np.split(np.concatenate([m[None], sums[:, start + m]]), 2)  # a^0 sums to m
    r_pow = (top / grid) ** np.arange(5)[:, None, None]
    fp = np.finfo(float)
    t_sum, t_size = r_pow * a_sums, r_pow * (a_sums + fp.tiny)
    u_sum, u_size = r_pow * s_sums, r_pow * (s_sums + fp.tiny * (1.0 + s_sums[0]))

    mom, mom_size = t_sum[:3] - t_sum[1:4], t_size[:3] + t_size[1:4]
    det = mom[0] * mom[2] - mom[1] ** 2
    coef = np.stack([mom[2], -mom[1] - mom[2], mom[1]])
    coef_size = np.stack([mom_size[2], mom_size[1] + mom_size[2], mom_size[1]])
    hankel = np.add.outer(np.arange(3), np.arange(3))
    num = np.einsum("i...,ij...,j...->...", coef, u_sum[hankel], coef)
    num_size = np.einsum("i...,ij...,j...->...", coef_size, u_size[hankel], coef_size)
    # points below the sign change, at a = s2 / (s1 r), count with a plus sign
    split = mom[2] / (mom[1] * r_pow[1])
    p = np.minimum(m, [np.searchsorted(d / top, at) for d, at in zip(dist, split)])
    a_split = sums[1:4, start + p]
    b_num = np.einsum("j...,j...->...", coef, 2.0 * r_pow[2:] * a_split - t_sum[2:])
    b_size = np.einsum("j...,j...->...", coef_size,
                       2.0 * r_pow[2:] * (a_split + fp.tiny) + t_size[2:])

    gamma = 4.0 * (m + 8) * fp.eps
    det_err = gamma * (mom_size[0] * mom_size[2] + mom_size[1] ** 2)
    det_lo = det - det_err
    bias, var = b_num / det * grid**2, num / det**2
    # plus a subnormal rounding of the product with h^2, here and in the sweep
    bias_err = (b_num + gamma * b_size) / det_lo * grid**2 - bias + 2.0 * fp.smallest_subnormal
    var_err = (num + gamma * num_size) / det_lo**2 - var
    sure = (m >= 2) & (det_lo > 2e-12 * (np.maximum(mom[0] * mom[2], mom[1] ** 2) + det_err))
    return sure, bias, bias_err, var, var_err


def ak_bandwidth(
    sample: RDSample,
    bound: CurvatureBound,
    *,
    sigma2: np.ndarray,
) -> BandwidthResult:
    """Minimize the finite-sample MSE proxy worst-case-bias^2 + variance.

    For each of _AK_GRID_SIZE candidates h on a logarithmic grid from the
    second-smallest per-side distance to the full data range, the degree-1
    triangular-kernel boundary fits give combined weights w; the candidate's
    score is

        (M/2 * sum |w_i| (x_i-c)^2)^2  +  sum w_i^2 sigma2_i

    with sigma2 the sample's nearest-neighbor residual variances
    (``nn_variance``).  The minimizer is returned; ties break toward
    smaller h.  The score depends on the response only through sigma2, so
    re-running with frozen sigma2 and new noise gives an identical bandwidth.
    Cost: a sort per side, then ``_screen_loads`` bounds every score in O(n +
    G log n); unless one candidate is surely best, the O(G n) sweep
    ``_grid_objective`` scores every candidate.

    Raises ``ZeroCurvatureBoundError`` for a bound that is 0, or so small
    that the bias term squares to 0 at every feasible candidate though its
    loads are positive: the objective would be the variance alone.  Raises an
    ``RDError`` tagged ``empty_side``, ``insufficient_side`` or
    ``no_feasible_h`` when no candidate fits both sides, and
    ``NonFiniteError`` when the score overflows at every candidate that does
    (the squared bias bound passes the float range once M * (x - c)^2 nears
    1e154), or when the scores' range does.  ``diagnostics`` holds the grid's
    ends, ``grid_lo`` and ``grid_hi``.
    """
    if bound.value <= 0:
        raise ZeroCurvatureBoundError("bounded-curvature bandwidth requires M > 0")

    if sample.empty_side is not None:
        raise EmptyWindowSideError(f"ak: no observations {sample.empty_side} the cutoff")
    if sample.n_below < 2 or sample.n_above < 2:
        raise InsufficientDataError(f"ak: {sample.n_below} below, {sample.n_above} above, "
                                    "2 a side needed", reason="insufficient_side")

    u = sample.x - sample.cutoff
    orders = [idx[np.argsort(np.abs(u[idx]))] for idx in (sample.below, sample.above)]
    dist = [np.abs(u[order]) for order in orders]
    h_lo = max(dist[0][1], dist[1][1])  # wider windows hold two a side
    with np.errstate(over="ignore"):  # raised below
        h_hi = float(sample.x.max() - sample.x.min())
    if not np.isfinite(h_hi):
        raise NonFiniteError("ak: the range of the scores is not finite (x near 1e308)")
    if h_hi <= h_lo:
        h_hi = 2.0 * h_lo
    grid = np.geomspace(h_lo, h_hi, _AK_GRID_SIZE)
    diagnostics = {"grid_lo": float(grid[0]), "grid_hi": float(grid[-1])}

    def bias_sq(bias):  # the objective's first term, from both sides' loads in rows 0 and 1
        return (0.5 * bound.value * bias.sum(axis=0)) ** 2

    with np.errstate(all="ignore"):  # a score that is not finite is not sure
        sure, bias, bias_err, var, var_err = _screen_loads(dist, [sigma2[o] for o in orders], grid)
        lo_bias = bias_sq(np.maximum(bias - bias_err, 0.0))
        lo = lo_bias + np.maximum(var - var_err, 0.0).sum(axis=0)
        hi = bias_sq(bias + bias_err) + (var + var_err).sum(axis=0)
        sure = sure.all(axis=0) & np.isfinite(hi) & (lo_bias > 0)
        keep = (grid > h_lo) & ~(sure & (lo > np.min(hi, where=sure, initial=np.inf)))
    if keep.sum() == 1 and sure[keep].all():
        return BandwidthResult(float(grid[keep][0]), diagnostics=diagnostics)

    # a bound so small that M / 2 is 0 gives infeasible candidates NaN, dropped below
    with np.errstate(over="ignore", invalid="ignore"):
        ok, bias, var = map(np.stack, zip(*(_grid_objective(u[order], sigma2[order], grid)
                                           for order in orders)))
        feasible = ok.all(axis=0)
        if not feasible.any():
            raise InsufficientDataError("ak: no candidate bandwidth fits both sides",
                                        reason="no_feasible_h")
        if not bias_sq(bias)[feasible].any() and bias[:, feasible].any():
            raise ZeroCurvatureBoundError("ak: the bias bound squares to 0, as if M were 0")
        mse = np.where(feasible, bias_sq(bias) + var.sum(axis=0), np.inf)
    pick = int(np.argmin(mse))  # first minimum: ties break toward smaller h
    if not np.isfinite(mse[pick]):
        raise NonFiniteError("ak: the objective (worst-case bias^2 + variance) overflows "
                             "at every feasible candidate")
    return BandwidthResult(float(grid[pick]), diagnostics=diagnostics)


def estimate_m_hat(sample: RDSample) -> CurvatureBound:
    """Data-driven curvature bound from side-wise global quartic fits.

    Each side gets an ordinary least squares quartic in (x - c); the bound is
    the maximum of |second derivative of the fitted quartic| over that side's
    observed score range, maximized across sides.  Degree 4 keeps the second
    derivative a quadratic (flexible enough for strongly curved designs)
    while remaining estimable at very small samples.

    Raises
    ------
    InsufficientDataError
        A side has fewer than 5 points or fewer than 5 distinct scores.
    NonFiniteError
        A side's response standard deviation overflows (y near 1e154 and
        up), checked before the quartic's curvature is evaluated; or its
        squared score range does (max|x - c| near 1.3e154 and up), which would
        snap the bound to 0; or the bound does (scores so close together that
        scale**2 underflows).
    """
    worst = 0.0
    for name, idx in (("below", sample.below), ("above", sample.above)):
        xs = sample.x[idx]
        ys = sample.y[idx]
        if xs.size < 5 or _distinct_count(xs) < 5:
            raise InsufficientDataError(
                f"side {name} needs >= 5 points with >= 5 distinct scores "
                f"for the quartic curvature fit"
            )
        u = xs - sample.cutoff
        scale = np.abs(u).max()
        t = u / scale
        design = power_columns(t, 5)
        coef, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
        if rank < 5:
            raise InsufficientDataError(f"rank-deficient quartic design on side {name}")
        # a spread or a squared score range that overflows raises here; scores
        # so close together that scale**2 underflows give an infinite bound,
        # which CurvatureBound raises
        with np.errstate(over="ignore", divide="ignore"):
            y_sd = float(np.std(ys))
            if not np.isfinite(y_sd):
                raise NonFiniteError(f"standard deviation of y on side {name} is not finite")
            if not np.isfinite(scale**2):
                raise NonFiniteError(f"squared score range on side {name} is not finite")
            # q''(t) = 2 a2 + 6 a3 t + 12 a4 t^2, in score units divide by scale^2.
            a2, a3, a4 = coef[2], coef[3], coef[4]
            candidates = [t.min(), t.max()]
            if a4 != 0:
                vertex = -a3 / (4.0 * a4)
                if t.min() <= vertex <= t.max():
                    candidates.append(vertex)
            side_worst = max(
                abs(2 * a2 + 6 * a3 * tc + 12 * a4 * tc**2) / scale**2
                for tc in candidates
            )
            # exactly polynomial-of-degree-<=1 responses leave only least-squares
            # roundoff in the curvature coefficients; snap that to a true zero so
            # downstream rejects it explicitly instead of fitting to noise
            y_scale = max(y_sd, np.finfo(float).tiny)
            if side_worst < 1e-8 * y_scale / scale**2 or not np.ptp(ys):
                side_worst = 0.0
        worst = max(worst, side_worst)
    return CurvatureBound(float(worst))
