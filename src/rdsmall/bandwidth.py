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

Selectors return a ``BandwidthResult`` rather than raising on data-dependent
failure: a pilot stage that cannot run is an outcome the Monte Carlo harness
counts, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RDSample
from .errors import (
    BadBandwidthError,
    DegenerateSampleError,
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
# and the candidates evaluated at once in one block of its sweep.
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
    """Outcome of a bandwidth algorithm: a value or a failure reason."""

    h: float | None
    failure_reason: str | None = None
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return self.h is not None


def _sample_spread(x: np.ndarray) -> float:
    """s* = min(IQR/1.34, sd), linear-interpolation quartiles, sd with ddof=1."""
    q25, q75 = np.percentile(x, (25, 75))
    iqr = float(q75 - q25)
    sd = float(np.std(x, ddof=1))
    return min(iqr / 1.34, sd)


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

    Returns (f_hat, s2_below, s2_above) or a failure reason string in place
    of the tuple.  Both sides must be nonempty, so n >= 2.
    """
    x, y, c = sample.x, sample.y, sample.cutoff
    s_star = _sample_spread(x)
    if s_star <= 0:
        return "degenerate_running_variable"
    h1 = _PILOT_H1_FACTOR * s_star * x.size ** (-0.2)
    below = sample.below[x[sample.below] >= c - h1]
    above = sample.above[x[sample.above] <= c + h1]
    n1m, n1p = below.size, above.size
    if n1m < 2 or n1p < 2:
        return "pilot_variance"
    f_hat = (n1m + n1p) / (2.0 * x.size * h1)
    s2m, s2p = _variance(y[below]), _variance(y[above])
    if s2m + s2p <= 0:
        return "pilot_variance_zero"
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
    curvature-window floor is not binding.  Any infeasible stage returns a
    ``BandwidthResult`` failure with a stage-specific reason.
    """
    if sample.empty_side is not None:
        return BandwidthResult(None, "empty_side")

    stage = _pilot_stage(sample)
    if isinstance(stage, str):
        return BandwidthResult(None, stage)
    f_hat, s2m, s2p = stage

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
        return BandwidthResult(None, "pilot_cubic")
    # a response linear on each side with one slope leaves only roundoff in
    # the cubic coefficient; snap it to zero, as estimate_m_hat does the
    # curvature, so that roundoff does not size the curvature windows
    m3 = 6.0 * coef[4] / scale**3 if abs(coef[4]) >= 1e-8 * np.std(y) else 0.0

    m3sq = max(m3**2, _M3_FLOOR)
    h2m = _PILOT_H2_FACTOR * (s2m / (f_hat * m3sq)) ** _PILOT_H2_RATE * sample.n_below ** (-_PILOT_H2_RATE)
    h2p = _PILOT_H2_FACTOR * (s2p / (f_hat * m3sq)) ** _PILOT_H2_RATE * sample.n_above ** (-_PILOT_H2_RATE)

    curvature = {}
    windows = {}
    for side, h2 in (("below", h2m), ("above", h2p)):
        try:
            fit = local_poly_fit(sample, side, degree=2, h=h2, kernel=Kernel.UNIFORM)
        except (InsufficientDataError, BadBandwidthError):
            return BandwidthResult(None, f"pilot_curvature_{side}")
        curvature[side] = float(fit.second_deriv_weights @ y)
        windows[side] = fit.n_effective

    r_below = _REGULARIZATION_CONST * s2m / (windows["below"] * h2m**4)
    r_above = _REGULARIZATION_CONST * s2p / (windows["above"] * h2p**4)
    regularization = r_below + r_above

    curv_gap = curvature["above"] - curvature["below"]
    denom = n * f_hat * (curv_gap**2 + regularization)
    h = _IK_KERNEL_CONSTANT * ((s2m + s2p) / denom) ** 0.2
    if not np.isfinite(h) or h <= 0:
        return BandwidthResult(None, "nonfinite_result")
    return BandwidthResult(float(h))


# ---------------------------------------------------------------------------
# Bounded-curvature selector
# ---------------------------------------------------------------------------


def _grid_objective(u: np.ndarray, sig2: np.ndarray, grid: np.ndarray):
    """One side's worst-case-bias and variance loadings for every candidate h.

    Evaluates the triangular-kernel degree-1 intercept-extraction weights in
    closed form (the 2x2 normal equations) for all candidates at once:

        w_i = k(t_i) (S2 - S1 t_i) / (S0 S2 - S1^2),  t_i = u_i / h

    and returns (feasible, bias_load, variance) with
    bias_load = sum |w_i| u_i^2 and variance = sum w_i^2 sig2_i; candidates
    with fewer than two in-window points or a numerically singular design
    are marked infeasible.  Must agree with ``local_poly_fit`` weights (the
    test suite checks this); it exists only to keep the candidate sweep
    cheap.
    """
    order = np.argsort(np.abs(u))
    u = u[order]
    sig2 = sig2[order]
    absu = np.abs(u)
    k_count = grid.size
    feasible = np.zeros(k_count, dtype=bool)
    bias_load = np.full(k_count, np.inf)
    variance = np.full(k_count, np.inf)
    counts = np.searchsorted(absu, grid, side="left")

    for start in range(0, k_count, _AK_BLOCK):
        stop = min(start + _AK_BLOCK, k_count)
        h = grid[start:stop, None]
        m_max = int(counts[start:stop].max())
        if m_max < 2:
            continue
        t = u[None, :m_max] / h
        w = np.maximum(1.0 - np.abs(t), 0.0)  # triangular, +0.0 at |t| >= 1
        s0 = w.sum(axis=1)
        wt = w * t
        s1 = wt.sum(axis=1)
        s2 = (wt * t).sum(axis=1)
        det = s0 * s2 - s1**2
        ok = (counts[start:stop] >= 2) & (det > 1e-12 * np.maximum(s0 * s2, s1**2))
        safe_det = np.where(ok, det, 1.0)
        w_int = w * (s2[:, None] - s1[:, None] * t) / safe_det[:, None]
        bias_load[start:stop] = np.where(
            ok, (np.abs(w_int) * t**2).sum(axis=1) * h[:, 0] ** 2, np.inf
        )
        variance[start:stop] = np.where(
            ok, (w_int**2 * sig2[None, :m_max]).sum(axis=1), np.inf
        )
        feasible[start:stop] = ok
    return feasible, bias_load, variance


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
    re-running with frozen sigma2 and new noise gives an identical
    bandwidth.

    Raises ``ZeroCurvatureBoundError`` for a zero bound (the objective would
    degenerate to pure variance minimization).  ``diagnostics`` holds the
    grid's ends, ``grid_lo`` and ``grid_hi``.
    """
    if bound.value <= 0:
        raise ZeroCurvatureBoundError("bounded-curvature bandwidth requires M > 0")

    if sample.empty_side is not None:
        return BandwidthResult(None, "empty_side")
    if sample.n_below < 2 or sample.n_above < 2:
        return BandwidthResult(None, "insufficient_side")

    u = sample.x - sample.cutoff
    dist_below = np.sort(np.abs(u[sample.below]))
    dist_above = np.sort(np.abs(u[sample.above]))
    h_lo = max(dist_below[1], dist_above[1])
    h_hi = float(sample.x.max() - sample.x.min())
    if h_lo <= 0:
        h_lo = max(1e-8 * h_hi, np.finfo(float).tiny)
    if h_hi <= h_lo:
        h_hi = 2.0 * h_lo
    grid = np.geomspace(h_lo, h_hi, _AK_GRID_SIZE)

    ok_b, bias_b, var_b = _grid_objective(u[sample.below], sigma2[sample.below], grid)
    ok_a, bias_a, var_a = _grid_objective(u[sample.above], sigma2[sample.above], grid)
    feasible = ok_b & ok_a
    if not feasible.any():
        return BandwidthResult(None, "no_feasible_h")

    half_m = 0.5 * bound.value
    bias_bound = half_m * (bias_b + bias_a)
    variance = var_b + var_a
    mse = np.where(feasible, bias_bound**2 + variance, np.inf)
    pick = int(np.argmin(mse))  # first minimum: ties break toward smaller h
    return BandwidthResult(float(grid[pick]),
                           diagnostics={"grid_lo": float(grid[0]), "grid_hi": float(grid[-1])})


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
    """
    worst = 0.0
    for name, idx in (("below", sample.below), ("above", sample.above)):
        xs = sample.x[idx]
        ys = sample.y[idx]
        if xs.size < 5 or np.unique(xs).size < 5:
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
        y_scale = max(float(np.std(ys)), np.finfo(float).tiny)
        if side_worst < 1e-8 * y_scale / scale**2 or not np.ptp(ys):
            side_worst = 0.0
        worst = max(worst, side_worst)
    return CurvatureBound(float(worst))
