"""Interval constructions for the boundary local-linear LATE.

Three procedures, all read off one ``BoundaryFits``: a sample's degree-1
fits at one bandwidth and its nearest-neighbor variances (rbc adds degree-2
bias fits):

* conventional (cv): center +- z_{alpha/2} * SE
* robust bias-corrected (rbc): center shifted by an estimated bias, SE
  inflated through the combined linear estimator's weights
* fixed-length (flci): conventional center, critical value from a folded
  normal at shape t = worst-case bias / SE under a curvature bound M

All three are linear-in-y at their core, so their standard errors are the
single primitive ``se_of_linear_functional`` applied to different weight
vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .bandwidth import CurvatureBound
from .core import EffectEstimate, RDSample
from .errors import InsufficientDataError, NonFiniteError, ZeroSEError
from .local_poly import LinearFit, local_poly_fit, se_of_linear_functional


def _brent(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f on [a, b] by Brent's method (Brent, 1973, ch. 4), step for
    step as scipy's ``brentq.c``, so that on Python floats it returns the same
    float as ``scipy.optimize.brentq`` (tested): a secant or inverse quadratic
    step when it is short enough, else bisection, until half the bracket is
    under delta = (xtol + rtol |x|) / 2.  Raises ValueError when f(a) and f(b)
    share a sign and RuntimeError after 100 iterations.
    """
    xpre, xcur, xblk, spre, scur = a, b, 0.0, 0.0, 0.0
    fpre, fcur, fblk = f(xpre), f(xcur), 0.0
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolated step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a zero divisor gives C an inf or nan: bisect
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def folded_normal_cv(t: float, alpha: float) -> float:
    """Solve Phi(cv - t) + Phi(cv + t) - 1 = 1 - alpha for cv.

    At t = 0 this is the usual two-sided normal critical value; for large t
    it approaches t + z_{1-alpha}.  Monotone increasing in t, decreasing in
    alpha.  Root bracketed on [0, t + |z_{1-alpha}| + 1] and solved to 1e-12
    by ``_brent``.
    """
    if t < 0 or not np.isfinite(t):
        raise ValueError(f"shape parameter t must be >= 0, got {t}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    t = float(t)

    def gap(cv):
        return float(ndtr(cv - t)) + float(ndtr(cv + t)) - 1.0 - (1.0 - alpha)

    z = float(ndtri(1.0 - alpha))
    hi = t + abs(z) + 1.0  # the root is at most t + z_{1-alpha/2}, even when z < 0
    if hi - t < z:
        # t (about 1e16 and up, an SE of roundoff size) swamps the bracket:
        # Phi(cv + t) is 1 and the root is t + z, as exact as t allows
        return t + z
    return _brent(gap, 0.0, hi, xtol=1e-12, rtol=8.9e-16)


def worst_case_bias(fits: tuple[LinearFit, LinearFit], m: float) -> float:
    """Supremum bias of the combined linear estimator over {|mu''| <= m}.

    Equals (m/2) * sum over both fits of |w_i| (x_i - c)^2.  Exact when each
    side's weights share one sign; otherwise an upper bound (see each fit's
    ``sign_constant`` flag).
    """
    if m < 0 or not np.isfinite(m):
        raise ValueError(f"curvature bound must be >= 0, got {m}")
    return 0.5 * m * sum(f.abs_weighted_x2 for f in fits)


@dataclass(frozen=True, eq=False)
class BoundaryFits:
    """The degree-1 fits of one sample at one bandwidth, shared by cv, rbc and flci.

    Holds both sides' fits, tau_hat, the combined weights (above minus
    below), the conventional SE and the sigma2 it used.  rbc makes its
    degree-2 bias fits with ``bias_fits``, which keeps nothing, so a caller
    without rbc never fits quadratics.
    """

    sample: RDSample
    h: float
    below: LinearFit
    above: LinearFit
    tau: float
    combined_weights: np.ndarray
    se: float
    sigma2: np.ndarray

    @classmethod
    def build(cls, sample: RDSample, h: float, sigma2: np.ndarray) -> BoundaryFits:
        """Fit both sides at h with the triangular kernel; tau is the above
        fit minus the below fit at the cutoff.  sigma2 holds the sample's
        nearest-neighbor variances (``nn_variance``).

        Raises InsufficientDataError when either side's fit is infeasible.
        """
        below = local_poly_fit(sample, "below", 1, h)
        above = local_poly_fit(sample, "above", 1, h)
        tau = above.fitted_at_cutoff - below.fitted_at_cutoff
        combined = above.weights - below.weights
        se = se_of_linear_functional(combined, sigma2)
        return cls(sample, h, below, above, tau, combined, se, sigma2)

    def bias_fits(self) -> tuple[LinearFit, LinearFit, float]:
        """Degree-2 fits for the bias estimate at the smallest workable bandwidth.

        The bias bandwidth b starts at h and, only when a side's quadratic is
        infeasible there, grows geometrically until both sides fit (so b = h
        in the common case).  Raises InsufficientDataError once the window
        has absorbed the whole sample without becoming feasible, i.e. a side
        genuinely lacks three usable points.  Returns (below, above, b).
        """
        reach = 1.01 * float(np.abs(self.sample.x - self.sample.cutoff).max())
        b = self.h
        while True:
            try:
                return (local_poly_fit(self.sample, "below", 2, b),
                        local_poly_fit(self.sample, "above", 2, b), b)
            except InsufficientDataError:
                if b > reach:
                    raise
            b *= 1.25


def _interval(fits: BoundaryFits, center: float, se: float, crit: float, alpha: float,
              diagnostics: dict) -> EffectEstimate:
    """The interval center -+ crit * se at the fits' bandwidth."""
    return EffectEstimate(
        tau_hat=center,
        se=se,
        ci_lower=center - crit * se,
        ci_upper=center + crit * se,
        alpha=alpha,
        bandwidth_or_window=fits.h,
        diagnostics=diagnostics,
    )


def cv_interval(fits: BoundaryFits, alpha: float = 0.05) -> EffectEstimate:
    """Conventional Wald interval: tau_hat +- z_{alpha/2} SE."""
    return _interval(fits, fits.tau, fits.se, float(ndtri(1.0 - alpha / 2.0)), alpha, {})


def rbc_interval(fits: BoundaryFits, alpha: float = 0.05) -> EffectEstimate:
    """Robust bias-corrected interval.

    The bias estimate is built from one-sided local quadratics, normally on
    the same window as the main fit (bias bandwidth = h; it expands only
    when the quadratic is infeasible there, see ``BoundaryFits.bias_fits``):
    with kappa the main fit's curvature loading sum(w (x-c)^2) per side,

        b_hat = (mu''+ * kappa+ - mu''- * kappa-) / 2.

    Both the correction and the main contrast are linear in y, so the
    corrected estimator's weights are formed explicitly and its SE computed
    from them.  ``diagnostics`` holds the ``bias_bandwidth``.  The extra
    quadratic fits are the dominant small-sample failure mode and propagate
    InsufficientDataError.
    """
    below, above = fits.below, fits.above
    quad_below, quad_above, bias_bw = fits.bias_fits()

    corr_weights = (
        0.5 * above.weighted_x2 * quad_above.second_deriv_weights
        - 0.5 * below.weighted_x2 * quad_below.second_deriv_weights
    )
    center = fits.tau - float(corr_weights @ fits.sample.y)
    se_rbc = se_of_linear_functional(fits.combined_weights - corr_weights, fits.sigma2)
    return _interval(fits, center, se_rbc, float(ndtri(1.0 - alpha / 2.0)), alpha,
                     {"bias_bandwidth": bias_bw})


def flci_interval(fits: BoundaryFits, bound: CurvatureBound,
                  alpha: float = 0.05) -> EffectEstimate:
    """Fixed-length interval: conventional center, folded-normal critical value.

    The half-width is z*(t) * SE with t = worst-case bias / SE under the
    curvature bound.  Contains the conventional interval for any M >= 0.
    A zero SE leaves t undefined and raises ZeroSEError rather than silently
    widening; degenerate fixtures should fail loudly.  A t that overflows
    raises NonFiniteError.
    """
    tau, below, above, se = fits.tau, fits.below, fits.above, fits.se
    if se == 0.0:
        raise ZeroSEError("zero standard error: folded-normal shape t is undefined")
    t = worst_case_bias((below, above), bound.value) / se
    if not np.isfinite(t):
        raise NonFiniteError(f"flci: the worst-case bias over the SE, t, is {t}")
    cv = folded_normal_cv(t, alpha)
    return _interval(fits, tau, se, cv, alpha, {
        "t": t,
        "critical_value": cv,
        "bound_exact": below.sign_constant and above.sign_constant,
    })
