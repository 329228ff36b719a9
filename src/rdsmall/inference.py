"""Interval constructions for the boundary local-linear LATE.

Three procedures, all built from the same degree-1 fits and nearest-neighbor
variances:

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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .bandwidth import CurvatureBound
from .core import EffectEstimate, RDSample, validate
from .errors import InsufficientDataError, ZeroSEError
from .local_poly import (
    Kernel,
    LinearFit,
    late_point_estimate,
    local_poly_fit,
    nn_variance,
    se_of_linear_functional,
)


@dataclass(frozen=True)
class FoldedNormalCV:
    """Critical value z*(t) with P(|N(t,1)| <= z*) = 1 - alpha."""

    t: float
    alpha: float
    cv: float


@dataclass(frozen=True)
class BiasCorrection:
    """Estimated bias and the combined weights of the corrected estimator.

    ``c_term`` is defined by the identity SE_rbc = sqrt(SE_cv^2 + c_term)
    where SE_rbc comes from the combined weights; it is nonnegative in
    practice but the identity, not a sign constraint, is the contract.
    """

    b_hat: float
    combined_weights: np.ndarray
    c_term: float


def folded_normal_cv(t: float, alpha: float) -> FoldedNormalCV:
    """Solve Phi(cv - t) + Phi(cv + t) - 1 = 1 - alpha for cv.

    At t = 0 this is the usual two-sided normal critical value; for large t
    it approaches t + z_{1-alpha}.  Monotone increasing in t, decreasing in
    alpha.  Root bracketed on [0, t + |z_{1-alpha}| + 1] and solved to 1e-12.
    """
    if t < 0 or not np.isfinite(t):
        raise ValueError(f"shape parameter t must be >= 0, got {t}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

    def gap(cv):
        return ndtr(cv - t) + ndtr(cv + t) - 1.0 - (1.0 - alpha)

    z = ndtri(1.0 - alpha)
    hi = t + abs(z) + 1.0  # the root is at most t + z_{1-alpha/2}, even when z < 0
    if hi - t < z:
        # t (about 1e16 and up, an SE of roundoff size) swamps the bracket:
        # Phi(cv + t) is 1 and the root is t + z, as exact as t allows
        return FoldedNormalCV(t=float(t), alpha=float(alpha), cv=float(t + z))
    cv = brentq(gap, 0.0, hi, xtol=1e-12, rtol=8.9e-16)
    return FoldedNormalCV(t=float(t), alpha=float(alpha), cv=float(cv))


def worst_case_bias(fits: tuple[LinearFit, LinearFit], m: float) -> float:
    """Supremum bias of the combined linear estimator over {|mu''| <= m}.

    Equals (m/2) * sum over both fits of |w_i| (x_i - c)^2.  Exact when each
    side's weights share one sign; otherwise an upper bound (see each fit's
    ``sign_constant`` flag).
    """
    if m < 0 or not np.isfinite(m):
        raise ValueError(f"curvature bound must be >= 0, got {m}")
    return 0.5 * m * sum(f.abs_weighted_x2 for f in fits)


def _conventional_pieces(sample, h, kernel, sigma2):
    tau, (below, above) = late_point_estimate(sample, 1, h, kernel)
    if sigma2 is None:
        sigma2 = nn_variance(sample, validate(sample))
    combined = above.weights - below.weights
    se = se_of_linear_functional(combined, sigma2)
    return tau, below, above, combined, se, sigma2


def cv_interval(
    sample: RDSample,
    h: float,
    kernel: Kernel = Kernel.TRIANGULAR,
    alpha: float = 0.05,
    *,
    sigma2: np.ndarray | None = None,
    bw_label: str = "",
) -> EffectEstimate:
    """Conventional Wald interval: tau_hat +- z_{alpha/2} SE.

    ``sigma2`` can carry precomputed nearest-neighbor variances (the
    simulation harness reuses one vector across the three procedures).
    Raises InsufficientDataError when either side's fit is infeasible.
    """
    tau, _, _, _, se, _ = _conventional_pieces(sample, h, kernel, sigma2)
    z = float(ndtri(1.0 - alpha / 2.0))
    return EffectEstimate(
        tau_hat=tau,
        se=se,
        ci_lower=tau - z * se,
        ci_upper=tau + z * se,
        alpha=alpha,
        bandwidth_or_window=h,
        method=(bw_label, "cv"),
    )


def _bias_fits(sample, h, kernel):
    """Degree-2 fits for the bias estimate at the smallest workable bandwidth.

    The bias bandwidth starts at the main bandwidth h and, only when a
    side's quadratic is infeasible there, grows geometrically until both
    sides fit (so b = h in the common case).  Raises InsufficientDataError
    once the window has absorbed the whole sample without becoming
    feasible, i.e. a side genuinely lacks three usable points.
    """
    reach = 1.01 * float(np.abs(sample.x - sample.cutoff).max())
    b = h
    while True:
        try:
            quad_below = local_poly_fit(sample, "below", 2, b, kernel)
            quad_above = local_poly_fit(sample, "above", 2, b, kernel)
            return quad_below, quad_above, b
        except InsufficientDataError:
            if b > reach:
                raise
            b *= 1.25


def rbc_interval(
    sample: RDSample,
    h: float,
    kernel: Kernel = Kernel.TRIANGULAR,
    alpha: float = 0.05,
    *,
    sigma2: np.ndarray | None = None,
    bw_label: str = "",
) -> EffectEstimate:
    """Robust bias-corrected interval.

    The bias estimate is built from one-sided local quadratics, normally on
    the same window as the main fit (bias bandwidth = h; it expands only
    when the quadratic is infeasible there, see ``_bias_fits``): with kappa
    the main fit's curvature loading sum(w (x-c)^2) per side,

        b_hat = (mu''+ * kappa+ - mu''- * kappa-) / 2.

    Both the correction and the main contrast are linear in y, so the
    corrected estimator's weights are formed explicitly and its SE computed
    from them; the variance-inflation term is SE_rbc^2 - SE_cv^2 by that
    identity.  The extra quadratic fits are the dominant small-sample
    failure mode and propagate InsufficientDataError.
    """
    tau, below, above, combined, se_cv, sigma2 = _conventional_pieces(
        sample, h, kernel, sigma2
    )
    quad_below, quad_above, bias_bw = _bias_fits(sample, h, kernel)

    corr_weights = (
        0.5 * above.weighted_x2 * quad_above.second_deriv_weights
        - 0.5 * below.weighted_x2 * quad_below.second_deriv_weights
    )
    b_hat = float(corr_weights @ sample.y)
    rbc_weights = combined - corr_weights
    se_rbc = se_of_linear_functional(rbc_weights, sigma2)
    correction = BiasCorrection(
        b_hat=b_hat,
        combined_weights=rbc_weights,
        c_term=se_rbc**2 - se_cv**2,
    )

    center = tau - b_hat
    z = float(ndtri(1.0 - alpha / 2.0))
    return EffectEstimate(
        tau_hat=center,
        se=se_rbc,
        ci_lower=center - z * se_rbc,
        ci_upper=center + z * se_rbc,
        alpha=alpha,
        bandwidth_or_window=h,
        method=(bw_label, "rbc"),
        diagnostics={
            "bias_correction": correction,
            "tau_uncorrected": tau,
            "se_cv": se_cv,
            "bias_bandwidth": bias_bw,
        },
    )


def flci_interval(
    sample: RDSample,
    h: float,
    kernel: Kernel = Kernel.TRIANGULAR,
    alpha: float = 0.05,
    bound: CurvatureBound | None = None,
    *,
    sigma2: np.ndarray | None = None,
    bw_label: str = "",
) -> EffectEstimate:
    """Fixed-length interval: conventional center, folded-normal critical value.

    The half-width is z*(t) * SE with t = worst-case bias / SE under the
    curvature bound.  Contains the conventional interval for any M >= 0.
    A zero SE leaves t undefined and raises ZeroSEError rather than silently
    widening; degenerate fixtures should fail loudly.
    """
    if bound is None:
        raise ValueError("flci_interval requires a curvature bound")
    tau, below, above, _, se, _ = _conventional_pieces(sample, h, kernel, sigma2)
    if se == 0.0:
        raise ZeroSEError("zero standard error: folded-normal shape t is undefined")
    bias_bound = worst_case_bias((below, above), bound.value)
    fn = folded_normal_cv(bias_bound / se, alpha)
    half = fn.cv * se
    return EffectEstimate(
        tau_hat=tau,
        se=se,
        ci_lower=tau - half,
        ci_upper=tau + half,
        alpha=alpha,
        bandwidth_or_window=h,
        method=(bw_label, "flci"),
        diagnostics={
            "t": fn.t,
            "critical_value": fn.cv,
            "bias_bound": bias_bound,
            "bound_exact": below.sign_constant and above.sign_constant,
            "m": bound.value,
            "m_source": bound.source,
        },
    )
