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

from .bandwidth import CurvatureBound
from .core import EffectEstimate, RDSample
from .errors import InsufficientDataError, NonFiniteError, ZeroSEError
from .local_poly import CurvatureFit, LinearFit, local_poly_fit, se_of_linear_functional


# The standard normal CDF and quantile, ported step for step from cephes
# (Moshier) as scipy.special builds them, so that they return its floats
# (tested) without loading it.  The rational approximations' coefficients are
# cephes', each written as the shortest decimal of its double, in Horner steps.
_SQRT1_2 = 0.7071067811865476
_EXP_M2 = 0.1353352832366127  # exp(-2)


def _ndtr(a: float) -> float:
    """Phi(a), cephes' ndtr: 1/2 + erf(x)/2 at |x| < 1/sqrt(2), x = a/sqrt(2),
    else through erfc(|x|), 1 - erf below 1 and exp(-x^2) R(|x|) above; the
    odd erf(x) = x T(x^2) / U(x^2) rounds as cephes' -erf(-x) does."""
    if a != a:
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        zz = z * z
        p = (9.604973739870516 * zz + 90.02601972038427) * zz + 2232.005345946843
        p = (p * zz + 7003.325141128051) * zz + 55592.30130103949
        q = ((zz + 33.56171416475031) * zz + 521.3579497801527) * zz + 4594.323829709801
        q = (q * zz + 22629.000061389095) * zz + 49267.39426086359
        erf = z * p / q
        if z < _SQRT1_2:
            return 0.5 + 0.5 * (erf if x > 0 else -erf)
        y = 0.5 * (1.0 - erf)
    elif -z * z < -709.782712893384:  # exp underflows: cephes' MAXLOG
        y = 0.0
    else:
        if z < 8.0:
            p = (2.461969814735305e-10 * z + 0.5641895648310689) * z + 7.463210564422699
            p = ((p * z + 48.63719709856814) * z + 196.5208329560771) * z + 526.4451949954773
            p = ((p * z + 934.5285271719576) * z + 1027.5518868951572) * z + 557.5353353693994
            q = ((z + 13.228195115474499) * z + 86.70721408859897) * z + 354.9377788878199
            q = ((q * z + 975.7085017432055) * z + 1823.9091668790973) * z + 2246.3376081871097
            q = (q * z + 1656.6630919416134) * z + 557.5353408177277
        else:
            p = (0.5641895835477551 * z + 1.275366707599781) * z + 5.019050422511805
            p = ((p * z + 6.160210979930536) * z + 7.4097426995044895) * z + 2.9788666537210022
            q = ((z + 2.2605286322011726) * z + 9.396035249380015) * z + 12.048953980809666
            q = ((q * z + 17.08144507475659) * z + 9.608968090632859) * z + 3.369076451000815
        y = 0.5 * (math.exp(-z * z) * p / q)
    return 1.0 - y if x > 0 else y


def _ndtri(p0: float) -> float:
    """Phi^-1(p0), cephes' ndtri: -inf at 0, inf at 1, nan outside [0, 1];
    rational in p0 - 1/2 in the middle and in 1/sqrt(-2 log tail) outside."""
    if p0 in (0.0, 1.0):
        return math.inf if p0 else -math.inf
    if p0 < 0.0 or p0 > 1.0:
        return math.nan
    upper = p0 > 1.0 - _EXP_M2
    y = 1.0 - p0 if upper else p0
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        p = (-59.96335010141079 * y2 + 98.00107541859997) * y2 - 56.67628574690703
        p = (p * y2 + 13.931260938727968) * y2 - 1.2391658386738125
        q = ((y2 + 1.9544885833814176) * y2 + 4.676279128988815) * y2 + 86.36024213908905
        q = ((q * y2 - 225.46268785411937) * y2 + 200.26021238006066) * y2 - 82.03722561683334
        q = (q * y2 + 15.90562251262117) * y2 - 1.1833162112133
        return (y + y * (y2 * p / q)) * 2.5066282746310007  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    if x < 8.0:
        p = (4.0554489230596245 * z + 31.525109459989388) * z + 57.16281922464213
        p = ((p * z + 44.08050738932008) * z + 14.684956192885803) * z + 2.1866330685079025
        p = ((p * z - 0.1402560791713545) * z - 0.03504246268278482) * z - 0.0008574567851546854
        q = ((z + 15.779988325646675) * z + 45.39076351288792) * z + 41.3172038254672
        q = ((q * z + 15.04253856929075) * z + 2.504649462083094) * z - 0.14218292285478779
        q = (q * z - 0.03808064076915783) * z - 0.0009332594808954574
    else:
        p = (3.2377489177694603 * z + 6.915228890689842) * z + 3.9388102529247444
        p = ((p * z + 1.3330346081580755) * z + 0.20148538954917908) * z + 0.012371663481782003
        p = (p * z + 0.00030158155350823543) * z + 2.6580697468673755e-6
        p = p * z + 6.239745391849833e-9
        q = ((z + 6.02427039364742) * z + 3.6798356385616087) * z + 1.3770209948908132
        q = ((q * z + 0.21623699359449663) * z + 0.013420400608854318) * z + 0.00032801446468212774
        q = (q * z + 2.8924786474538068e-6) * z + 6.790194080099813e-9
    x = x - math.log(x) / x - z * p / q
    return x if upper else -x


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
        return _ndtr(cv - t) + _ndtr(cv + t) - 1.0 - (1.0 - alpha)

    z = _ndtri(1.0 - alpha)
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

    def bias_fits(self) -> tuple[CurvatureFit, CurvatureFit, float]:
        """Degree-2 fits for the bias estimate at the smallest workable bandwidth.

        The bias bandwidth b starts at h and, only when a side's quadratic is
        infeasible there, grows geometrically until both sides fit (so b = h
        in the common case).  Raises InsufficientDataError once the window
        has absorbed the whole sample without becoming feasible, i.e. a side
        genuinely lacks three usable points.  Returns (below, above, b).
        """
        b = self.h
        while True:
            try:
                return (local_poly_fit(self.sample, "below", 2, b),
                        local_poly_fit(self.sample, "above", 2, b), b)
            except InsufficientDataError:
                if b > 1.01 * float(np.abs(self.sample.x - self.sample.cutoff).max()):
                    raise
            b *= 1.25


def _interval(fits: BoundaryFits, center: float, se: float, crit: float,
              diagnostics: dict) -> EffectEstimate:
    """The interval center -+ crit * se at the fits' bandwidth."""
    return EffectEstimate(
        tau_hat=center,
        se=se,
        ci_lower=center - crit * se,
        ci_upper=center + crit * se,
        bandwidth_or_window=fits.h,
        diagnostics=diagnostics,
    )


def cv_interval(fits: BoundaryFits, alpha: float = 0.05) -> EffectEstimate:
    """Conventional Wald interval: tau_hat +- z_{alpha/2} SE."""
    return _interval(fits, fits.tau, fits.se, _ndtri(1.0 - alpha / 2.0), {})


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
        0.5 * above.weighted_x2 * quad_above.weights
        - 0.5 * below.weighted_x2 * quad_below.weights
    )
    center = fits.tau - float(corr_weights @ fits.sample.y)
    se_rbc = se_of_linear_functional(fits.combined_weights - corr_weights, fits.sigma2)
    return _interval(fits, center, se_rbc, _ndtri(1.0 - alpha / 2.0),
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
    return _interval(fits, tau, se, cv, {
        "t": t,
        "critical_value": cv,
        "bound_exact": below.sign_constant and above.sign_constant,
    })
