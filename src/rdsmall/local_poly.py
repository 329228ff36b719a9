"""Boundary local-polynomial regression expressed as linear-in-y weights.

Every continuity estimator in the package is a linear functional of the
responses.  A fit here therefore returns the weight vector over the full
sample (zeros off-side and out of window) rather than just a number: the
same weights feed the point estimate, the nearest-neighbor standard error,
the worst-case bias bound and the bias-correction algebra, which keeps all
of those mutually consistent by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .core import RDSample
from .errors import (
    BadBandwidthError,
    InsufficientDataError,
    LengthMismatchError,
)

# Relative tolerance on the R factor's diagonal when deciding rank: a fit on
# numerically coincident points maps to InsufficientDataError, which the
# simulation success-rate accounting needs to be recoverable.
_RANK_RTOL = 1e-10
# The curvature weights divide by h**2, which must be a normal float.
_MIN_H_SQUARED = np.finfo(float).tiny


class Kernel(enum.Enum):
    """Nonnegative symmetric weight functions supported on [-1, 1]."""

    TRIANGULAR = "triangular"
    UNIFORM = "uniform"
    EPANECHNIKOV = "epanechnikov"

    def weight(self, u):
        """Kernel value at scaled offsets u (vectorized)."""
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) <= 1.0
        if self is Kernel.TRIANGULAR:
            return np.where(inside, 1.0 - np.abs(u), 0.0)
        if self is Kernel.UNIFORM:
            return np.where(inside, 0.5, 0.0)
        return np.where(inside, 0.75 * (1.0 - u * u), 0.0)


@dataclass(frozen=True)
class LinearFit:
    """A one-sided local polynomial fit at the cutoff, as response weights.

    ``weights`` has one entry per sample observation; ``fitted_at_cutoff``
    equals ``weights @ y``.  The weights reproduce polynomials exactly:
    sum(w) = 1 and sum(w * (x - c)**j) = 0 for j = 1..degree.

    ``second_deriv_weights`` (populated for degree >= 2) gives the estimated
    second derivative at the cutoff as another linear functional of y.
    ``weighted_x2`` and ``abs_weighted_x2`` cache sum(w*(x-c)^2) and
    sum(|w|*(x-c)^2); the former is the curvature loading used by bias
    correction, the latter the worst-case-bias loading.
    """

    weights: np.ndarray
    fitted_at_cutoff: float
    side: str
    degree: int
    bandwidth: float
    n_effective: int
    weighted_x2: float
    abs_weighted_x2: float
    sign_constant: bool
    second_deriv_weights: np.ndarray | None = None

    def second_derivative(self, y: np.ndarray) -> float:
        if self.second_deriv_weights is None:
            raise InsufficientDataError(
                f"degree-{self.degree} fit carries no curvature estimate"
            )
        return float(self.second_deriv_weights @ np.asarray(y, dtype=float))


def _side_window(sample: RDSample, side: str, h: float) -> np.ndarray:
    if side not in ("below", "above"):
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")
    idx = getattr(sample, side)
    # Open window: weights are exactly zero outside (c-h, c+h).
    return idx[np.abs(sample.x[idx] - sample.cutoff) < h]


def local_poly_fit(
    sample: RDSample,
    side: str,
    degree: int,
    h: float,
    kernel: Kernel = Kernel.TRIANGULAR,
) -> LinearFit:
    """Kernel-weighted polynomial fit of y on (x - c) on one side of c.

    The returned fit's value at the cutoff is the weighted-least-squares
    intercept.  The design is built on (x - c)/h so conditioning does not
    depend on the score scale (Indiana-style scores near 60 behave like
    scores near 0).

    Raises
    ------
    BadBandwidthError
        h is not a positive finite number, or so small that h**2 is not a
        normal float (the curvature weights divide by it).
    InsufficientDataError
        Fewer than degree+1 usable points in the window, or the weighted
        design is rank deficient (coincident x values).
    """
    if not np.isfinite(h) or h <= 0:
        raise BadBandwidthError(f"bandwidth must be positive and finite, got {h}")
    if h * h < _MIN_H_SQUARED:
        raise BadBandwidthError(f"bandwidth {h} is too small to square in floating point")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")

    idx = _side_window(sample, side, h)
    t = (sample.x[idx] - sample.cutoff) / h
    w = kernel.weight(t)
    pos = w > 0
    idx, t, w = idx[pos], t[pos], w[pos]
    m = idx.size
    if m < degree + 1:
        raise InsufficientDataError(
            f"{m} usable point(s) {side} the cutoff within h={h:g}; "
            f"degree {degree} needs {degree + 1}"
        )

    z = np.vander(t, degree + 1, increasing=True)
    sw = np.sqrt(w)
    q, r = np.linalg.qr(sw[:, None] * z)
    rdiag = np.abs(np.diag(r))
    if rdiag.min() <= _RANK_RTOL * rdiag.max():
        raise InsufficientDataError(
            f"rank-deficient degree-{degree} design {side} the cutoff (h={h:g})"
        )

    def extraction_weights(coef_index: int) -> np.ndarray:
        # w_lin = W Z (Z'WZ)^{-1} e_k with Z'WZ = R'R from the QR factor.
        e = np.zeros(degree + 1)
        e[coef_index] = 1.0
        g = solve_triangular(r, solve_triangular(r, e, trans="T"))
        return w * (z @ g)

    w_local = extraction_weights(0)
    weights = np.zeros(sample.n)
    weights[idx] = w_local

    u = t * h
    second = None
    if degree >= 2:
        v_local = (2.0 / h**2) * extraction_weights(2)
        second = np.zeros(sample.n)
        second[idx] = v_local

    nonzero = w_local[w_local != 0.0]
    return LinearFit(
        weights=weights,
        fitted_at_cutoff=float(w_local @ sample.y[idx]),
        side=side,
        degree=degree,
        bandwidth=float(h),
        n_effective=m,
        weighted_x2=float(w_local @ u**2),
        abs_weighted_x2=float(np.abs(w_local) @ u**2),
        sign_constant=bool(nonzero.size == 0 or (nonzero > 0).all() or (nonzero < 0).all()),
        second_deriv_weights=second,
    )


def late_point_estimate(
    sample: RDSample, degree: int, h: float
) -> tuple[float, tuple[LinearFit, LinearFit]]:
    """Local average treatment effect at the cutoff: above fit minus below
    fit, both with the triangular kernel.

    Propagates InsufficientDataError from either side.
    """
    below = local_poly_fit(sample, "below", degree, h)
    above = local_poly_fit(sample, "above", degree, h)
    return above.fitted_at_cutoff - below.fitted_at_cutoff, (below, above)


def nn_variance(sample: RDSample, j: int = 3) -> np.ndarray:
    """Per-observation nearest-neighbor residual variance.

    For each observation, sigma2_i = (j/(j+1)) * (y_i - ybar_i)^2 where
    ybar_i averages the j nearest same-side neighbors by |x_j - x_i|.
    Distance ties are broken toward the lower original index.  j defaults
    to 3, the conventional choice for this estimator family.

    Raises
    ------
    InsufficientDataError
        A side has fewer than j+1 observations.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    sigma2 = np.zeros(sample.n)
    for name, idx in (("below", sample.below), ("above", sample.above)):
        s = idx.size
        if s <= j:
            raise InsufficientDataError(
                f"side {name} has {s} observation(s); j={j} neighbors need {j + 1}"
            )
        xs = sample.x[idx]
        ys = sample.y[idx]
        order = np.argsort(xs, kind="stable")
        xo, yo, io = xs[order], ys[order], idx[order]

        # In sorted order the j nearest neighbors of a point lie among its j
        # predecessors and j successors; pad the edges with +inf distance.
        offsets = np.concatenate([np.arange(-j, 0), np.arange(1, j + 1)])
        pos = np.arange(s)[:, None] + offsets[None, :]
        valid = (pos >= 0) & (pos < s)
        pos_c = np.clip(pos, 0, s - 1)
        dist = np.where(valid, np.abs(xo[pos_c] - xo[:, None]), np.inf)
        tie_rank = np.where(valid, io[pos_c], np.iinfo(np.int64).max)
        take = np.lexsort((tie_rank, dist), axis=1)[:, :j]
        nb = yo[pos_c[np.arange(s)[:, None], take]]
        resid = yo - nb.mean(axis=1)
        # the mean of equal values can round away from them: a point whose
        # neighbors all share its response has no residual
        resid[(nb == yo[:, None]).all(axis=1)] = 0.0
        sigma2[io] = (j / (j + 1.0)) * resid**2
    return sigma2


def se_of_linear_functional(weights: np.ndarray, sigma2: np.ndarray) -> float:
    """Standard error sqrt(sum(w_i^2 sigma2_i)) of a linear-in-y estimator.

    Applied to combined weights (above minus below) this is the conventional
    SE of the LATE estimate; applied to bias-corrected weights it is the
    robust SE, which is how the variance-correction term is realized.
    """
    weights = np.asarray(weights, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if weights.shape != sigma2.shape:
        raise LengthMismatchError(
            f"weights ({weights.shape}) and variances ({sigma2.shape}) differ"
        )
    return float(np.sqrt(np.sum(weights**2 * sigma2)))
