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
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .core import RDSample
from .errors import (
    BadBandwidthError,
    InsufficientDataError,
    LengthMismatchError,
    NonFiniteError,
)

# Relative tolerance on the R factor's diagonal when deciding rank: a fit on
# numerically coincident points maps to InsufficientDataError, which the
# simulation success-rate accounting needs to be recoverable.
_RANK_RTOL = 1e-10
# The curvature weights divide by h**2, which must be a normal float.
_MIN_H_SQUARED = np.finfo(float).tiny
# LAPACK dgeqrf and dtrtrs, without numpy's and scipy's input checks: a
# fit's inputs are finite.
_geqrf, _trtrs = get_lapack_funcs(("geqrf", "trtrs"), dtype=np.float64)


class Kernel(enum.Enum):
    """The fit weights' kernels, symmetric and positive on (-1, 1)."""

    TRIANGULAR = "triangular"
    UNIFORM = "uniform"

    def weight(self, u: np.ndarray) -> np.ndarray:
        """Kernel value at scaled offsets u, all inside the open window |u| < 1."""
        if self is Kernel.TRIANGULAR:
            return 1.0 - np.abs(u)
        return np.full(np.shape(u), 0.5)


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
    n_effective: int
    weighted_x2: float
    abs_weighted_x2: float
    sign_constant: bool
    second_deriv_weights: np.ndarray | None = None


def power_columns(t: np.ndarray, k: int) -> np.ndarray:
    """Columns 1, t, t*t, ... of a row-major array: numpy's vander, bit for bit."""
    z = np.ones((t.size, k))
    for j in range(1, k):
        np.multiply(z[:, j - 1], t, out=z[:, j])
    return z


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

    if side not in ("below", "above"):
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")
    idx = getattr(sample, side)
    d = sample.x[idx] - sample.cutoff
    # Open window: weights are exactly zero outside (c-h, c+h).  Inside it
    # |t| < 1 after rounding too, so every kernel weight is positive.
    inside = np.abs(d) < h
    idx, t = idx[inside], d[inside] / h
    w = kernel.weight(t)
    m = idx.size
    if m < degree + 1:
        raise InsufficientDataError(
            f"{m} usable point(s) {side} the cutoff within h={h:g}; "
            f"degree {degree} needs {degree + 1}"
        )

    k = degree + 1
    z = power_columns(t, k)
    # The weighted design in column-major order, factored in place; R is the
    # upper triangle of its first k rows.
    qr, _, _, _ = _geqrf(np.multiply(np.sqrt(w)[:, None], z, order="F"), overwrite_a=1)
    rdiag = [abs(r_jj) for r_jj in qr.diagonal().tolist()]
    if min(rdiag) <= _RANK_RTOL * max(rdiag):
        raise InsufficientDataError(
            f"rank-deficient degree-{degree} design {side} the cutoff (h={h:g})"
        )
    # R.T, column-major, as the lower triangle dtrtrs reads
    rt = np.asfortranarray(qr[:k].T)

    def extraction_weights(coef_index: int) -> np.ndarray:
        # w_lin = W Z (Z'WZ)^{-1} e_k with Z'WZ = R'R from the QR factor.
        # R'v = e, then Rg = v, on R.T as lower: R as upper rounds differently.
        e = np.zeros(k)
        e[coef_index] = 1.0
        v, _ = _trtrs(rt, e, lower=1, trans=0)
        g, _ = _trtrs(rt, v, lower=1, trans=1)
        return w * (z @ g)

    w_local = extraction_weights(0)
    weights = np.zeros(sample.n)
    weights[idx] = w_local

    second = None
    if degree >= 2:
        v_local = (2.0 / h**2) * extraction_weights(2)
        second = np.zeros(sample.n)
        second[idx] = v_local

    u2 = (t * h) ** 2
    return LinearFit(
        weights=weights,
        fitted_at_cutoff=float(w_local @ sample.y[idx]),
        n_effective=m,
        weighted_x2=float(w_local @ u2),
        abs_weighted_x2=float(np.abs(w_local) @ u2),
        # the nonzero weights share one sign
        sign_constant=bool(w_local.min() >= 0 or w_local.max() <= 0),
        second_deriv_weights=second,
    )


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
    NonFiniteError
        A variance overflows (responses near 1e154 and up).
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    resid = np.zeros(sample.n)
    # a neighbor mean or a square that overflows is raised as NonFiniteError below
    with np.errstate(over="ignore"):
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
            side_resid = yo - nb.mean(axis=1)
            # the mean of equal values can round away from them: a point whose
            # neighbors all share its response has no residual
            side_resid[(nb == yo[:, None]).all(axis=1)] = 0.0
            resid[io] = side_resid
        sigma2 = (j / (j + 1.0)) * resid**2
    if not np.isfinite(sigma2).all():
        raise NonFiniteError("nearest-neighbor variance is not finite (y near 1e154 and up)")
    return sigma2


def se_of_linear_functional(weights: np.ndarray, sigma2: np.ndarray) -> float:
    """Standard error sqrt(sum(w_i^2 sigma2_i)) of a linear-in-y estimator.

    Applied to combined weights (above minus below) this is the conventional
    SE of the LATE estimate; applied to bias-corrected weights it is the
    robust SE, which is how the variance-correction term is realized.
    Raises NonFiniteError when the SE overflows (responses near 1e154 and
    up square past the float range).
    """
    weights = np.asarray(weights, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if weights.shape != sigma2.shape:
        raise LengthMismatchError(
            f"weights ({weights.shape}) and variances ({sigma2.shape}) differ"
        )
    with np.errstate(over="ignore"):  # raised as NonFiniteError below
        se = float(np.sqrt(np.sum(weights**2 * sigma2)))
    if not math.isfinite(se):
        raise NonFiniteError(f"standard error is not finite ({se})")
    return se
