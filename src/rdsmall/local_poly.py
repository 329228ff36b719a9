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
from numpy.linalg import lapack_lite

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
_NN_J = 3  # nn_variance's same-side neighbors, the conventional count


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
    """A one-sided local-linear fit at the cutoff, as response weights.

    ``weights`` has one entry per sample observation; ``fitted_at_cutoff``
    equals ``weights @ y``.  The weights reproduce lines exactly:
    sum(w) = 1 and sum(w * (x - c)) = 0.
    ``weighted_x2`` and ``abs_weighted_x2`` cache sum(w*(x-c)^2) and
    sum(|w|*(x-c)^2); the former is the curvature loading used by bias
    correction, the latter the worst-case-bias loading.
    """

    weights: np.ndarray
    fitted_at_cutoff: float
    weighted_x2: float
    abs_weighted_x2: float
    sign_constant: bool


@dataclass(frozen=True)
class CurvatureFit:
    """A one-sided local-quadratic fit's second derivative at the cutoff.

    ``weights @ y`` estimates mu''(c): sum(w) = sum(w * (x - c)) = 0 and
    sum(w * (x - c)**2) = 2.  ``n_effective`` counts the points in the window.
    """

    weights: np.ndarray
    n_effective: int


def _fma(a: float, b: float, c: float) -> float:
    """Finite a * b + c rounded once, as ``math.fma`` (Python 3.13+): exact in
    integers, then one int division; an exact zero takes the float sum's sign."""
    (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
    nc, dc = c.as_integer_ratio()
    num = na * nb * dc + nc * da * db
    return num / (da * db * dc) if num else a * b + c


def _extraction_coefficients(r: list[list[float]]) -> list[float]:
    """g = (R'R)^{-1} e for the coefficient a fit reads, the intercept (k = 2)
    or t^2's (k = 3), from r[j][i] = R[i][j]: R'v = e, then Rg = v, rounded as
    LAPACK dtrtrs does on R.T as lower (tested), its 3-term dot product fused."""
    if len(r) == 2:
        (r00, _), (r01, r11) = r
        v0 = 1 / r00
        g1 = ((0 - r01 * v0) / r11) / r11
        return [(v0 - r01 * g1) / r00, g1]
    (r00, _, _), (r01, r11, _), (r02, r12, r22) = r
    g2 = (1 / r22) / r22
    g1 = (0 - r12 * g2) / r11
    return [-_fma(r02, g2, r01 * g1) / r00, g1, g2]


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
) -> LinearFit | CurvatureFit:
    """Kernel-weighted polynomial fit of y on (x - c) on one side of c.

    At degree 1 the fit is the weighted-least-squares intercept, a
    ``LinearFit``; at degree 2 it is only the second derivative at the
    cutoff, a ``CurvatureFit``.  The design is built on (x - c)/h so
    conditioning does not depend on the score scale (Indiana-style scores
    near 60 behave like scores near 0).

    Raises
    ------
    ValueError
        degree is not 1 or 2.
    BadBandwidthError
        h is not a positive finite number, or so small that h**2 is not a
        normal float or, at degree 2, that the curvature weights, which
        divide by it, overflow.
    InsufficientDataError
        Fewer than degree+1 usable points in the window, or the weighted
        design is rank deficient (coincident x values).
    """
    if not np.isfinite(h) or h <= 0:
        raise BadBandwidthError(f"bandwidth must be positive and finite, got {h}")
    if h * h < _MIN_H_SQUARED:
        raise BadBandwidthError(f"bandwidth {h} is too small to square in floating point")
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")

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
    # LAPACK dgeqrf, without numpy's input checks (a fit's inputs are finite),
    # reads this C-ordered (k, m) array as the column-major m-by-k weighted
    # design and factors it in place: R[i][j] = a[j][i] for i <= j.
    a = np.multiply(np.sqrt(w), z.T, order="C")
    lapack_lite.dgeqrf(m, k, a, m, np.empty(k), np.empty(k), k, 0)
    r = a[:, :k].tolist()
    rdiag = [abs(r[j][j]) for j in range(k)]
    if min(rdiag) <= _RANK_RTOL * max(rdiag):
        raise InsufficientDataError(
            f"rank-deficient degree-{degree} design {side} the cutoff (h={h:g})"
        )
    g = _extraction_coefficients(r)
    w_local = w * (z @ g)
    weights = np.zeros(sample.n)

    if degree == 2:
        scale = 2.0 / h**2
        # a float product that overflows is inf, without a numpy warning
        if not math.isfinite(float(np.abs(w_local).max()) * scale):
            raise BadBandwidthError(f"bandwidth {h} is too small: the curvature weights overflow")
        weights[idx] = scale * w_local
        return CurvatureFit(weights=weights, n_effective=m)

    weights[idx] = w_local
    u2 = (t * h) ** 2
    return LinearFit(
        weights=weights,
        fitted_at_cutoff=float(w_local @ sample.y[idx]),
        weighted_x2=float(w_local @ u2),
        abs_weighted_x2=float(np.abs(w_local) @ u2),
        # the nonzero weights share one sign
        sign_constant=bool(w_local.min() >= 0 or w_local.max() <= 0),
    )


def nn_variance(sample: RDSample) -> np.ndarray:
    """Per-observation nearest-neighbor residual variance.

    For each observation, sigma2_i = (3/4) * (y_i - ybar_i)^2 where ybar_i
    averages its three nearest same-side neighbors k by |x_k - x_i|, a
    fixed count (``_NN_J``).  Distance ties are broken toward the lower
    original index.

    Raises
    ------
    InsufficientDataError
        A side has fewer than four observations.
    NonFiniteError
        A variance overflows (responses near 1e154 and up), or every variance
        underflows to 0 while some residual is not 0 (responses near 1e-162
        and below), which would give zero-width intervals.  A response that
        is constant among each point's neighbors has variance 0 and passes.
    """
    j = _NN_J
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
    if not sigma2.any() and resid.any():
        raise NonFiniteError("nearest-neighbor variance underflows to 0 at every point "
                             "(y near 1e-162 and below)")
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
