"""Shared fixtures and independent oracles.

The oracles here intentionally avoid the library's computation paths: dense
normal equations built from raw (uncentered-basis) design matrices, brute
force double loops for neighbor variances, direct summation for standard
errors.  Library routines are tested against these, never against
themselves.  ``sigma2_of`` and ``fits_at`` are not oracles: they build the
shared inputs that the interval and bandwidth routines take, as the
estimation engine does.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from rdsmall.core import RDSample
from rdsmall.inference import BoundaryFits
from rdsmall.local_poly import nn_variance


def kernel_weight_plain(name, u):
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    if name == "triangular":
        return np.where(a <= 1, 1 - a, 0.0)
    if name == "uniform":
        return np.where(a <= 1, 0.5, 0.0)
    return np.where(a <= 1, 0.75 * (1 - u * u), 0.0)


def wls_weights_oracle(x, c, side, degree, h, kernel_name="triangular"):
    """Intercept-extraction weights via explicit (Z'WZ)^{-1} Z'W, raw basis."""
    u = x - c
    on_side = u < 0 if side == "below" else u >= 0
    mask = on_side & (np.abs(u) < h)
    w_k = kernel_weight_plain(kernel_name, u[mask] / h)
    keep = w_k > 0
    idx = np.flatnonzero(mask)[keep]
    uu = u[idx]
    w_k = w_k[keep]
    z = np.column_stack([uu**j for j in range(degree + 1)])
    gram = z.T @ (w_k[:, None] * z)
    first_row = np.linalg.solve(gram, np.eye(degree + 1)[0])
    weights = np.zeros(x.size)
    weights[idx] = w_k * (z @ first_row)
    return weights


def wls_intercept_oracle(x, y, c, side, degree, h, kernel_name="triangular"):
    return float(wls_weights_oracle(x, c, side, degree, h, kernel_name) @ y)


def nn_variance_oracle(x, y, c, j):
    """Brute-force nearest-neighbor variances, ties to the lower index."""
    n = x.size
    out = np.zeros(n)
    above = x >= c
    for i in range(n):
        same = [k for k in range(n) if above[k] == above[i] and k != i]
        same.sort(key=lambda k: (abs(x[k] - x[i]), k))
        nb = same[:j]
        out[i] = (j / (j + 1)) * (y[i] - np.mean([y[k] for k in nb])) ** 2
    return out


@pytest.fixture
def eight_point_sample():
    """Fixed small two-sided sample used by several oracle comparisons."""
    x = np.array([-0.45, -0.31, -0.18, -0.07, 0.04, 0.16, 0.29, 0.42])
    y = np.array([0.91, 0.52, 0.37, 0.21, 0.85, 0.63, 0.18, 0.44])
    return RDSample(x=x, y=y, cutoff=0.0)


def make_noisy_sample(n=120, seed=0, jump=0.1, noise=0.13):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = 0.4 + 0.8 * x + 0.9 * x**2 + jump * (x >= 0) + noise * rng.standard_normal(n)
    return RDSample(x=x, y=y, cutoff=0.0)


def sigma2_of(sample):
    """The sample's nearest-neighbor variances, as the engine computes them."""
    return nn_variance(sample)


def fits_at(sample, h):
    """The ``BoundaryFits`` that cv, rbc and flci read at bandwidth h."""
    return BoundaryFits.build(sample, h, sigma2_of(sample))


@st.composite
def small_samples(draw, integer_scores=True):
    """Small samples: integer scores with ties at the cutoff (unless
    ``integer_scores`` is false) or real scores, sometimes on one
    side only; constant, linear or noisy responses; scales from 1e-6 to 1e6."""
    n = draw(st.sampled_from(range(1, 31)))
    if integer_scores and draw(st.booleans()):
        x = np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)), float)
    else:
        x = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    side = draw(st.sampled_from(["both", "both", "both", "below", "above"]))
    if side == "below":
        x = -np.abs(x) - 0.5
    elif side == "above":
        x = np.abs(x)
    kind = draw(st.sampled_from(["constant", "linear", "noisy"]))
    y = np.full(n, draw(st.floats(-2, 2)))
    if kind != "constant":
        y += draw(st.floats(-2, 2)) * x + 0.1 * (x >= 0)
    if kind == "noisy":
        y += np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(n)
    x = x * 10.0 ** draw(st.integers(-6, 6))
    y = y * 10.0 ** draw(st.integers(-6, 6))
    return RDSample(x=x, y=y, cutoff=0.0)
