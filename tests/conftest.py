"""Shared fixtures and independent oracles.

The oracles here intentionally avoid the library's computation paths: dense
normal equations built from raw (uncentered-basis) design matrices, brute
force double loops for neighbor variances, direct summation for standard
errors, the simulated mean functions' second derivatives piece by piece.
Library routines are tested against these, never against themselves.
``sigma2_of``, ``fits_at`` and ``permutation_test`` are not oracles: the
first two build the shared inputs that the interval and bandwidth routines
take, as the estimation engine does, and the third runs the window test at
one effect as ``lr_interval`` runs it at each point of its grid.
``affine_transform`` moves a sample's scores for the invariance tests.
``ak_pick_oracle`` is ak's candidate sweep without its screen, and
``nn_variance_gather`` is ``nn_variance`` as it read its neighbor candidates
through a clipped position table.  ``pytest_make_collect_report`` refuses a
hypothesis test that a mark runs with warnings as errors.
"""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import strategies as st

from rdsmall.bandwidth import _AK_GRID_SIZE, BandwidthResult, _grid_objective
from rdsmall.core import RDSample
from rdsmall.errors import InsufficientDataError, NonFiniteError, ZeroCurvatureBoundError
from rdsmall.inference import BoundaryFits
from rdsmall.local_poly import nn_variance
from rdsmall.local_randomization import (
    DEFAULT_MAX_EXACT,
    DEFAULT_N_MC,
    _assignment_stats,
    _p_values,
)


def affine_transform(sample, a, b):
    """Rescale the running variable: x' = a*x + b, cutoff' = a*c + b.

    The response is untouched.  Sides follow the sharp rule x' >= cutoff':
    with a > 0 every observation keeps its side; with a < 0 (for mirroring a
    design) the strict sides swap but a point at the cutoff stays treated,
    so x = [-1, 0, 1] about 0 maps under a = -1 to below [2], above [0, 1].
    """
    if a == 0:
        raise ValueError("affine transform requires a != 0")
    return RDSample(x=a * sample.x + b, y=sample.y, cutoff=a * sample.cutoff + b)


def kernel_weight_plain(name, u):
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    if name == "triangular":
        return np.where(a <= 1, 1 - a, 0.0)
    if name == "uniform":
        return np.where(a <= 1, 0.5, 0.0)
    return np.where(a <= 1, 0.75 * (1 - u * u), 0.0)


def wls_weights_oracle(x, c, side, degree, h, kernel_name="triangular", coef=0):
    """Extraction weights of the coefficient on (x - c)**coef (the intercept by
    default) via explicit (Z'WZ)^{-1} Z'W, raw basis."""
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
    row = np.linalg.solve(gram, np.eye(degree + 1)[coef])
    weights = np.zeros(x.size)
    weights[idx] = w_k * (z @ row)
    return weights


def wls_intercept_oracle(x, y, c, side, degree, h, kernel_name="triangular"):
    return float(wls_weights_oracle(x, c, side, degree, h, kernel_name) @ y)


def wls_curvature_oracle(x, y, c, side, h, kernel_name="triangular"):
    """The local quadratic's second derivative at c: twice its (x - c)**2
    coefficient."""
    return 2.0 * float(wls_weights_oracle(x, c, side, 2, h, kernel_name, coef=2) @ y)


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


def nn_variance_gather(sample, j=3):
    """``nn_variance`` with its candidates gathered through a table of sorted
    positions, clipped at the edges, where the invalid slots get +inf distance
    and the largest index.  Each side needs j + 1 points; no error checks."""
    resid = np.zeros(sample.n)
    with np.errstate(over="ignore"):
        for idx in (sample.below, sample.above):
            s = idx.size
            xs, ys = sample.x[idx], sample.y[idx]
            order = np.argsort(xs, kind="stable")
            xo, yo, io = xs[order], ys[order], idx[order]
            offsets = np.concatenate([np.arange(-j, 0), np.arange(1, j + 1)])
            pos = np.arange(s)[:, None] + offsets[None, :]
            valid = (pos >= 0) & (pos < s)
            pos_c = np.clip(pos, 0, s - 1)
            dist = np.where(valid, np.abs(xo[pos_c] - xo[:, None]), np.inf)
            tie_rank = np.where(valid, io[pos_c], np.iinfo(np.int64).max)
            take = np.lexsort((tie_rank, dist), axis=1)[:, :j]
            nb = yo[pos_c[np.arange(s)[:, None], take]]
            side_resid = yo - nb.mean(axis=1)
            side_resid[(nb == yo[:, None]).all(axis=1)] = 0.0
            resid[io] = side_resid
        return (j / (j + 1.0)) * resid**2


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


def overflowing_sample(sides=("below", "above"), factor=1e200):
    """Five scores a side with responses of order ``factor`` on ``sides`` (1
    to 4 elsewhere): at 1e200, finite, but their squares overflow.  Scaled on
    both sides it is the sample of the CLI's 10-row overflow CSV."""
    x = np.array([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5], dtype=float)
    y = np.array([3, -1, 2, -3, 1, 2, -2, 4, -1, 3], dtype=float)
    for side in sides:
        y[x < 0 if side == "below" else x >= 0] *= factor
    return RDSample(x=x, y=y, cutoff=0.0)


# The simulated mean functions' interior knots, and their second derivatives
# as (lo, hi, ascending poly coefficients) pieces; the knots and the cutoff
# separate pieces.
MU_KNOTS = {"mu1": (-0.2, 0.2, 0.4, 0.7), "mu2": (), "mu3": ()}
_MU_D2_PIECES = {
    "mu1": (
        (-1.0, -0.2, (2.0,)),
        (-0.2, 0.2, (-2.0,)),
        (0.2, 0.4, (2.0,)),
        (0.4, 0.7, (-2.0,)),
        (0.7, 1.0, (2.0,)),
    ),
    "mu2": ((-1.0, 1.0, (-6.0, 47.94, -108.12, 71.2)),),
    "mu3": ((-1.0, 0.0, (6.4, 16.2)), (0.0, 1.0, (5.0, -9.0))),
}


def mu_second_derivative(name, x):
    """Analytic second derivative (undefined exactly at knots/cutoff)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out.fill(np.nan)
    for lo, hi, coeffs in _MU_D2_PIECES[name]:
        mask = (x >= lo) & (x <= hi)
        out[mask] = np.polynomial.Polynomial(coeffs)(x[mask])
    return float(out) if out.ndim == 0 else out


def max_abs_second_derivative(name):
    """Analytic max of |mu''| over [-1, 1] away from the knot/cutoff points.

    For mu1 this is 2 and for mu2 it is 233.26 (attained at x = -1), both
    matching the designs' nominal bounds.  For mu3 the analytic value is 9.8
    (also at x = -1), which does NOT match the nominal 16.2; 16.2 is the
    slope coefficient of mu3'' below the cutoff, suggesting a transcription
    slip.  The nominal value stays in the library as
    ``MU_FUNCTIONS['mu3'].nominal_curvature_bound``.
    """
    worst = 0.0
    for lo, hi, coeffs in _MU_D2_PIECES[name]:
        poly = np.polynomial.Polynomial(coeffs)
        candidates = [lo, hi]
        deriv = poly.deriv()
        if deriv.degree() >= 1:
            for root in deriv.roots():
                if abs(root.imag) < 1e-12 and lo < root.real < hi:
                    candidates.append(float(root.real))
        worst = max(worst, max(abs(float(poly(c))) for c in candidates))
    return worst


PermutationTest = namedtuple("PermutationTest",
                             "observed_stat p_value n_assignments_evaluated mode")


def permutation_test(y_control, y_treated, tau0=0.0, *, max_exact=DEFAULT_MAX_EXACT,
                     n_mc=DEFAULT_N_MC, rng=None):
    """The window test of a constant effect tau0, as ``lr_interval`` runs it:
    a two-sided p over every assignment when at most ``max_exact`` exist,
    else over ``n_mc`` draws with ``rng`` and the observed one."""
    y_window = np.concatenate([y_control, y_treated]).astype(float)
    u, bounds, v, mode = _assignment_stats(y_window, len(y_treated), max_exact, n_mc, rng)
    p = _p_values(u, bounds, v, np.array([tau0], dtype=float))[0]
    return PermutationTest(float(u[0] - tau0), float(p), u.size, mode)


def ak_pick_oracle(sample, bound, *, sigma2):
    """``ak_bandwidth`` scoring every candidate with the exact sweep: the
    same grid, first-minimum tie rule and raises, with no screen."""
    u = sample.x - sample.cutoff
    sides = []
    for idx in (sample.below, sample.above):
        order = np.argsort(np.abs(u[idx]))
        sides.append((u[idx][order], sigma2[idx][order]))
    h_lo = max(abs(sides[0][0][1]), abs(sides[1][0][1]))
    h_hi = float(sample.x.max() - sample.x.min())
    if h_lo <= 0:
        h_lo = max(1e-8 * h_hi, np.finfo(float).tiny)
    if h_hi <= h_lo:
        h_hi = 2.0 * h_lo
    grid = np.geomspace(h_lo, h_hi, _AK_GRID_SIZE)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf at infeasible candidates
        (ok_b, bias_b, var_b), (ok_a, bias_a, var_a) = (
            _grid_objective(*side, grid) for side in sides)
        if not (ok_b & ok_a).any():
            raise InsufficientDataError("ak: no candidate bandwidth fits both sides",
                                        reason="no_feasible_h")
        feasible, bias_sq = ok_b & ok_a, (0.5 * bound.value * (bias_b + bias_a)) ** 2
        # the squared bias bound is 0 at every feasible candidate, though a load is not
        if not bias_sq[feasible].any() and (bias_b + bias_a)[feasible].any():
            raise ZeroCurvatureBoundError("ak: the bias bound squares to 0, as if M were 0")
        mse = np.where(feasible, bias_sq + (var_b + var_a), np.inf)
    pick = int(np.argmin(mse))
    if not np.isfinite(mse[pick]):
        raise NonFiniteError("ak: the objective overflows at every feasible candidate")
    return BandwidthResult(float(grid[pick]),
                           diagnostics={"grid_lo": float(grid[0]), "grid_hi": float(grid[-1])})


def sigma2_of(sample):
    """The sample's nearest-neighbor variances, as the engine computes them."""
    return nn_variance(sample)


def fits_at(sample, h):
    """The ``BoundaryFits`` that cv, rbc and flci read at bandwidth h."""
    return BoundaryFits.build(sample, h, sigma2_of(sample))


@st.composite
def small_samples(draw, integer_scores=True, distance_ties=True):
    """Small samples: integer scores with ties at the cutoff (unless
    ``integer_scores`` is false) or real scores, sometimes on one
    side only; constant, linear or noisy responses; scales from 1e-6 to 1e6.
    Without ``distance_ties``, a drawn point that would give some point of
    its side two others at one distance is left out, so none remains."""
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
    if not distance_ties:
        keep, sides = [], ([], [])
        for i, xi in enumerate(x.tolist()):
            side = sides[xi >= 0.0]
            if not has_distance_tie(np.array(side + [xi])):
                side.append(xi)
                keep.append(i)
        x, y = x[keep], y[keep]
    return RDSample(x=x, y=y, cutoff=0.0)


def has_distance_tie(x):
    """Whether some point of x has two others at one distance from it."""
    d = np.abs(x[:, None] - x[None, :])
    return any(np.unique(np.delete(row, i)).size < x.size - 1 for i, row in enumerate(d))


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    """Fail the collection of a hypothesis test that a ``filterwarnings``
    mark runs with warnings as errors.  On a failing example hypothesis's
    report hook imports modules that warn, and the mark turns that warning
    into an INTERNALERROR that ends the session; set such a filter inside
    the test body instead."""
    report = yield
    marked = [item.nodeid for item in report.result or ()
              if getattr(getattr(item, "obj", None), "is_hypothesis_test", False)
              and any(arg.split(":")[0].strip() == "error"
                      for mark in item.iter_markers("filterwarnings") for arg in mark.args)]
    if marked:
        report.outcome, report.result = "failed", []
        report.longrepr = ("hypothesis test(s) under a filterwarnings mark that makes "
                           f"warnings errors (set the filter in the body): {', '.join(marked)}")
    return report
