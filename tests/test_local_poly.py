import dataclasses
import math
from fractions import Fraction

import numpy as np
from numpy.linalg import lapack_lite
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import get_lapack_funcs

from conftest import (
    affine_transform,
    nn_variance_oracle,
    overflowing_sample,
    small_samples,
    wls_curvature_oracle,
    wls_intercept_oracle,
)
from rdsmall.core import RDSample
from rdsmall.errors import (
    BadBandwidthError,
    InsufficientDataError,
    LengthMismatchError,
    NonFiniteError,
)
from rdsmall.inference import BoundaryFits
from rdsmall.local_poly import (
    _RANK_RTOL,
    _extraction_coefficients,
    _fma,
    CurvatureFit,
    Kernel,
    LinearFit,
    local_poly_fit,
    nn_variance,
    power_columns,
    se_of_linear_functional,
)


def _sample(x, y, c=0.0):
    return RDSample(x=np.asarray(x, float), y=np.asarray(y, float), cutoff=c)


class TestLocalPolyFit:
    def test_reproduces_line_exactly(self):
        x = np.array([-0.5, -0.25, -0.1])
        sample = _sample(x, 2 + 3 * x)
        for h in (0.5, 0.6, 5.0):
            fit = local_poly_fit(sample, "below", 1, h)
            assert fit.fitted_at_cutoff == pytest.approx(2.0, abs=1e-12)

    def test_two_points_interpolate(self):
        sample = _sample([-0.4, -0.1], [1.0, 4.0])
        fit = local_poly_fit(sample, "below", 1, 0.5)
        # line through the two points evaluated at the cutoff
        assert fit.fitted_at_cutoff == pytest.approx(5.0, rel=1e-12)
        assert fit.weights == pytest.approx([-1 / 3, 4 / 3], rel=1e-12)

    def test_single_point_is_insufficient(self):
        sample = _sample([-0.2, 0.3, 0.4], [1.0, 2.0, 3.0])
        with pytest.raises(InsufficientDataError):
            local_poly_fit(sample, "below", 1, 1.0)

    def test_coincident_points_are_rank_deficient(self):
        sample = _sample([-0.2, -0.2, -0.2, 0.5], [1.0, 2.0, 3.0, 0.0])
        with pytest.raises(InsufficientDataError):
            local_poly_fit(sample, "below", 1, 1.0)

    def test_bad_bandwidth(self):
        sample = _sample([-0.2, -0.1], [1.0, 2.0])
        for h in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(BadBandwidthError):
                local_poly_fit(sample, "below", 1, h)

    @pytest.mark.parametrize("kernel", list(Kernel))
    def test_moment_conditions_and_locality(self, kernel):
        # the intercept's weights: sum(w) = 1, sum(w u) = 0; the curvature's:
        # sum(v u^j) = 0, 0, 2 for j = 0, 1, 2, to rel 1e-9 of the sum of the
        # terms' sizes
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 80)
        sample = _sample(x, rng.normal(size=80))
        h = 0.45
        u = x - sample.cutoff
        for side in ("below", "above"):
            for degree in (1, 2):
                fit = local_poly_fit(sample, side, degree, h, kernel)
                if degree == 1:
                    assert fit.weights.sum() == pytest.approx(1.0, abs=1e-12)
                    assert fit.weights @ u == pytest.approx(0.0, abs=1e-10)
                else:
                    for j, target in enumerate((0.0, 0.0, 2.0)):
                        size = np.abs(fit.weights) @ np.abs(u) ** j
                        assert abs(fit.weights @ u**j - target) <= 1e-9 * max(size, abs(target))
                outside = np.abs(u) >= h
                assert np.all(fit.weights[outside] == 0.0)
                wrong_side = u >= 0 if side == "below" else u < 0
                assert np.all(fit.weights[wrong_side] == 0.0)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_polynomial_reproduction(self, degree):
        # a degree-1 fit yields q(0), a degree-2 fit q''(0)
        rng = np.random.default_rng(100 + degree)
        for _ in range(25):
            x = rng.uniform(-1, -0.01, 20 + degree)
            coeffs = rng.normal(size=degree + 1)
            y = np.polynomial.polynomial.polyval(x, coeffs)
            sample = _sample(x, y)
            fit = local_poly_fit(sample, "below", degree, 1.5)
            if degree == 1:
                got, expected = fit.fitted_at_cutoff, coeffs[0]
            else:
                got, expected = fit.weights @ y, 2.0 * coeffs[2]
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("degree", [0, 3])
    def test_degrees_other_than_one_and_two_are_refused(self, degree):
        sample = _sample(np.linspace(-0.9, -0.1, 9), np.arange(9.0))
        with pytest.raises(ValueError, match="degree must be 1 or 2"):
            local_poly_fit(sample, "below", degree, 1.0)

    def test_matches_dense_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(12, 60))
            x = rng.uniform(-1, 1, n)
            y = rng.normal(size=n)
            c = float(rng.uniform(-0.2, 0.2))
            h = float(rng.uniform(0.3, 1.0))
            side = "below" if rng.random() < 0.5 else "above"
            degree = int(rng.integers(1, 3))
            sample = _sample(x, y, c)
            try:
                fit = local_poly_fit(sample, side, degree, h)
            except InsufficientDataError:
                continue
            if degree == 1:
                got, expected = fit.fitted_at_cutoff, wls_intercept_oracle(x, y, c, side, 1, h)
            else:
                got, expected = fit.weights @ y, wls_curvature_oracle(x, y, c, side, h)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-11)

    def test_equivariance_under_positive_rescale(self):
        # grid avoids the cutoff knife-edge: side membership of a point at
        # floating-point zero is not affine-invariant
        grid = np.linspace(-0.93, 0.87, 41) + 0.003
        sample = _sample(grid, np.sin(grid))
        fit = local_poly_fit(sample, "above", 1, 0.5)
        for a in (0.5, 3.0):
            moved = affine_transform(sample, a, 1.3)
            fit_a = local_poly_fit(moved, "above", 1, 0.5 * a)
            assert fit_a.fitted_at_cutoff == pytest.approx(
                fit.fitted_at_cutoff, rel=1e-10
            )

    def test_kernel_choice_changes_little_on_smooth_data(self):
        x = np.linspace(-1.0, -0.02, 40)
        sample = _sample(x, np.sin(2 * x) + 0.5 * x**2)
        fits = [
            local_poly_fit(sample, "below", 1, 0.6, kernel).fitted_at_cutoff
            for kernel in Kernel
        ]
        spread = max(fits) - min(fits)
        # regression bound: the kernels agreed within 0.031 when frozen
        assert spread < 0.05


def _reference_kernel_weight(kernel, u):
    """Kernel weights by the plain formula, with |u| taken twice and the
    triangular weights masked to +0.0 at |u| >= 1 in a separate step:
    inside the open window ``Kernel.weight`` must give these bits without
    the mask."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    if kernel is Kernel.TRIANGULAR:
        w = np.where(inside, 1.0 - np.abs(u), 0.0)
        w[np.abs(u) >= 1.0] = 0.0
        return w
    return np.where(inside, 0.5, 0.0)


def _side_window(sample, side, h):
    if side not in ("below", "above"):
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")
    idx = getattr(sample, side)
    # Open window: weights are exactly zero outside (c-h, c+h).
    return idx[np.abs(sample.x[idx] - sample.cutoff) < h]


def _reference_fit(sample, side, degree, h, kernel):
    """The fit through numpy's full QR and scipy's checked triangular
    solves; ``local_poly_fit`` must reproduce it bit for bit.  At degree 2
    it returns only the curvature."""
    if not np.isfinite(h) or h <= 0:
        raise BadBandwidthError(f"bandwidth must be positive and finite, got {h}")
    if h * h < np.finfo(float).tiny:
        raise BadBandwidthError(f"bandwidth {h} is too small to square in floating point")
    idx = _side_window(sample, side, h)
    t = (sample.x[idx] - sample.cutoff) / h
    w = _reference_kernel_weight(kernel, t)
    pos = w > 0
    idx, t, w = idx[pos], t[pos], w[pos]
    m = idx.size
    if m < degree + 1:
        raise InsufficientDataError(
            f"{m} usable point(s) {side} the cutoff within h={h:g}; "
            f"degree {degree} needs {degree + 1}"
        )
    z = np.vander(t, degree + 1, increasing=True)
    _, r = np.linalg.qr(np.sqrt(w)[:, None] * z)
    rdiag = np.abs(np.diag(r))
    if rdiag.min() <= _RANK_RTOL * rdiag.max():
        raise InsufficientDataError(
            f"rank-deficient degree-{degree} design {side} the cutoff (h={h:g})"
        )

    def extraction_weights(coef_index):
        e = np.zeros(degree + 1)
        e[coef_index] = 1.0
        return w * (z @ solve_triangular(r, solve_triangular(r, e, trans="T")))

    weights = np.zeros(sample.n)
    if degree == 2:
        weights[idx] = (2.0 / h**2) * extraction_weights(2)
        return CurvatureFit(weights=weights, n_effective=m)
    w_local = extraction_weights(0)
    weights[idx] = w_local
    u = t * h
    nonzero = w_local[w_local != 0.0]
    return LinearFit(
        weights=weights,
        fitted_at_cutoff=float(w_local @ sample.y[idx]),
        weighted_x2=float(w_local @ u**2),
        abs_weighted_x2=float(np.abs(w_local) @ u**2),
        sign_constant=bool(nonzero.size == 0 or (nonzero > 0).all() or (nonzero < 0).all()),
    )


def _outcome(fit, *args):
    try:
        return fit(*args)
    except (BadBandwidthError, InsufficientDataError) as exc:
        return type(exc), str(exc)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_power_columns_are_numpys_vander(k):
    t = np.random.default_rng(k).uniform(-1.0, 1.0, 50) * 10.0 ** np.arange(-24, 26)
    t[:3] = [0.0, -0.0, 1.0]
    got, want = power_columns(t, k), np.vander(t, k, increasing=True)
    assert _same_bits(got, want) and got.flags.c_contiguous


@pytest.mark.parametrize("kernel", list(Kernel))
def test_kernel_weights_match_the_reference_formula(kernel):
    # the open window's offsets, its edges included: |t| < 1
    t = np.array([np.nextafter(-1.0, 0.0), -0.5, -0.0, 0.0, 1e-300, 0.75,
                  1.0 - 1e-16, np.nextafter(1.0, 0.0)])
    assert _same_bits(kernel.weight(t), _reference_kernel_weight(kernel, t))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    sample=small_samples(),
    side=st.sampled_from(["below", "above"]),
    degree=st.sampled_from([1, 2]),
    kernel=st.sampled_from(list(Kernel)),
    data=st.data(),
)
def test_fit_is_bit_identical_to_the_reference(sample, side, degree, kernel, data):
    # h from half the side's nearest distance to the cutoff, through each
    # point's distance (the open window's edge) and just past it, to twice
    # the side's range
    dist = np.unique(np.abs(sample.x[getattr(sample, side)] - sample.cutoff))
    dist = dist[dist > 0]
    assume(dist.size > 0)
    h = float(dist[data.draw(st.integers(0, dist.size - 1))]
              * data.draw(st.sampled_from([0.5, 1.0, 1.0 + 1e-9, 2.0])))
    if data.draw(st.booleans()):
        # points one float inside the window's edges c - h and c + h
        c = sample.cutoff
        edges = np.nextafter([c - h, c + h], c)
        y_edges = [data.draw(st.floats(-2, 2)) for _ in edges]
        sample = RDSample(x=np.concatenate([sample.x, edges]),
                          y=np.concatenate([sample.y, y_edges]), cutoff=c)
    got = _outcome(local_poly_fit, sample, side, degree, h, kernel)
    want = _outcome(_reference_fit, sample, side, degree, h, kernel)
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is type(want) is (LinearFit if degree == 1 else CurvatureFit)
    for field in dataclasses.fields(want):
        assert _same_bits(getattr(got, field.name), getattr(want, field.name)), field.name


_SCIPY_GEQRF, _SCIPY_TRTRS = get_lapack_funcs(("geqrf", "trtrs"), dtype=np.float64)


def _weighted_designs(count, seed):
    """(w, z) of random kernel-weighted designs, n = 3 to 400, 2 or 3 columns."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, k = int(rng.integers(3, 401)), int(rng.integers(2, 4))
        t = rng.uniform(-1.0, 1.0, n) * (rng.random() if i % 2 else 1.0)
        kernel = Kernel.TRIANGULAR if i % 3 else Kernel.UNIFORM
        yield kernel.weight(t), power_columns(t, k)


def test_numpys_dgeqrf_gives_scipys_r():
    # local_poly_fit factors with numpy's private-but-present lapack_lite, as
    # here; a numpy build that drops it or rounds R differently fails here
    for w, z in _weighted_designs(2000, seed=0):
        (m, k), want = z.shape, _SCIPY_GEQRF(np.multiply(np.sqrt(w)[:, None], z, order="F"))[0]
        a = np.multiply(np.sqrt(w), z.T, order="C")
        assert lapack_lite.dgeqrf(m, k, a, m, np.empty(k), np.empty(k), k, 0)["info"] == 0
        assert _same_bits(np.triu(a[:, :k].T), np.triu(want[:k]))


def test_written_out_solve_is_lapacks():
    # the coefficients of the one read coefficient, the intercept (2 columns)
    # or t^2's (3), are dtrtrs's R'v = e then Rg = v on R.T as lower, bit for bit
    for w, z in _weighted_designs(3000, seed=1):
        k = z.shape[1]
        qr = _SCIPY_GEQRF(np.multiply(np.sqrt(w)[:, None], z, order="F"))[0]
        rt = np.asfortranarray(qr[:k].T)
        v, _ = _SCIPY_TRTRS(rt, np.eye(k)[0 if k == 2 else 2], lower=1, trans=0)
        g, _ = _SCIPY_TRTRS(rt, v, lower=1, trans=1)
        assert _same_bits(np.array(_extraction_coefficients(qr[:k].T.tolist())), g)


def _exact_fma(a, b, c):
    """a * b + c rounded once; an exact zero is -0 only when both addends are -0."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact:
        return float(exact)
    negative_zeros = (math.copysign(1.0, a) * math.copysign(1.0, b) < 0 and 0 in (a, b)
                      and math.copysign(1.0, c) < 0)
    return -0.0 if negative_zeros else 0.0


def test_fma_rounds_once():
    rng = np.random.default_rng(2)
    triples = [(0.0, 1.5, 0.0), (-0.0, 1.5, 0.0), (-0.0, 1.5, -0.0), (0.0, -2.0, -0.0),
               (3.0, -0.0, -0.0), (1.5, 2.0, -3.0), (-1.5, 2.0, 3.0), (0.1, 10.0, -1.0),
               (5e-324, 0.5, 0.0), (5e-324, -0.5, -0.0), (1e-160, 1e-160, 0.0),
               (1e-160, -1e-160, 5e-324), (2.0 ** -537, 2.0 ** -537, -(2.0 ** -1074))]
    for _ in range(20000):
        # products from subnormal to 2^1000; c down to subnormal, or a*b's
        # rounded negative, which leaves the product's rounding error
        a, b = (float(m) * 2.0 ** int(e)
                for m, e in zip(rng.uniform(-2, 2, 2), rng.integers(-540, 500, 2)))
        c = float(rng.uniform(-2, 2)) * 2.0 ** int(rng.integers(-1074, 990))
        triples.append((a, b, -(a * b) if rng.random() < 0.3 else c))
    for a, b, c in triples:
        got, want = _fma(a, b, c), _exact_fma(a, b, c)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), (a, b, c)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_open_window_edges(kernel):
    # points at c - h and c + h get no weight; one float inside, they get
    # a positive kernel weight and count in the fit (with c = -2h, x - c is
    # exact, so these offsets are strictly inside the window)
    c, h = -1.0, 0.5
    inner = np.nextafter([c - h, c + h], c)
    assert np.all(np.abs(inner - c) < h)
    x = np.array([c - h, inner[0], c - 0.1, c - 0.2, c + 0.1, c + 0.2, inner[1], c + h])
    sample = _sample(x, np.arange(8.0), c)
    for side, edge, near in (("below", 0, 1), ("above", 7, 6)):
        fit = local_poly_fit(sample, side, 1, h, kernel)
        assert np.count_nonzero(fit.weights) == 3
        assert fit.weights[edge] == 0.0
        assert fit.weights[near] != 0.0
    assert np.all(kernel.weight(inner - c) > 0)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_curvature_weights_recover_a_quadratic(kernel):
    # ik's pilot reads mu'' as a degree-2 fit's weights @ y
    x = np.linspace(-0.9, 0.9, 19) + 0.01
    y = 1.5 - 0.4 * x + 0.35 * x**2
    sample = _sample(x, y)
    for side in ("below", "above"):
        fit = local_poly_fit(sample, side, 2, 1.0, kernel)
        assert isinstance(fit, CurvatureFit) and fit.n_effective == 9 + (side == "above")
        assert fit.weights @ y == pytest.approx(0.7, rel=1e-9)
    assert isinstance(local_poly_fit(sample, "below", 1, 1.0, kernel), LinearFit)


class TestLatePointEstimate:
    """The effect at the cutoff, ``BoundaryFits.build(...).tau``: the above
    fit minus the below fit, both triangular."""

    @staticmethod
    def _build(sample, h):
        # tau and the fits do not read sigma2
        return BoundaryFits.build(sample, h, np.ones(sample.n))

    def test_linear_dgp_recovers_jump(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 60)
        y = 1 + x + 0.1 * (x >= 0)
        assert self._build(_sample(x, y), 0.8).tau == pytest.approx(0.1, abs=1e-10)

    def test_mirrored_sample_has_zero_effect(self):
        x_half = np.array([0.05, 0.12, 0.3, 0.44])
        y_half = np.array([1.0, 1.4, 0.7, 1.1])
        x = np.concatenate([-x_half, x_half])
        y = np.concatenate([y_half, y_half])
        assert self._build(_sample(x, y), 0.5).tau == pytest.approx(0.0, abs=1e-12)

    def test_eight_point_fixture_matches_oracle(self, eight_point_sample):
        s = eight_point_sample
        fits = self._build(s, 0.5)
        expected = wls_intercept_oracle(
            s.x, s.y, 0.0, "above", 1, 0.5
        ) - wls_intercept_oracle(s.x, s.y, 0.0, "below", 1, 0.5)
        assert fits.tau == pytest.approx(expected, rel=1e-10)
        assert fits.above.fitted_at_cutoff - fits.below.fitted_at_cutoff == fits.tau

    def test_propagates_insufficient_side(self):
        sample = _sample([-0.1, 0.1, 0.2, 0.3], [1, 2, 3, 4.0])
        with pytest.raises(InsufficientDataError):
            self._build(sample, 1.0)


class TestNNVariance:
    # every point averages its three nearest same-side neighbors

    def test_constant_side_gives_zero(self):
        sample = _sample([-4, -3, -2, -1, 1, 2, 3, 4], [5, 5, 5, 5, 1, 2, 3, 4])
        sigma2 = nn_variance(sample)
        np.testing.assert_array_equal(sigma2[:4], 0.0)
        assert (sigma2[4:] > 0).all()

    def test_hand_example(self):
        # above, every point's distances are distinct: x = 8 averages the
        # responses at 4, 2 and 1, (0 + 3 + 0) / 3 = 1, so sigma2 = 3/4 * 5^2
        sample = _sample([-1, -2, -3, -4, 1, 2, 4, 8, 16],
                         [1.0, 1.0, 1.0, 5.0, 0.0, 3.0, 0.0, 6.0, 0.0])
        sigma2 = nn_variance(sample)
        np.testing.assert_allclose(
            sigma2, [4 / 3, 4 / 3, 4 / 3, 12, 27 / 4, 3 / 4, 27 / 4, 75 / 4, 27 / 4])

    def test_tie_breaks_to_lower_index(self):
        # x = 3's third neighbor is x = 5 or x = 1, both at distance 2; x = 5
        # has the lower index, so the neighbors are 2, 4 and 5 (mean 1)
        sample = _sample([-1, -2, -3, -4, 5, 2, 3, 4, 1],
                         [0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0])
        sigma2 = nn_variance(sample)
        assert sigma2[6] == pytest.approx(0.75 * (0.0 - 1.0) ** 2)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(9)
        for n in (8, 13, 50):
            x = rng.uniform(-1, 1, n)
            x[: n // 2] = -np.abs(x[: n // 2])  # at least four a side
            x[n // 2:] = np.abs(x[n // 2:]) + 0.05
            y = rng.normal(size=n)
            got = nn_variance(_sample(x, y, c=0.05))
            want = nn_variance_oracle(x, y, 0.05, 3)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_side_size_equal_j_is_insufficient(self):
        sample = _sample([-1, -2, -3, 1, 2, 3, 4], np.arange(7.0))
        with pytest.raises(InsufficientDataError, match="side below has 3 observation"):
            nn_variance(sample)
        assert nn_variance(_sample([-4, -1, -2, -3, 1, 2, 3, 4], np.arange(8.0))).shape == (8,)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_overflowing_response_is_a_nonfinite_error(self, side):
        # that side's variances used to come back inf, and ak_bandwidth then
        # picked a bandwidth from an objective that was inf or NaN everywhere
        with pytest.raises(NonFiniteError, match="nearest-neighbor variance"):
            nn_variance(overflowing_sample([side]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factor", [1e-163, 1e-295])
    def test_variances_that_all_underflow_are_a_nonfinite_error(self, factor):
        # every square underflowed to 0: cv and rbc gave zero-width intervals
        with pytest.raises(NonFiniteError, match="underflows to 0"):
            nn_variance(overflowing_sample(factor=factor))
        assert nn_variance(overflowing_sample(factor=1e-160)).all()

    @pytest.mark.parametrize("level", [1.0, 1e-300])
    def test_responses_constant_on_each_side_keep_zero_variances(self, level):
        sample = _sample([-4, -3, -2, -1, 1, 2, 3, 4], [level] * 4 + [2 * level] * 4)
        np.testing.assert_array_equal(nn_variance(sample), 0.0)


class TestSEOfLinearFunctional:
    def test_direct_formula(self):
        assert se_of_linear_functional(
            np.array([1.0, -1.0]), np.array([4.0, 9.0])
        ) == pytest.approx(np.sqrt(13.0))

    def test_zero_variances(self):
        assert se_of_linear_functional(np.ones(4), np.zeros(4)) == 0.0

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(21)
        w = rng.normal(size=35)
        s2 = rng.uniform(0, 2, 35)
        total = 0.0
        for wi, si in zip(w, s2):
            total += wi * wi * si
        assert se_of_linear_functional(w, s2) == pytest.approx(
            np.sqrt(total), rel=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            se_of_linear_functional(np.ones(3), np.ones(4))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_is_a_nonfinite_error(self):
        # each term is finite, their sum is not
        with pytest.raises(NonFiniteError, match="standard error"):
            se_of_linear_functional(np.ones(3), np.full(3, 1e308))
