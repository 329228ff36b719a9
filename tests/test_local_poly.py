import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from conftest import (
    affine_transform,
    nn_variance_oracle,
    overflowing_sample,
    small_samples,
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
        assert fit.n_effective == 2

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

    def test_moment_conditions_and_locality(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 80)
        sample = _sample(x, rng.normal(size=80))
        h = 0.45
        for side in ("below", "above"):
            for degree in (1, 2):
                fit = local_poly_fit(sample, side, degree, h)
                u = x - sample.cutoff
                assert fit.weights.sum() == pytest.approx(1.0, abs=1e-12)
                for j in range(1, degree + 1):
                    assert fit.weights @ u**j == pytest.approx(0.0, abs=1e-10)
                outside = np.abs(u) >= h
                assert np.all(fit.weights[outside] == 0.0)
                wrong_side = u >= 0 if side == "below" else u < 0
                assert np.all(fit.weights[wrong_side] == 0.0)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_polynomial_reproduction(self, degree):
        rng = np.random.default_rng(100 + degree)
        for _ in range(25):
            x = rng.uniform(-1, -0.01, 20 + degree)
            coeffs = rng.normal(size=degree + 1)
            y = np.polynomial.polynomial.polyval(x, coeffs)
            sample = _sample(x, y)
            fit = local_poly_fit(sample, "below", degree, 1.5)
            expected = coeffs[0]  # q(0)
            assert fit.fitted_at_cutoff == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )

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
            expected = wls_intercept_oracle(x, y, c, side, degree, h)
            assert fit.fitted_at_cutoff == pytest.approx(expected, rel=1e-9, abs=1e-11)

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
    solves; ``local_poly_fit`` must reproduce it bit for bit."""
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

    w_local = extraction_weights(0)
    weights = np.zeros(sample.n)
    weights[idx] = w_local
    second = None
    if degree >= 2:
        second = np.zeros(sample.n)
        second[idx] = (2.0 / h**2) * extraction_weights(2)
    u = t * h
    nonzero = w_local[w_local != 0.0]
    return LinearFit(
        weights=weights,
        fitted_at_cutoff=float(w_local @ sample.y[idx]),
        n_effective=m,
        weighted_x2=float(w_local @ u**2),
        abs_weighted_x2=float(np.abs(w_local) @ u**2),
        sign_constant=bool(nonzero.size == 0 or (nonzero > 0).all() or (nonzero < 0).all()),
        second_deriv_weights=second,
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
    assert isinstance(got, LinearFit)
    for field in ("weights", "fitted_at_cutoff", "weighted_x2", "abs_weighted_x2",
                  "n_effective", "sign_constant"):
        assert _same_bits(getattr(got, field), getattr(want, field)), field
    if degree == 1:
        assert got.second_deriv_weights is None and want.second_deriv_weights is None
    else:
        assert _same_bits(got.second_deriv_weights, want.second_deriv_weights)


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
        assert fit.n_effective == 3
        assert fit.weights[edge] == 0.0
        assert fit.weights[near] != 0.0
    assert np.all(kernel.weight(inner - c) > 0)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_curvature_weights_recover_a_quadratic(kernel):
    # ik's pilot reads mu'' as second_deriv_weights @ y
    x = np.linspace(-0.9, 0.9, 19) + 0.01
    y = 1.5 - 0.4 * x + 0.35 * x**2
    sample = _sample(x, y)
    for side in ("below", "above"):
        fit = local_poly_fit(sample, side, 2, 1.0, kernel)
        assert fit.second_deriv_weights @ y == pytest.approx(0.7, rel=1e-9)
    assert local_poly_fit(sample, "below", 1, 1.0, kernel).second_deriv_weights is None


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
    def test_constant_side_gives_zero(self):
        sample = _sample([-3, -2, -1, 1, 2, 3], [5, 5, 5, 1, 2, 3])
        sigma2 = nn_variance(sample, j=1)
        np.testing.assert_array_equal(sigma2[:3], 0.0)

    def test_hand_example_j1(self):
        sample = _sample([-1, -2, 1, 2, 3], [5.0, 5.0, 0.0, 1.0, 0.0])
        sigma2 = nn_variance(sample, j=1)
        np.testing.assert_allclose(sigma2[2:], [0.5, 0.5, 0.5])

    def test_tie_breaks_to_lower_index(self):
        # x = 2 is equidistant from 1 and 3; the lower-index neighbor wins
        sample = _sample([-1, -2, 1, 2, 3], [0.0, 0.0, 0.0, 1.0, 9.0])
        sigma2 = nn_variance(sample, j=1)
        assert sigma2[3] == pytest.approx(0.5 * (1.0 - 0.0) ** 2)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 50)
        y = rng.normal(size=50)
        sample = _sample(x, y, c=0.05)
        for j in (1, 2, 3, 5):
            got = nn_variance(sample, j=j)
            want = nn_variance_oracle(x, y, 0.05, j)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_side_size_equal_j_is_insufficient(self):
        sample = _sample([-1, -2, -3, 1, 2, 3], np.zeros(6))
        with pytest.raises(InsufficientDataError):
            nn_variance(sample, j=3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_overflowing_response_is_a_nonfinite_error(self, side):
        # that side's variances used to come back inf, and ak_bandwidth then
        # picked a bandwidth from an objective that was inf or NaN everywhere
        with pytest.raises(NonFiniteError, match="nearest-neighbor variance"):
            nn_variance(overflowing_sample([side]))


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
