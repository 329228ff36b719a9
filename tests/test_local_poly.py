import numpy as np
import pytest

from conftest import nn_variance_oracle, wls_intercept_oracle
from rdsmall.core import RDSample, affine_transform
from rdsmall.errors import (
    BadBandwidthError,
    InsufficientDataError,
    LengthMismatchError,
)
from rdsmall.local_poly import (
    Kernel,
    late_point_estimate,
    local_poly_fit,
    nn_variance,
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
        # regression bound: the three kernels agreed within 0.031 when frozen
        assert spread < 0.05


class TestLatePointEstimate:
    def test_linear_dgp_recovers_jump(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 60)
        y = 1 + x + 0.1 * (x >= 0)
        tau, _ = late_point_estimate(_sample(x, y), 1, 0.8)
        assert tau == pytest.approx(0.1, abs=1e-10)

    def test_mirrored_sample_has_zero_effect(self):
        x_half = np.array([0.05, 0.12, 0.3, 0.44])
        y_half = np.array([1.0, 1.4, 0.7, 1.1])
        x = np.concatenate([-x_half, x_half])
        y = np.concatenate([y_half, y_half])
        tau, _ = late_point_estimate(_sample(x, y), 1, 0.5)
        assert tau == pytest.approx(0.0, abs=1e-12)

    def test_eight_point_fixture_matches_oracle(self, eight_point_sample):
        s = eight_point_sample
        tau, (below, above) = late_point_estimate(s, 1, 0.5)
        expected = wls_intercept_oracle(
            s.x, s.y, 0.0, "above", 1, 0.5
        ) - wls_intercept_oracle(s.x, s.y, 0.0, "below", 1, 0.5)
        assert tau == pytest.approx(expected, rel=1e-10)
        assert above.fitted_at_cutoff - below.fitted_at_cutoff == tau

    def test_propagates_insufficient_side(self):
        sample = _sample([-0.1, 0.1, 0.2, 0.3], [1, 2, 3, 4.0])
        with pytest.raises(InsufficientDataError):
            late_point_estimate(sample, 1, 1.0)


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
