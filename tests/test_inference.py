import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from conftest import fits_at, make_noisy_sample, nn_variance_oracle, wls_weights_oracle
from rdsmall.bandwidth import CurvatureBound
from rdsmall.core import RDSample
from rdsmall.errors import InsufficientDataError, ZeroSEError
import rdsmall.inference
from rdsmall.inference import (
    BoundaryFits,
    _brent,
    cv_interval,
    flci_interval,
    folded_normal_cv,
    rbc_interval,
    worst_case_bias,
)
from rdsmall.local_poly import Kernel, LinearFit, local_poly_fit

Z975 = 1.959963984540054


def _flat_zero_noise_sample():
    # constant response per side: nearest-neighbor variances vanish exactly
    x = np.array([-0.5, -0.35, -0.2, -0.1, 0.05, 0.15, 0.3, 0.45])
    y = 1.0 + 0.1 * (x >= 0)
    return RDSample(x=x, y=y, cutoff=0.0)


class TestCVInterval:
    def test_zero_noise_jump_gives_degenerate_interval(self):
        est = cv_interval(fits_at(_flat_zero_noise_sample(), 0.6), alpha=0.05)
        assert est.tau_hat == pytest.approx(0.1, abs=1e-10)
        assert est.se == 0.0
        assert est.ci_lower == pytest.approx(est.ci_upper, abs=1e-12)

    def test_sloped_zero_noise_recovers_jump(self):
        x = np.array([-0.5, -0.35, -0.2, -0.1, 0.05, 0.15, 0.3, 0.45])
        est = cv_interval(fits_at(RDSample(x=x, y=1 + x + 0.1 * (x >= 0), cutoff=0.0), 0.6),
                          alpha=0.05)
        assert est.tau_hat == pytest.approx(0.1, abs=1e-10)

    def test_standard_normal_critical_value(self):
        est = cv_interval(fits_at(make_noisy_sample(seed=6), 0.7), alpha=0.05)
        half = (est.ci_upper - est.ci_lower) / 2
        assert half / est.se == pytest.approx(Z975, rel=1e-9)

    def test_matches_independent_oracle(self, eight_point_sample):
        s = eight_point_sample
        h = 0.5
        est = cv_interval(fits_at(s, h), alpha=0.05)
        w_above = wls_weights_oracle(s.x, 0.0, "above", 1, h)
        w_below = wls_weights_oracle(s.x, 0.0, "below", 1, h)
        sigma2 = nn_variance_oracle(s.x, s.y, 0.0, 3)
        tau = (w_above - w_below) @ s.y
        se = np.sqrt(np.sum((w_above - w_below) ** 2 * sigma2))
        assert est.tau_hat == pytest.approx(tau, rel=1e-9)
        assert est.se == pytest.approx(se, rel=1e-9)
        assert est.ci_lower == pytest.approx(tau - Z975 * se, rel=1e-9)
        assert est.ci_upper == pytest.approx(tau + Z975 * se, rel=1e-9)

    def test_insufficient_data_propagates(self):
        sample = RDSample(x=[-0.1, 0.1, 0.2, 0.3], y=[1.0, 2, 3, 4], cutoff=0.0)
        with pytest.raises(InsufficientDataError):
            cv_interval(fits_at(sample, 1.0))


class TestRBCInterval:
    def test_linear_mean_no_correction(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, 200)
        y = 1 + 2 * x + 0.1 * (x >= 0)
        sample = RDSample(x=x, y=y, cutoff=0.0)
        fits = fits_at(sample, 0.8)
        cv, rbc = cv_interval(fits), rbc_interval(fits)
        assert rbc.tau_hat == pytest.approx(cv.tau_hat, abs=1e-9)

    def test_corrected_estimator_is_linear_in_y(self):
        # rbc on the unit responses e_i, with the same scores and sigma2,
        # reads off its weights w; the estimate and its SE must be w @ y and
        # sqrt(sum w^2 sigma2)
        sample = make_noisy_sample(n=150, seed=15)
        fits = fits_at(sample, 0.5)
        rbc = rbc_interval(fits)
        unit = np.eye(sample.n)
        w = np.array([
            rbc_interval(BoundaryFits.build(RDSample(sample.x, unit[i], 0.0), 0.5,
                                            fits.sigma2)).tau_hat
            for i in range(sample.n)
        ])
        assert w @ sample.y == pytest.approx(rbc.tau_hat, rel=1e-10)
        assert np.sqrt(np.sum(w**2 * fits.sigma2)) == pytest.approx(rbc.se, rel=1e-10)

    def test_bias_bandwidth_stays_at_h_when_feasible(self):
        sample = make_noisy_sample(n=150, seed=16)
        rbc = rbc_interval(fits_at(sample, 0.5))
        assert rbc.diagnostics["bias_bandwidth"] == 0.5

    def test_bias_bandwidth_expands_when_quadratic_infeasible(self):
        # two points above within h support the linear fit but not the
        # quadratic; the bias window must grow to reach the third point
        x = np.array([-0.18, -0.12, -0.06, -0.03, 0.05, 0.1, 0.8, 0.9])
        y = np.array([0.9, 0.7, 0.5, 0.35, 0.3, 0.4, 1.9, 2.1])
        sample = RDSample(x=x, y=y, cutoff=0.0)
        rbc = rbc_interval(fits_at(sample, 0.2))
        assert rbc.diagnostics["bias_bandwidth"] > 0.2
        assert np.isfinite(rbc.tau_hat)

    def test_truly_sparse_side_still_fails(self):
        # the above side never has three distinct scores, so no expansion of
        # the bias window can make the quadratic feasible
        x = np.array([-0.18, -0.12, -0.06, -0.03, -0.3, -0.4, 0.05, 0.05, 0.1, 0.1])
        y = np.arange(10.0)
        with pytest.raises(InsufficientDataError):
            rbc_interval(fits_at(RDSample(x=x, y=y, cutoff=0.0), 0.2))


class TestWorstCaseBias:
    def test_zero_bound(self):
        sample = make_noisy_sample(seed=17)
        _, fits = 0.0, (
            local_poly_fit(sample, "below", 1, 0.5),
            local_poly_fit(sample, "above", 1, 0.5),
        )
        assert worst_case_bias(fits, 0.0) == 0.0

    def test_linear_in_bound(self):
        sample = make_noisy_sample(seed=18)
        fits = (
            local_poly_fit(sample, "below", 1, 0.5),
            local_poly_fit(sample, "above", 1, 0.5),
        )
        assert worst_case_bias(fits, 2.0) == pytest.approx(
            2 * worst_case_bias(fits, 1.0), rel=1e-12
        )

    def test_symmetric_two_point_weights(self):
        # two points per side carrying weight 1/2 at squared distance d^2
        # give a worst-case bias of exactly M d^2
        d = 0.3
        side = LinearFit(
            weights=np.zeros(4), fitted_at_cutoff=0.0, n_effective=2,
            weighted_x2=d**2, abs_weighted_x2=d**2, sign_constant=True,
        )
        m = 1.7
        assert worst_case_bias((side, side), m) == pytest.approx(
            m * d**2, rel=1e-12
        )


class TestFoldedNormalCV:
    def test_zero_shape_is_standard_normal(self):
        assert folded_normal_cv(0.0, 0.05) == pytest.approx(1.959964, abs=1e-6)

    def test_unit_shape_value(self):
        got = folded_normal_cv(1.0, 0.05)
        oracle = brentq(lambda c: ndtr(c - 1) + ndtr(c + 1) - 1 - 0.95, 0, 10,
                        xtol=1e-12)
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(2.650, abs=5e-3)

    def test_large_shape_one_sided_limit(self):
        assert folded_normal_cv(10.0, 0.05) == pytest.approx(
            10 + 1.6449, abs=1e-4
        )

    @pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.5, 0.999])
    def test_equals_scipy_brentq_bit_for_bit(self, alpha):
        # _brent ports scipy's brentq.c step for step, so every critical
        # value, and every flci endpoint, keeps its bytes
        z = float(ndtri(1.0 - alpha))
        for t in np.concatenate([[0.0], np.geomspace(1e-12, 1e15, 2000)]):
            def gap(cv, t=t):
                return ndtr(cv - t) + ndtr(cv + t) - 1.0 - (1.0 - alpha)

            oracle = brentq(gap, 0.0, t + abs(z) + 1.0, xtol=1e-12, rtol=8.9e-16)
            assert folded_normal_cv(t, alpha) == oracle, t

    def test_brent_stops_as_scipy_does(self):
        def step(x):  # a jump at 1e-300: bisection needs ~1000 halvings to reach it
            return -1.0 if x < 1e-300 else 1.0

        for solve in (brentq, _brent):
            with pytest.raises(ValueError, match="different signs"):
                solve(step, 0.0, 1e-301, xtol=1e-12, rtol=8.9e-16)
            with pytest.raises(RuntimeError, match="after 100 iterations"):
                solve(step, 0.0, 1.0, xtol=5e-324, rtol=8.9e-16)

    def test_monotone_in_shape_and_alpha(self):
        shapes = np.linspace(0, 5, 21)
        values = [folded_normal_cv(t, 0.05) for t in shapes]
        assert np.all(np.diff(values) > 0)
        alphas = np.linspace(0.01, 0.5, 15)
        values = [folded_normal_cv(1.0, a) for a in alphas]
        assert np.all(np.diff(values) < 0)


class TestFLCIInterval:
    def test_zero_bound_coincides_with_cv(self):
        sample = make_noisy_sample(seed=19)
        fits = fits_at(sample, 0.6)
        cv, fl = cv_interval(fits), flci_interval(fits, CurvatureBound(0.0))
        assert fl.ci_lower == pytest.approx(cv.ci_lower, rel=1e-12)
        assert fl.ci_upper == pytest.approx(cv.ci_upper, rel=1e-12)

    def test_always_contains_cv(self):
        for seed in range(25):
            sample = make_noisy_sample(n=90, seed=seed)
            fits = fits_at(sample, 0.6)
            cv = cv_interval(fits)
            fl = flci_interval(fits, CurvatureBound(float(seed % 7)))
            assert fl.ci_lower <= cv.ci_lower + 1e-12
            assert fl.ci_upper >= cv.ci_upper - 1e-12
            assert fl.tau_hat == cv.tau_hat

    def test_zero_se_is_loud(self):
        with pytest.raises(ZeroSEError):
            flci_interval(fits_at(_flat_zero_noise_sample(), 0.6), CurvatureBound(1.0))

    def test_location_equivariance(self):
        sample = make_noisy_sample(n=120, seed=20)
        shifted = RDSample(sample.x, sample.y + 7.0, 0.0)
        bound = CurvatureBound(2.0)
        for build in (
            lambda s: cv_interval(fits_at(s, 0.6)),
            lambda s: rbc_interval(fits_at(s, 0.6)),
            lambda s: flci_interval(fits_at(s, 0.6), bound),
        ):
            base, moved = build(sample), build(shifted)
            assert moved.tau_hat == pytest.approx(base.tau_hat, abs=1e-9)
            assert moved.width == pytest.approx(base.width, rel=1e-9)


class TestBoundaryFits:
    BOUND = CurvatureBound(2.0)

    def test_shared_fits_give_the_same_intervals(self):
        sample = make_noisy_sample(n=120, seed=31)
        fits = fits_at(sample, 0.4)
        # rbc first: its bias fits must not move cv or flci
        shared = (rbc_interval(fits), cv_interval(fits), flci_interval(fits, self.BOUND))
        fresh = (rbc_interval(fits_at(sample, 0.4)), cv_interval(fits_at(sample, 0.4)),
                 flci_interval(fits_at(sample, 0.4), self.BOUND))
        for a, b in zip(shared, fresh):
            assert (a.tau_hat, a.se, a.ci_lower, a.ci_upper, a.bandwidth_or_window) == (
                b.tau_hat, b.se, b.ci_lower, b.ci_upper, b.bandwidth_or_window)
        sigma2 = fits.sigma2.copy()
        assert BoundaryFits.build(sample, 0.4, sigma2).sigma2 is sigma2

    def test_bias_fits_only_for_rbc_and_the_same_on_every_call(self, monkeypatch):
        calls = []

        def counted(sample, side, degree, h, kernel=Kernel.TRIANGULAR):
            calls.append(degree)
            return local_poly_fit(sample, side, degree, h, kernel)

        monkeypatch.setattr(rdsmall.inference, "local_poly_fit", counted)
        # above the cutoff there are never three distinct scores
        x = np.array([-0.18, -0.12, -0.06, -0.03, -0.3, -0.4, 0.05, 0.05, 0.1, 0.1])
        sample = RDSample(x=x, y=np.arange(10.0), cutoff=0.0)
        fits = fits_at(sample, 0.2)
        cv_interval(fits)
        assert calls == [1, 1]
        for _ in range(2):
            with pytest.raises(InsufficientDataError):
                rbc_interval(fits)
        with pytest.raises(InsufficientDataError):
            fits.bias_fits()

        good = make_noisy_sample(n=80, seed=33)
        fits = fits_at(good, 0.5)
        first = rbc_interval(fits)
        again = rbc_interval(fits)
        assert (np.array([again.tau_hat, again.se, again.ci_lower, again.ci_upper]).tobytes()
                == np.array([first.tau_hat, first.se, first.ci_lower, first.ci_upper]).tobytes())
