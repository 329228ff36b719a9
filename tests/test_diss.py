import numpy as np
import pytest
from scipy import integrate

from conftest import affine_transform
from rdsmall.bandwidth import silverman_rot
from rdsmall.core import RDSample
from rdsmall.diss import (
    REFERENCE_STUDY_SIZES,
    BetaSpec,
    beta_cdf,
    beta_quantile,
    beta_sigma_star,
    diss_m,
    n_for_target_diss,
    population_diss,
)
from rdsmall.errors import DegenerateSampleError, NonFiniteError

RV1_Z = BetaSpec(1, 1)
RV2_Z = BetaSpec(2, 4)
RV3_Z = BetaSpec(14, 7)


class TestDissM:
    def test_hand_example(self):
        sample = RDSample(x=[-2.0, -1.0, 0.0, 1.0, 2.0], y=np.zeros(5), cutoff=0.0)
        m, h = diss_m(sample)
        assert h == pytest.approx(0.9735846228506357, rel=1e-12)
        assert m == 1  # only x = 0 lies within the window

    def test_count_matches_closed_window_definition(self):
        # the count is exactly #{|x - c| <= h}, boundary inclusive
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(0, 1, 40)
            c = float(rng.uniform(-0.5, 0.5))
            m, h = diss_m(RDSample(x=x, y=np.zeros(40), cutoff=c))
            assert m == int(np.count_nonzero(np.abs(x - c) <= h))

    def test_m_never_exceeds_n(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=50)
            m, _ = diss_m(RDSample(x=x, y=np.zeros(50), cutoff=0.2))
            assert 0 <= m <= 50

    def test_degenerate_sample_propagates(self):
        with pytest.raises(DegenerateSampleError):
            diss_m(RDSample(x=np.ones(10), y=np.zeros(10), cutoff=1.0))

    def test_scale_invariant_under_positive_affine(self):
        rng = np.random.default_rng(77)
        sample = RDSample(x=rng.normal(60, 10, 200), y=np.zeros(200), cutoff=58.0)
        m0, h0 = diss_m(sample)
        for _ in range(50):
            a = rng.uniform(0.05, 20)
            b = rng.uniform(-100, 100)
            m1, h1 = diss_m(affine_transform(sample, a, b))
            assert m1 == m0
            assert h1 == pytest.approx(a * h0, rel=1e-9)


class TestBetaCdf:
    def test_uniform_symmetry_on_transformed_scale(self):
        spec = BetaSpec(1, 1, scale=2.0, shift=-1.0)
        assert beta_cdf(spec, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_support_boundary(self):
        assert beta_cdf(RV2_Z, 1.0) == 1.0
        assert beta_cdf(RV2_Z, -0.3) == 0.0
        assert beta_cdf(RV2_Z, 1.7) == 1.0

    def test_matches_quadrature_oracle(self):
        density = lambda z: 20.0 * z * (1 - z) ** 3
        expected, err = integrate.quad(density, 0.0, 0.5, epsabs=1e-12)
        assert err < 1e-12
        assert beta_cdf(RV2_Z, 0.5) == pytest.approx(expected, abs=1e-10)

    def test_monotone_and_quantile_roundtrip(self):
        grid = np.linspace(-0.1, 1.1, 200)
        values = np.array([beta_cdf(RV3_Z, g) for g in grid])
        assert np.all(np.diff(values) >= 0)
        q = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(
            [beta_cdf(RV3_Z, beta_quantile(RV3_Z, qi)) for qi in q], q, atol=1e-12
        )

    def test_rejects_bad_shape(self):
        with pytest.raises(NonFiniteError):
            BetaSpec(0.0, 2.0)


class TestPopulationDiss:
    def test_uniform_design_rounds_to_ten(self):
        sigma = beta_sigma_star(RV1_Z)
        assert sigma == pytest.approx(np.sqrt(1 / 12), rel=1e-12)
        m_bar = population_diss(RV1_Z, 0.5, 40, sigma)
        assert m_bar == pytest.approx(9.94, abs=0.01)
        assert round(m_bar) == 10

    def test_skewed_design_rounds_to_ten(self):
        sigma = beta_sigma_star(RV3_Z)
        m_bar = population_diss(RV3_Z, 0.5, 140, sigma)
        assert round(m_bar) == 10
        h = 0.9 * sigma * 140 ** (-0.2)
        assert round(h, 3) == 0.034

    def test_rate_limit(self):
        sigma = beta_sigma_star(RV2_Z)
        ratios = [
            population_diss(RV2_Z, 0.5, n, sigma) / n**0.8
            for n in (10_000, 100_000, 1_000_000)
        ]
        assert ratios[2] == pytest.approx(ratios[0], rel=0.01)
        assert ratios[2] == pytest.approx(ratios[1], rel=0.003)

    def test_scale_invariance_of_mbar(self):
        # Z-scale and X = 2Z - 1 scale agree when cutoff and spread move together
        sigma_z = beta_sigma_star(RV2_Z)
        spec_x = BetaSpec(2, 4, scale=2.0, shift=-1.0)
        for n in (56, 354):
            z_side = population_diss(RV2_Z, 0.5, n, sigma_z)
            x_side = population_diss(spec_x, 0.0, n, 2.0 * sigma_z)
            assert x_side == pytest.approx(z_side, rel=1e-12)


class TestNForTargetDiss:
    @pytest.mark.parametrize(
        "spec,target,expected",
        [(RV1_Z, 27, 140), (RV2_Z, 44, 354), (RV3_Z, 57, 1254)],
    )
    def test_reference_design_sizes(self, spec, target, expected):
        n = n_for_target_diss(spec, 0.5, beta_sigma_star(spec), target)
        assert n == expected

    def test_generic_search_matches_linear_scan(self):
        # a target off the reference grid exercises the monotone search
        sigma = beta_sigma_star(RV1_Z)
        target = 15
        got = n_for_target_diss(RV1_Z, 0.5, sigma, target)
        scan = 1
        while population_diss(RV1_Z, 0.5, scan, sigma) < target - 0.5:
            scan += 1
        assert got == scan

    def test_reference_table_is_internally_consistent(self):
        # every reference size is inside its target's rounding class
        for (a, b), row in REFERENCE_STUDY_SIZES.items():
            spec = BetaSpec(a, b)
            sigma = beta_sigma_star(spec)
            for target, n in row.items():
                assert round(population_diss(spec, 0.5, n, sigma)) == target

    def test_non_design_sigma_bypasses_reference_table(self):
        sigma = beta_sigma_star(RV1_Z) * 1.3
        n = n_for_target_diss(RV1_Z, 0.5, sigma, 10)
        scan = 1
        while population_diss(RV1_Z, 0.5, scan, sigma) < 9.5:
            scan += 1
        assert n == scan


def test_sample_h_agrees_with_population_convention():
    # the sample rule applied to a big uniform draw approaches the population rule
    rng = np.random.default_rng(123)
    x = rng.uniform(0, 1, 400_000)
    h_sample = silverman_rot(x)
    h_pop = 0.9 * beta_sigma_star(RV1_Z) * 400_000 ** (-0.2)
    assert h_sample == pytest.approx(h_pop, rel=0.01)
