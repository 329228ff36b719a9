from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import (
    affine_transform,
    ak_pick_oracle,
    make_noisy_sample,
    overflowing_sample,
    sigma2_of,
)
import rdsmall.bandwidth
from rdsmall.bandwidth import (
    _AK_GRID_SIZE,
    _IK_KERNEL_CONSTANT,
    CurvatureBound,
    _distinct_count,
    _grid_objective,
    _quartiles,
    _sample_spread,
    _screen_loads,
    ak_bandwidth,
    estimate_m_hat,
    ik_bandwidth,
    silverman_rot,
    silverman_rot_population,
)
from rdsmall.cli import read_xy_csv
from rdsmall.core import RDSample
from rdsmall.engine import Plan, estimate
from rdsmall.errors import (
    DegenerateSampleError,
    EmptyWindowSideError,
    InsufficientDataError,
    NonFiniteError,
    RDError,
    ZeroCurvatureBoundError,
)
from rdsmall.local_poly import Kernel, local_poly_fit, nn_variance
from rdsmall.simulation import generate_dataset


class TestSilverman:
    def test_hand_example(self):
        h = silverman_rot(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        # s* = min(2/1.34, 1.5811) = 1.4925; 0.9 * s* * 5^(-1/5)
        assert h == pytest.approx(0.9735846228506357, rel=1e-12)

    def test_population_uniform_design(self):
        # Beta(1,1): sigma* = min(0.5/1.34, 0.28868) = sd
        h = silverman_rot_population(0.5, np.sqrt(1 / 12), 40)
        assert round(h, 3) == 0.124

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSampleError):
            silverman_rot(np.full(10, 3.0))
        with pytest.raises(DegenerateSampleError):
            silverman_rot(np.array([1.0]))
        with pytest.raises(DegenerateSampleError):
            silverman_rot_population(0.0, 1.0, 50)

    @pytest.mark.parametrize("x", [
        np.random.default_rng(4).lognormal(0.0, 1.5, 57),
        np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 9.0]),
        np.array([-3.7, 11.2]),
    ], ids=["random", "tied", "n2"])
    def test_spread_takes_both_quartiles_from_one_call(self, x):
        iqr = float(np.percentile(x, 75) - np.percentile(x, 25))
        sd = float(np.std(x, ddof=1))
        assert iqr / 1.34 < sd  # the IQR is the binding term
        assert _sample_spread(x) == iqr / 1.34

    def test_quartiles_are_np_percentile_bit_for_bit(self):
        # numpy's linear method is the oracle, signed zeros, subnormals and
        # the NaN of an overflowing interpolation included
        def bits(pair):
            return np.asarray(pair, dtype=float).tobytes()

        rng = np.random.default_rng(23)
        for n in [*range(2, 101), 1933]:
            for _ in range(4):
                arrays = [
                    rng.normal(size=n) * 10.0 ** rng.integers(-300, 301),
                    rng.integers(-3, 4, n).astype(float),
                    np.round(rng.uniform(0.0, 100.0, n), 1),
                    rng.choice([-0.0, 0.0, -1.0, 1.0], n),
                    rng.choice([-0.0, 0.0, -5e-324, 5e-324, 2.2e-308], n),
                ]
                for x in arrays:
                    assert bits(_quartiles(x)) == bits(np.percentile(x, (25, 75))), x
                x = rng.choice([-1e308, 1e308, -1.7e308, 1.7e308, -0.0], n)
                with np.errstate(over="ignore", invalid="ignore"):
                    assert bits(_quartiles(x)) == bits(np.percentile(x, (25, 75))), x
        x = np.array([-1e308, -1e308, 1e308, 1e308, 1e308])  # g = 0 at b - a = inf
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(_quartiles(x)[0])
            assert bits(_quartiles(x)) == bits(np.percentile(x, (25, 75)))

    def test_distinct_count_is_np_unique_size(self):
        rng = np.random.default_rng(29)
        for n in range(1, 80):
            for x in (rng.integers(-3, 4, n).astype(float), rng.normal(size=n),
                      rng.choice([-0.0, 0.0, -5e-324, 5e-324, 1.0], n)):
                assert _distinct_count(x) == np.unique(x).size, x

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_sd_leaves_the_spread_to_the_iqr(self):
        # np.std warned "overflow" from x near 1e154; the sd binds at scale 1
        x = make_noisy_sample(60, seed=3).x
        q25, q75 = np.percentile(x * 1e200, (25, 75))
        assert _sample_spread(x) < (q75 - q25) / 1e200 / 1.34
        assert _sample_spread(x * 1e200) == (q75 - q25) / 1.34
        with pytest.raises(NonFiniteError, match="spread of the running variable"):
            _sample_spread(np.array([-1.5e308, -1e308, 1e308, 1.5e308]))


class TestKernelConstant:
    def test_triangular_value(self):
        assert _IK_KERNEL_CONSTANT == pytest.approx(3.4375, abs=1e-3)

    def test_deterministic(self):
        # exact-rational moments nu_j = 1 / ((j + 1) (j + 2)) of the triangular
        # kernel give v / b^2 = 480, and the constant is its fifth root in float
        nu = [Fraction(1, (j + 1) * (j + 2)) for j in range(4)]
        det = nu[0] * nu[2] - nu[1] ** 2
        bias_const = (nu[2] ** 2 - nu[1] * nu[3]) / det
        # (nu2 - nu1 u)(1 - u) in ascending powers of u, squared and integrated
        equiv = (nu[2], -(nu[1] + nu[2]), nu[1])
        var_const = sum(
            a * b / (i + k + 1) for i, a in enumerate(equiv) for k, b in enumerate(equiv)
        ) / det**2
        assert var_const / bias_const**2 == 480
        assert _IK_KERNEL_CONSTANT == float(var_const / bias_const**2) ** 0.2

    @pytest.mark.parametrize("kernel", [Kernel.TRIANGULAR])
    def test_matches_quadrature_oracle(self, kernel):
        def k(u):
            return float(kernel.weight(np.array(u)))  # the fit's own kernel on [0, 1)

        nu = [integrate.quad(lambda u, j=j: u**j * k(u), 0, 1)[0] for j in range(4)]
        det = nu[0] * nu[2] - nu[1] ** 2
        bias_const = (nu[2] ** 2 - nu[1] * nu[3]) / det
        var_const = (
            integrate.quad(lambda u: ((nu[2] - nu[1] * u) * k(u)) ** 2, 0, 1)[0]
            / det**2
        )
        expected = (var_const / bias_const**2) ** 0.2
        assert _IK_KERNEL_CONSTANT == pytest.approx(expected, rel=1e-9)


class TestIKBandwidth:
    def test_golden_fixture_regression(self):
        # The pilot stages of this run were validated by hand when frozen:
        # f_hat 0.548 (true density 0.625), per-side variances matching the
        # noise-plus-trend decomposition, one-sided curvatures of the right
        # order for the quintic design.
        rng = np.random.default_rng(1729)
        sample = generate_dataset("rv2", "mu2", 200, rng)
        res = ik_bandwidth(sample)
        assert res.h == pytest.approx(0.2021230391112115, rel=1e-7)

    def test_scale_equivariance(self):
        sample = make_noisy_sample(n=150, seed=2)
        # cubic-rich response keeps the pilot curvature floor non-binding on
        # every tested scale, so equivariance is exact
        sample = RDSample(sample.x, sample.y + 20.0 * sample.x**3, 0.0)
        base = ik_bandwidth(sample)
        for a in (0.5, 2.0, 7.3):
            moved = ik_bandwidth(affine_transform(sample, a, 3.0))
            assert moved.h == pytest.approx(a * base.h, rel=1e-9)

    def test_curvature_floor_breaks_scale_equivariance_on_the_fixture(self):
        # the shipped fixture's m3^2 (~3e-11) is below _M3_FLOOR, which is in
        # data units: halving the scores moves h/a by ~1.8x, and only y -> a^3 y,
        # which leaves m3^2 and so the floor's effect unchanged, keeps h/a
        x, y, _ = read_xy_csv(Path(__file__).parent / "data" / "indiana_synth.csv",
                              "score_2017", "score_2018")
        base = ik_bandwidth(RDSample(x, y, 60.0)).h
        assert ik_bandwidth(RDSample(x / 2, y, 30.0)).h * 2 > 1.5 * base
        moved = ik_bandwidth(RDSample(x / 2, y / 8, 30.0)).h * 2
        assert moved == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("k, h_over_a, reason", [
        (0.0, 0.8535403292400539, None),
        (0.5, 0.7347493898460429, None),
        (1.0, 0.27381491633898325, None),
        (1.5, None, "pilot_curvature_above"),
        (2.0, None, "pilot_curvature_below"),
    ])
    def test_curvature_floor_can_fail_ik_as_the_scores_grow(self, k, h_over_a, reason):
        # with x -> a x, a = 10^k, m3^2 (1.7 at k = 0) shrinks by a^6, and
        # from k = 0.5 _M3_FLOOR binds; the floor, in data units, then narrows
        # the curvature windows relative to the scores until a side's
        # quadratic has 2 points, and every ik/* method fails at that side's
        # pilot.  A unit-free floor would change these pins.
        sample = make_noisy_sample(60, seed=3)
        a = 10.0**k
        moved = RDSample(x=sample.x * a, y=sample.y, cutoff=sample.cutoff * a)
        if reason is None:
            assert ik_bandwidth(moved).h / a == pytest.approx(h_over_a, rel=1e-9)
            return
        with pytest.raises(InsufficientDataError) as err:
            ik_bandwidth(moved)
        assert err.value.reason == reason
        plan = Plan(methods=("ik/cv", "ik/rbc", "ik/flci"), alpha=0.05, lr_min=5,
                    window="strict")
        assert {o.reason for o in estimate(moved, plan).values()} == {reason}

    def test_regularization_keeps_bandwidth_finite_on_equal_curvatures(self):
        # mu1-style design: identical second derivatives on both sides
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 300)
        y = -(x**2) + 0.1 * (x >= 0) + 0.1 * rng.standard_normal(300)
        res = ik_bandwidth(RDSample(x=x, y=y, cutoff=0.0))
        assert np.isfinite(res.h) and res.h > 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spread_is_a_nonfinite_error(self):
        # np.std(y) overflowed to inf while the pilot variances stayed
        # finite, so the cubic coefficient snapped to 0 and the curvature
        # windows came from _M3_FLOOR: pilot_curvature_below, and a warning
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 60)
        y = 0.4 + 0.8 * x + 0.9 * x**2 + 0.1 * (x >= 0) + 0.13 * rng.standard_normal(60)
        assert ik_bandwidth(RDSample(x=x, y=y, cutoff=0.0)).h == pytest.approx(0.8535, abs=1e-4)
        with pytest.raises(NonFiniteError, match="standard deviation of y"):
            ik_bandwidth(RDSample(x=x, y=y * 10**153.5, cutoff=0.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_overflowing_pilot_variance_is_a_nonfinite_error(self, side):
        # an inf variance used to size an inf curvature window, which then
        # failed as pilot_curvature_<side>
        with pytest.raises(NonFiniteError, match="pilot variance"):
            ik_bandwidth(overflowing_sample([side]))


def _sorted_sides(sample):
    """Each side's indices in order of |x - c|, as ak sorts them."""
    u = np.abs(sample.x - sample.cutoff)
    return [idx[np.argsort(u[idx])] for idx in (sample.below, sample.above)]


def _ak_grid(result):
    return np.geomspace(result.diagnostics["grid_lo"], result.diagnostics["grid_hi"],
                        _AK_GRID_SIZE)


@st.composite
def _ak_side(draw):
    """2 to 12 distances from the cutoff: spread, duplicated, clustered, or
    two near it and the rest far, so that windows hold two points over a
    range of h."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["spread", "duplicated", "clustered", "two_near"]))
    if kind == "spread":
        return np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    if kind == "duplicated":
        return np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))) / 4.0
    if kind == "clustered":
        offsets = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        spacing = draw(st.sampled_from([1e-9, 1e-7, 1e-6, 1e-3]))
        return draw(st.floats(0.1, 1.0)) + spacing * np.array(offsets, dtype=float)
    near = draw(st.lists(st.floats(1e-4, 1e-2), min_size=2, max_size=2))
    far = draw(st.lists(st.floats(0.5, 1.0), min_size=n - 2, max_size=n - 2))
    return np.array(near + far)


def _ak_or_error(select, sample, bound, sigma2):
    try:
        result = select(sample, bound, sigma2=sigma2)
    except RDError as err:
        return type(err), err.reason
    return result.h, result.diagnostics


_TIE = generate_dataset("rv2", "mu1", 95, np.random.default_rng(36))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(below=_ak_side(), above=_ak_side(), scale=st.sampled_from([-150, -80, -3, 0, 3, 80, 150]),
       m=st.sampled_from([1e-3, 1.0, 2.0, 1e3]), seed=st.integers(0, 2**16),
       unit_variances=st.booleans())
def test_screen_never_changes_the_pick(below, above, scale, m, seed, unit_variances):
    x = np.concatenate([-below, above]) * 10.0**scale
    rng = np.random.default_rng(seed)
    sigma2 = np.ones(x.size) if unit_variances else rng.uniform(0.1, 2.0, x.size)
    _assert_pick_is_the_oracles(RDSample(x, rng.standard_normal(x.size), 0.0), sigma2, m)


# each side's window holds two points on a stretch of candidates, so the
# linear fits interpolate and the objective ties (exactly, up to rounding):
# the screen leaves several candidates, which the exact sweep decides
@pytest.mark.parametrize("a, c", [(1.0, 1.0), (40.0, 64000.0), (1e80, 1.0), (1e-80, 1.0),
                                  (1e150, 1.0), (1e-150, 1.0)])
@pytest.mark.parametrize("m", [None, 2.0])
def test_screen_keeps_the_pick_on_the_tie_sample(a, c, m, monkeypatch):
    sample = RDSample(a * _TIE.x, c * _TIE.y, a * _TIE.cutoff)
    kept = []
    sweep = rdsmall.bandwidth._grid_objective
    monkeypatch.setattr(rdsmall.bandwidth, "_grid_objective",
                        lambda *args: kept.append(np.sum(args[3])) or sweep(*args))
    _assert_pick_is_the_oracles(sample, nn_variance(sample), m)
    if m is None:  # under m_hat, the tie reaches the exact sweep
        assert kept and min(kept) > 1


def _assert_pick_is_the_oracles(sample, sigma2, m):
    bound = estimate_m_hat(sample) if m is None else CurvatureBound(m)
    assert (_ak_or_error(ak_bandwidth, sample, bound, sigma2)
            == _ak_or_error(ak_pick_oracle, sample, bound, sigma2))


class TestAKBandwidth:
    def test_zero_bound_rejected(self):
        sample = make_noisy_sample(seed=3)
        with pytest.raises(ZeroCurvatureBoundError):
            ak_bandwidth(sample, CurvatureBound(0.0), sigma2=sigma2_of(sample))

    def test_grid_matches_fit_based_objective(self):
        # the vectorized candidate sweep must agree with explicit fits, and
        # the prefix-sum screen with the sweep within its bounds
        rng = np.random.default_rng(31)
        for _ in range(6):
            sample = generate_dataset("rv2", "mu3", int(rng.integers(60, 250)), rng)
            sigma2 = nn_variance(sample)
            res = ak_bandwidth(sample, bound=CurvatureBound(5.0), sigma2=sigma2)
            u = sample.x - sample.cutoff
            grid = np.array([res.h])
            sides = _sorted_sides(sample)
            for name, idx in zip(("below", "above"), sides):
                ok, bias_load, variance = _grid_objective(u[idx], sigma2[idx], grid,
                                                          np.ones(1, bool))
                fit = local_poly_fit(sample, name, 1, res.h)
                assert ok[0]
                assert bias_load[0] == pytest.approx(fit.abs_weighted_x2, rel=1e-9)
                assert variance[0] == pytest.approx(
                    float(np.sum(fit.weights**2 * sigma2)), rel=1e-9)
            grid = _ak_grid(res)
            sure, bias, bias_err, var, var_err = _screen_loads(
                [np.abs(u[idx]) for idx in sides], [sigma2[idx] for idx in sides], grid)
            ok, exact_bias, exact_var = (np.array(v) for v in zip(*(
                _grid_objective(u[idx], sigma2[idx], grid, np.ones(grid.size, bool))
                for idx in sides)))
            assert sure.sum() > 100 and ok[sure].all()
            assert (np.abs(bias - exact_bias)[sure] <= bias_err[sure]).all()
            assert (np.abs(var - exact_var)[sure] <= var_err[sure]).all()

    def test_kept_rows_round_as_in_the_full_sweep(self):
        # the exact sweep over a subset of candidates gives each of them the
        # bytes of the sweep over all of them
        rng = np.random.default_rng(17)
        for rv, mu, n in (("rv2", "mu2", 40), ("rv1", "mu3", 300), ("rv3", "mu1", 1254)):
            sample = generate_dataset(rv, mu, n, rng)
            sigma2 = nn_variance(sample)
            grid = _ak_grid(ak_bandwidth(sample, CurvatureBound(2.0), sigma2=sigma2))
            u = sample.x - sample.cutoff
            for idx in _sorted_sides(sample):
                every = _grid_objective(u[idx], sigma2[idx], grid, np.ones(grid.size, bool))
                for _ in range(4):
                    keep = rng.random(grid.size) < rng.choice([0.02, 0.3, 0.9])
                    some = _grid_objective(u[idx], sigma2[idx], grid, keep)
                    assert not some[0][~keep].any()
                    for full, part in zip(every, some):
                        assert full[keep].tobytes() == part[keep].tobytes()

    def test_depends_on_y_only_through_sigma2(self):
        sample = make_noisy_sample(n=200, seed=4)
        sigma2 = nn_variance(sample)
        bound = CurvatureBound(3.0)
        first = ak_bandwidth(sample, bound=bound, sigma2=sigma2)
        rng = np.random.default_rng(55)
        reshuffled = RDSample(sample.x, sample.y + rng.normal(size=200), 0.0)
        second = ak_bandwidth(reshuffled, bound=bound, sigma2=sigma2)
        assert first.h == second.h

    @pytest.mark.filterwarnings("error")
    def test_objective_overflowing_everywhere_is_a_nonfinite_error(self):
        # with m_hat = 6.86e154 the squared bias bound is inf at every
        # feasible candidate; argmin of the all-inf objective returned the
        # first, infeasible one (h = 2.0), where the boundary fits then failed
        sample = overflowing_sample(factor=1e153)
        bound = estimate_m_hat(sample)
        assert bound.value == pytest.approx(6.86e154, rel=1e-3)
        with pytest.raises(NonFiniteError, match="^ak: the objective"):
            ak_bandwidth(sample, bound, sigma2=nn_variance(sample))

    @pytest.mark.filterwarnings("error")
    def test_a_bias_bound_that_squares_to_zero_is_rejected(self):
        # at scores of order 1e15, (M / 2 * load)^2 underflows to 0 at every
        # candidate under M = 5e-324: the objective would be the variance alone
        base = overflowing_sample(factor=1.0)
        sample = RDSample(x=base.x * 1e15, y=base.y, cutoff=0.0)
        with pytest.raises(ZeroCurvatureBoundError, match="squares to 0"):
            ak_bandwidth(sample, CurvatureBound(5e-324), sigma2=nn_variance(sample))

    def test_smaller_than_ik_on_curved_design(self):
        # the bounded-curvature minimizer chooses much narrower windows than
        # the plug-in selector when the data-driven bound is large
        rng = np.random.default_rng(12)
        ik_h, ak_h = [], []
        for _ in range(60):
            sample = generate_dataset("rv2", "mu2", 490, rng)
            ik_h.append(ik_bandwidth(sample).h)
            ak_h.append(ak_bandwidth(sample, estimate_m_hat(sample), sigma2=sigma2_of(sample)).h)
        assert np.median(ik_h) > np.median(ak_h)


class TestEstimateMHat:
    def test_recovers_quadratic_curvature(self):
        x = np.linspace(-1, 1, 41)
        x = x[x != 0]
        sample = RDSample(x=x, y=3 * x**2, cutoff=0.0)
        bound = estimate_m_hat(sample)
        assert bound.value == pytest.approx(6.0, abs=1e-6)

    def test_linear_gives_zero_and_ak_rejects(self):
        x = np.linspace(-1, 1, 30)
        sample = RDSample(x=x, y=2 - 0.5 * x, cutoff=0.0)
        bound = estimate_m_hat(sample)
        assert bound.value == pytest.approx(0.0, abs=1e-8)
        with pytest.raises(ZeroCurvatureBoundError):
            ak_bandwidth(sample, bound, sigma2=sigma2_of(sample))

    def test_insufficient_side(self):
        sample = RDSample(x=[-1, -0.5, -0.2, -0.6, 0.3, 0.4, 0.5, 0.6, 0.7],
                          y=np.zeros(9), cutoff=0.0)
        with pytest.raises(InsufficientDataError):
            estimate_m_hat(sample)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_overflowing_response_is_a_nonfinite_error(self, side):
        # np.std(y) overflowed to inf, which made the snap-to-zero threshold
        # inf: that side's curvature read 0, as if y were linear there
        with pytest.raises(NonFiniteError, match=f"on side {side} is not finite"):
            estimate_m_hat(overflowing_sample([side]))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_score_range_is_a_nonfinite_error(self):
        # scale**2 overflowed to inf, which divided the curvature to 0: m_hat
        # read 0, as if y were linear on each side
        sample = overflowing_sample(factor=1.0)
        with pytest.raises(NonFiniteError, match="squared score range on side below"):
            estimate_m_hat(RDSample(x=sample.x * 10**153.5, y=sample.y, cutoff=0.0))

    def test_median_matches_benchmark_order_of_magnitude(self):
        # quintic design at n=194: benchmark median data-driven bound is 210
        rng = np.random.default_rng(5)
        values = [
            estimate_m_hat(generate_dataset("rv2", "mu2", 194, rng)).value
            for _ in range(200)
        ]
        assert 150 < np.median(values) < 280


def _quadratic_gap_sample(n, rng):
    x = rng.uniform(-1, 1, n)
    y = np.where(x < 0, 1.5 * x**2, -1.0 * x**2) + 0.1 * (x >= 0)
    return RDSample(x=x, y=y + 0.13 * rng.standard_normal(n), cutoff=0.0)


@pytest.mark.parametrize("alg", ["ik", "ak"])
def test_bandwidth_shrinks_at_root_n_fifth_rate(alg):
    # constant per-side curvature with a genuine gap keeps the pilot
    # quantities stable in n, isolating the selector's own rate
    medians = []
    for n in (200, 2000, 20000):
        rng = np.random.default_rng(7)
        hs = []
        for _ in range(20):
            sample = _quadratic_gap_sample(n, rng)
            if alg == "ik":
                res = ik_bandwidth(sample)
            else:
                res = ak_bandwidth(sample, CurvatureBound(3.0), sigma2=sigma2_of(sample))
            hs.append(res.h)
        medians.append(np.median(hs))
    slope = np.polyfit(np.log([200, 2000, 20000]), np.log(medians), 1)[0]
    assert slope == pytest.approx(-0.2, abs=0.03)


# One sample per stop of the two selectors: (selector, x, y, error, reason).
# Each stop raises an error whose message names the selector and whose
# reason is the tag a cell's failure counts show.
_E153 = overflowing_sample(factor=1e153)
_TEN_ROW = overflowing_sample(factor=1.0)
SELECTOR_STOPS = [
    ("ik", [1, 2, 3], [1, 2, 3], EmptyWindowSideError, "empty_side"),
    ("ak", [1, 2, 3], [1, 2, 3], EmptyWindowSideError, "empty_side"),
    ("ik", [-1, 1, 1, 1, 1], [0, 1, 2, 3, 4], DegenerateSampleError,
     "degenerate_running_variable"),
    # no point below the cutoff inside the pilot window
    ("ik", [-10, -9, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [1, 2, 3, 4, 5, 6, 7, 8],
     InsufficientDataError, "pilot_variance"),
    ("ik", np.linspace(-1, 1, 40), np.ones(40), DegenerateSampleError, "pilot_variance_zero"),
    # four points cannot hold a cubic with a jump
    ("ik", [-2, -1.9, 1.9, 2], [0.1, 0.2, 0.4, 0.3], InsufficientDataError, "pilot_cubic"),
    # two points a side cannot hold a quadratic
    ("ik", [-3, -2, 1, 2, 3], [0, 1, 3, 4, 5], InsufficientDataError, "pilot_curvature_below"),
    ("ik", [-3, -2, -1, 2, 3], [5, 4, 3, 1, 0], InsufficientDataError, "pilot_curvature_above"),
    ("ak", [-1, 1, 2, 3], [0, 1, 2, 3], InsufficientDataError, "insufficient_side"),
    # the two scores below the cutoff are tied, so no window fits a line there
    ("ak", [-1, -1, 1, 2, 3], [0, 1, 2, 3, 4], InsufficientDataError, "no_feasible_h"),
    # responses of order 1e153 overflow the regularization term, so h is 0
    ("ik", _E153.x, _E153.y, NonFiniteError, "nonfinite_result"),
    # scores of order 1e307 leave f_hat * m3^2 at 0: the curvature windows
    # divided by zero
    ("ik", _TEN_ROW.x * 1e307, _TEN_ROW.y, NonFiniteError, "pilot_curvature_below"),
    # the scores' range overflows
    ("ak", _TEN_ROW.x * 10**307.5, _TEN_ROW.y, NonFiniteError, "NonFiniteError"),
]


@pytest.mark.parametrize("alg, x, y, error, reason", SELECTOR_STOPS,
                         ids=[f"{alg}-{reason}" for alg, *_, reason in SELECTOR_STOPS])
def test_each_selector_stop_raises_its_tag(alg, x, y, error, reason):
    sample = RDSample(x=x, y=y, cutoff=0.0)
    with pytest.raises(RDError) as info:
        if alg == "ik":
            ik_bandwidth(sample)
        else:
            ak_bandwidth(sample, CurvatureBound(1.0), sigma2=np.ones(sample.n))
    assert type(info.value) is error
    assert info.value.reason == reason
    assert str(info.value).startswith(alg)


def test_silverman_exact_rate():
    # the rule's n-dependence is the exact factor n^(-1/5)
    for n1, n2 in [(50, 400), (200, 20000)]:
        h1 = silverman_rot_population(0.7, 0.4, n1)
        h2 = silverman_rot_population(0.7, 0.4, n2)
        assert h2 / h1 == pytest.approx((n2 / n1) ** (-0.2), rel=1e-12)
