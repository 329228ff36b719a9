import math
import tracemalloc
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permutation_test
from rdsmall import local_randomization
from rdsmall.core import RDSample
from rdsmall.errors import EmptyWindowSideError, InsufficientDataError, NonFiniteError
from rdsmall.local_randomization import (
    _TIE_RTOL,
    DEFAULT_GRID_POINTS,
    DEFAULT_GRID_SPAN_SDS,
    DEFAULT_MAX_EXACT,
    LRWindow,
    _assignment_stats,
    _exact_layout,
    _k_subsets,
    _p_values,
    lr_interval,
    select_window,
)


def _sample(x, y=None, c=0.0):
    x = np.asarray(x, float)
    y = np.zeros_like(x) if y is None else np.asarray(y, float)
    return RDSample(x=x, y=y, cutoff=c)


# Reference: every assignment evaluated at every hypothesized effect, one
# grid point at a time.  The module's sorted sweep must reproduce it exactly.


def _reference_stats(y_window, k, max_exact, n_mc, rng):
    """Per-row (u, v) with row 0 the observed assignment."""
    n = y_window.size
    n_control = n - k
    if math.comb(n, k) <= max_exact:
        idx = np.array(list(combinations(range(n), k)), dtype=np.intp)
        idx = np.concatenate([idx[-1:], idx[:-1]], axis=0)
    else:
        draws = rng.random((n_mc, n)).argsort(axis=1)[:, :k]
        observed = np.arange(n_control, n, dtype=np.intp)[None, :]
        idx = np.concatenate([observed, np.sort(draws, axis=1)], axis=0)
    s_total = y_window.sum()
    s_a = y_window[idx].sum(axis=1)
    u = s_a / k - (s_total - s_a) / n_control
    k_a = (idx >= n_control).sum(axis=1)
    v = k_a / k - (k - k_a) / n_control
    return u, v


def test_k_subsets_are_the_combinations_in_order():
    for n in range(21):
        for k in range(n + 1):
            if math.comb(n, k) > DEFAULT_MAX_EXACT:
                continue
            want = np.array(list(combinations(range(n), k)), dtype=np.intp)
            got = _k_subsets(n, k)
            assert got.dtype == want.dtype and got.shape == want.shape, (n, k)
            assert np.array_equal(got, want), (n, k)


def test_exact_layout_is_the_combinations_stably_grouped_by_treated_count():
    cases = [(n, k) for n in range(2, 25) for k in range(1, n)
             if math.comb(n, k) <= DEFAULT_MAX_EXACT] + [(300, 1), (300, 299)]
    for n, k in cases:
        rows = np.array(list(combinations(range(n), k)))
        k_a = (rows >= n - k).sum(axis=1)
        order = np.argsort(-k_a, kind="stable")
        starts = np.flatnonzero(np.diff(k_a[order], prepend=k + 1))
        idx, bounds, k_groups = _exact_layout(n, k)
        # one byte an index up to 256 window points
        assert idx.dtype == (np.uint8 if n <= 256 else np.uint16), (n, k)
        assert np.array_equal(idx, rows[order]), (n, k)
        assert np.array_equal(bounds, np.append(starts, rows.shape[0])), (n, k)
        assert np.array_equal(k_groups, k_a[order][starts]), (n, k)
        assert not any(a.flags.writeable for a in (idx, bounds, k_groups)), (n, k)


@pytest.mark.parametrize("n, k", [(20, 15), (19, 14), (16, 8), (10, 5)])
def test_exact_sums_are_the_whole_table_gathers(n, k):
    # the sums are gathered a block of rows at a time, and each row is
    # reduced as the whole table's gather reduces it
    rng = np.random.default_rng(n * k)
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    u, _, _, mode = _assignment_stats(y, k, DEFAULT_MAX_EXACT, 0, None)
    s_a = y[_exact_layout(n, k)[0]].sum(axis=1)
    assert mode == "exact"
    assert u.tobytes() == (s_a / k - (y.sum() - s_a) / (n - k)).tobytes()


def test_a_warm_exact_call_gathers_in_bounded_memory():
    # the whole (15504, 15) table's gather, a float array and an intp copy
    # of the index at once, peaked at 1.89 MB
    y = np.random.default_rng(0).standard_normal(20)
    _assignment_stats(y, 15, DEFAULT_MAX_EXACT, 0, None)  # builds the cached table
    tracemalloc.start()
    try:
        _assignment_stats(y, 15, DEFAULT_MAX_EXACT, 0, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75e6


class _CoarseKeys(np.random.Generator):
    """A Generator whose keys are multiples of 1/8, so that draws tie."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.floor(super().random(size) * 8) / 8


def _assert_rows_are_the_argsort_reference(y_window, k, n_mc, make_rng):
    u, bounds, v, mode = _assignment_stats(y_window, k, 0, n_mc, make_rng())
    u_ref, v_ref = _reference_stats(y_window, k, 0, n_mc, make_rng())
    order = np.argsort(-v_ref, kind="stable")  # v grows with the treated count
    u_ref, v_ref = u_ref[order], v_ref[order]
    starts = np.flatnonzero(np.diff(v_ref, prepend=np.inf))
    assert mode == "monte_carlo" and u.size == n_mc + 1
    assert u.tobytes() == u_ref.tobytes()
    assert np.array_equal(bounds, np.append(starts, u.size))
    assert v.tobytes() == v_ref[starts].tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 45), n_mc=st.integers(1, 300), data=st.data(),
       seed=st.integers(0, 2**32 - 1), coarse=st.booleans())
def test_monte_carlo_rows_are_the_argsort_reference(n, n_mc, data, seed, coarse):
    # each draw is the k smallest of n uniform keys: the rows, their u and
    # the group bounds are the argsort reference's, bit for bit, also where
    # coarse keys tie at the k-th smallest
    k = data.draw(st.integers(1, n - 1), label="k")
    y_window = np.random.default_rng([seed, 1]).standard_normal(n)
    generator = _CoarseKeys if coarse else np.random.Generator
    _assert_rows_are_the_argsort_reference(
        y_window, k, n_mc, lambda: generator(np.random.PCG64(seed)))


@pytest.mark.parametrize("n, k", [(2, 1), (12, 5), (41, 36)])
def test_monte_carlo_rows_that_tie_at_the_kth_key_are_the_argsort_reference(n, k):
    # a draw whose (k+1)-th smallest key equals its k-th takes argsort's
    # first k; here some draws tie and some do not, so both paths run
    n_mc = 400
    keys = _CoarseKeys(np.random.PCG64(n)).random((n_mc, n))
    edge = np.sort(keys, axis=1)[:, k - 1:k + 1]
    tied = edge[:, 0] == edge[:, 1]
    assert tied.any() and not tied.all()
    y_window = np.random.default_rng([n, 1]).standard_normal(n)
    _assert_rows_are_the_argsort_reference(
        y_window, k, n_mc, lambda: _CoarseKeys(np.random.PCG64(n)))


@pytest.mark.parametrize("n, k, n_mc", [(41, 36, 999), (12, 5, 1), (2, 1, 300)])
def test_monte_carlo_draw_takes_n_mc_times_n_doubles(n, k, n_mc):
    # simulate shares one stream per replication between the data and lr:
    # the draw must advance a Generator it is passed by exactly n_mc * n
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    _assignment_stats(np.arange(n, dtype=float), k, 0, n_mc, rng)
    twin.random(n_mc * n)
    assert rng.random() == twin.random()


def _reference_p_value(u, v, tau0):
    stats = np.abs(u - tau0 * v)
    observed = stats[0]
    cut = observed - _TIE_RTOL * max(1.0, observed)
    return float(np.count_nonzero(stats >= cut)) / stats.size


def _reference_grid(y_control, y_treated):
    point = float(y_treated.mean() - y_control.mean())
    dof = y_control.size + y_treated.size - 2
    pooled_sd = math.sqrt((
        ((y_control - y_control.mean()) ** 2).sum()
        + ((y_treated - y_treated.mean()) ** 2).sum()
    ) / dof)
    scale = max(np.abs(y_control).max(), np.abs(y_treated).max())
    if pooled_sd <= _TIE_RTOL * scale:
        return np.array([point])
    span = DEFAULT_GRID_SPAN_SDS * pooled_sd
    return np.linspace(point - span, point + span, DEFAULT_GRID_POINTS)


def _reference_extreme(u_a, v_a, u_0, tau0):
    """The reference's comparison for one assignment row."""
    observed = abs(u_0 - tau0)
    return abs(u_a - tau0 * v_a) >= observed - _TIE_RTOL * max(1.0, observed)


def _tie_edges(u_a, v_a, u_0):
    """Adjacent floats across which row A stops counting as extreme.

    |u_A - tau v_A| = |u_0 - tau| at tau = (u_A -+ u_0) / (v_A -+ 1); the
    tie slack keeps A extreme a little way past each such root.  Bisection
    finds where that ends: there fl(u_A - tau v_A) and the cut agree to the
    last bits, so a boundary taken from a search on u alone can be off.
    """
    edges = []
    for num, den in ((u_a - u_0, v_a - 1.0), (u_a + u_0, v_a + 1.0)):
        if den == 0.0:
            continue
        root = num / den
        if not _reference_extreme(u_a, v_a, u_0, root):
            continue
        for side in (-1.0, 1.0):
            a, b = root, root + side * 1e-6 * (1.0 + abs(root))
            if _reference_extreme(u_a, v_a, u_0, b):
                continue
            while True:
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break
                if _reference_extreme(u_a, v_a, u_0, mid):
                    a = mid
                else:
                    b = mid
            edges += [a, b]
    return edges


@st.composite
def _windows(draw):
    """Window responses: 1-10 per side, real, tied-integer or constant y,
    at scales 1e-6 to 1e6."""
    n_c = draw(st.integers(1, 10))
    n_t = draw(st.integers(1, 10))
    n = n_c + n_t
    kind = draw(st.sampled_from(["real", "integer", "constant"]))
    if kind == "real":
        y = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    elif kind == "integer":
        y = draw(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n))
    else:
        y = [draw(st.floats(-1, 1))] * n
    y = np.array(y) * 10.0 ** draw(st.integers(-6, 6))
    return y[:n_c], y[n_c:]


class TestSelectWindow:
    def test_order_statistic_window(self):
        window = select_window(_sample([-3, -2, -1, 1, 2, 3]), min_per_side=2)
        assert window.half_width == 2.0
        assert window.indices_below.tolist() == [1, 2]
        assert window.indices_above.tolist() == [3, 4]

    def test_asymmetric_sides(self):
        window = select_window(_sample([-0.1, -0.2, -0.9, 0.05, 0.5, 0.6]),
                               min_per_side=2)
        # below's 2nd order stat is 0.2, above's is 0.5; the max binds
        assert window.half_width == 0.5
        assert window.indices_below.size == 2 and window.indices_above.size == 2

    def test_insufficient_side(self):
        with pytest.raises(InsufficientDataError):
            select_window(_sample([-1, -2, -3, -4, 1, 2, 3, 4]), min_per_side=5)

    def test_capped_policy_takes_a_short_side_whole(self):
        sample = _sample([-0.1, -0.2, 0.05, 0.5, 0.6, 0.7])
        with pytest.raises(InsufficientDataError):
            select_window(sample, min_per_side=3)
        # below holds 2 < 3 points, so its minimum is capped at 2 and the
        # above side's third order statistic sets the half-width
        window = select_window(sample, min_per_side=3, policy="capped")
        assert window.half_width == 0.6
        assert window.indices_below.size == 2 and window.indices_above.size == 3

    @pytest.mark.parametrize("policy", ["strict", "capped"])
    def test_empty_side(self, policy):
        with pytest.raises(EmptyWindowSideError):
            select_window(_sample([0.1, 0.2, 0.3]), 1, policy)


class TestPermutationTest:
    def test_enumerated_hand_example(self):
        result = permutation_test([1.0, 2.0], [3.0, 4.0], tau0=0.0)
        assert result.mode == "exact"
        assert result.n_assignments_evaluated == 6
        assert result.observed_stat == pytest.approx(2.0)
        assert result.p_value == pytest.approx(2 / 6)

    def test_all_equal_responses(self):
        result = permutation_test([1.0, 1.0, 1.0], [1.0, 1.0], tau0=0.0)
        assert result.p_value == 1.0

    def test_observed_difference_gives_p_one(self):
        yb, ya = [0.3, 0.9, 0.4], [1.1, 1.6]
        tau0 = np.mean(ya) - np.mean(yb)
        result = permutation_test(yb, ya, tau0=tau0)
        assert result.mode == "exact"
        assert result.observed_stat == pytest.approx(0.0, abs=1e-14)
        assert result.p_value == 1.0

    def test_exact_p_has_atom_floor(self):
        rng = np.random.default_rng(2)
        result = permutation_test(rng.normal(size=5), rng.normal(size=5) + 3)
        assert result.p_value >= 1 / result.n_assignments_evaluated

    def test_monte_carlo_matches_exact(self):
        rng = np.random.default_rng(3)
        yb, ya = rng.normal(size=6), rng.normal(size=6) + 0.5
        exact = permutation_test(yb, ya)
        mc = permutation_test(yb, ya, max_exact=1, n_mc=999,
                              rng=np.random.default_rng(10))
        assert mc.mode == "monte_carlo"
        assert mc.n_assignments_evaluated == 1000
        p = exact.p_value
        assert abs(mc.p_value - p) <= 3 * np.sqrt(p * (1 - p) / 999)

    def test_monte_carlo_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        yb, ya = rng.normal(size=8), rng.normal(size=8)
        p1 = permutation_test(yb, ya, max_exact=1, rng=123).p_value
        p2 = permutation_test(yb, ya, max_exact=1, rng=123).p_value
        assert p1 == p2


class TestLRInterval:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_difference_in_means_is_a_nonfinite_error(self):
        # each side's mean is finite and the pooled variance is 0, but their
        # difference overflows; it used to warn and then reach the
        # constant-response branch with u = inf
        sample = _sample([-1.0, 1.0, 2.0], [-1.7e308, 1e307, 1e307])
        window = select_window(sample, min_per_side=2, policy="capped")
        with pytest.raises(NonFiniteError, match="difference in means"):
            lr_interval(sample, window, alpha=0.05)

    def test_zero_noise_constant_effect(self):
        # y constant within each side: every effect but the point has
        # p = P(|v_A| >= 1) = 2/20 = 0.1 on a 3+3 window, so at alpha = 0.05
        # the test rejects nothing and the acceptance set is the whole line
        sample = _sample([-0.3, -0.2, -0.1, 0.1, 0.2, 0.3],
                         [1, 1, 1, 1.5, 1.5, 1.5])
        window = select_window(sample, min_per_side=3)
        with pytest.raises(InsufficientDataError, match="whole real line"):
            lr_interval(sample, window, alpha=0.05)
        assert permutation_test([1, 1, 1], [1.5, 1.5, 1.5], tau0=-100).p_value == 0.1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factor", [1e-163, 1e-295])
    def test_pooled_variance_that_underflows_is_a_nonfinite_error(self, factor):
        # every squared residual underflows to 0: the constant-response
        # branch gave the point interval (8e-164, 8e-164) at 1e-163
        rng = np.random.default_rng(11)
        x = np.concatenate([-rng.uniform(0.01, 1, 6), rng.uniform(0.01, 1, 6)])
        sample = _sample(x, factor * (0.5 * (x >= 0) + rng.normal(size=12)))
        window = select_window(sample, min_per_side=5)
        with pytest.raises(NonFiniteError, match="underflows to 0"):
            lr_interval(sample, window, alpha=0.05)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 3e-170])
    def test_responses_constant_on_each_side_keep_the_point_interval(self, scale):
        # at 3e-170 the below side's mean is off by roundoff, so its
        # residuals are not 0 but their squares underflow: still constant
        x = [-0.5, -0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.5]
        sample = _sample(x, np.array([1] * 5 + [1.5] * 5) * scale)
        est = lr_interval(sample, select_window(sample, min_per_side=5), alpha=0.05)
        assert est.ci_lower == est.tau_hat == est.ci_upper
        assert est.tau_hat == pytest.approx(0.5 * scale, rel=1e-12)

    def test_zero_noise_constant_effect_rejected_off_the_point(self):
        # 5+5: p = 2/252 <= 0.05 off the point, so the point interval is honest
        x = [-0.5, -0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.5]
        sample = _sample(x, [1] * 5 + [1.5] * 5)
        est = lr_interval(sample, select_window(sample, min_per_side=5), alpha=0.05)
        assert est.tau_hat == pytest.approx(0.5, abs=1e-12)
        assert est.ci_lower == pytest.approx(0.5, abs=1e-12)
        assert est.ci_upper == pytest.approx(0.5, abs=1e-12)

    def test_interval_contains_point_and_flags_resolution(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([-rng.uniform(0.01, 1, 12), rng.uniform(0.01, 1, 12)])
        y = 0.2 * (x >= 0) + rng.normal(0, 0.2, 24)
        sample = _sample(x, y)
        window = select_window(sample, min_per_side=5)
        est = lr_interval(sample, window, alpha=0.05, rng=1)
        assert est.ci_lower <= est.tau_hat <= est.ci_upper
        assert est.se is None
        assert est.diagnostics["grid_step"] > 0
        assert est.diagnostics["grid_clipped"] is False

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([-rng.uniform(0.01, 1, 9), rng.uniform(0.01, 1, 9)])
        y = rng.normal(size=18)
        sample = _sample(x, y)
        shifted = _sample(x, y + 4.2)
        window = select_window(sample, min_per_side=4)
        a = lr_interval(sample, window, alpha=0.05, rng=2)
        b = lr_interval(shifted, select_window(shifted, 4), alpha=0.05, rng=2)
        assert b.tau_hat == pytest.approx(a.tau_hat, abs=1e-12)
        assert b.ci_lower == pytest.approx(a.ci_lower, abs=1e-10)
        assert b.ci_upper == pytest.approx(a.ci_upper, abs=1e-10)

    def test_p_is_step_function_of_tau0(self):
        rng = np.random.default_rng(8)
        yb, ya = rng.normal(size=5), rng.normal(size=5)
        taus = np.linspace(-1, 1, 101)
        ps = [permutation_test(yb, ya, tau0=t).p_value for t in taus]
        # piecewise constant: far fewer distinct values than grid points
        assert len(set(ps)) < 40

    def test_disconnected_region_reports_hull(self):
        # pathological y makes the acceptance region ragged; the interval is
        # still the hull
        yb = np.array([0.0, 0.0, 10.0])
        ya = np.array([0.1, 9.9, 10.2])
        x = np.array([-0.1, -0.2, -0.3, 0.1, 0.2, 0.3])
        sample = _sample(x, np.concatenate([yb, ya]))
        window = select_window(sample, min_per_side=3)
        est = lr_interval(sample, window, alpha=0.3, rng=3)
        assert est.ci_lower <= est.tau_hat <= est.ci_upper

    def test_one_per_side_window_is_insufficient(self):
        # pooled dof 0: no spread to scale the grid, so no interval at all
        # rather than a zero-width one
        sample = _sample([-0.5, -0.1, 0.1, 0.5], [0.0, 1.0, 2.0, 3.0])
        window = select_window(sample, min_per_side=1)
        assert window.indices_below.size == window.indices_above.size == 1
        with pytest.raises(InsufficientDataError, match="degrees of freedom"):
            lr_interval(sample, window)

    def test_grid_clipped_when_no_assignment_set_can_reject(self):
        # 2+4 window: C(6, 2) = 15 assignments, so p >= 1/15 > 0.05 at every
        # tau0 and the accepted set runs to both ends of the grid
        x = [-0.2, -0.1, 0.1, 0.2, 0.3, 0.4]
        sample = _sample(x, [0.1, 0.4, 1.2, 0.9, 1.5, 1.1])
        window = LRWindow(1.0, np.array([0, 1]), np.array([2, 3, 4, 5]))
        est = lr_interval(sample, window, alpha=0.05)
        assert est.diagnostics["n_assignments"] == 15
        assert est.diagnostics["grid_clipped"] is True
        assert est.ci_upper - est.ci_lower == pytest.approx(
            (DEFAULT_GRID_POINTS - 1) * est.diagnostics["grid_step"])

    @pytest.mark.parametrize("grid_points", [3, 5])
    def test_a_coarse_grid_accepts_the_estimate_alone(self, grid_points, monkeypatch):
        # on a 30+30 window every point of a 3- or 5-point grid but its middle
        # one lies at least 3 SD (about 11 SE) from the estimate, and the
        # middle one must be the estimate itself, not linspace's roundoff of it
        monkeypatch.setattr(local_randomization, "DEFAULT_GRID_POINTS", grid_points)
        rng = np.random.default_rng(9)
        x = np.concatenate([-rng.uniform(0.01, 1, 30), rng.uniform(0.01, 1, 30)])
        sample = _sample(x, 0.2 * (x >= 0) + rng.normal(0, 0.2, 60))
        window = select_window(sample, min_per_side=30)
        est = lr_interval(sample, window, rng=1)
        assert est.ci_lower == est.tau_hat == est.ci_upper
        assert not est.diagnostics["grid_clipped"]


class TestSweepMatchesReference:
    """The sorted per-group sweep gives the direct per-point counts exactly."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        window=_windows(),
        alpha=st.sampled_from([0.05, 0.1, 0.3]),
        max_exact=st.sampled_from([1, 20_000]),
        n_mc=st.sampled_from([1, 19, 199]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_p_values_and_endpoints_equal_reference(
        self, window, alpha, max_exact, n_mc, seed
    ):
        y_control, y_treated = window
        n_c, n_t = y_control.size, y_treated.size
        y_window = np.concatenate([y_control, y_treated])
        u_ref, v_ref = _reference_stats(
            y_window, n_t, max_exact, n_mc, np.random.default_rng(seed))

        # Hypothesized effects on the breakpoints u_A and -u_A, on the edges
        # of the tie slack, and on the inversion grid.
        rows = np.unique(np.linspace(0, u_ref.size - 1, 15).astype(int))
        edges = [t for i in rows for t in _tie_edges(u_ref[i], v_ref[i], u_ref[0])]
        taus = np.concatenate([u_ref[rows], -u_ref[rows], edges])
        if n_c + n_t > 2:
            grid = _reference_grid(y_control, y_treated)
            taus = np.concatenate([taus, grid])

        u, bounds, v, _ = _assignment_stats(
            y_window, n_t, max_exact, n_mc, np.random.default_rng(seed))
        reference = np.array([_reference_p_value(u_ref, v_ref, t) for t in taus])
        assert np.array_equal(_p_values(u, bounds, v, taus), reference)
        result = permutation_test(y_control, y_treated, taus[0],
                                  max_exact=max_exact, n_mc=n_mc, rng=seed)
        assert result.p_value == reference[0]
        assert result.n_assignments_evaluated == u_ref.size

        sample = _sample(np.concatenate([-np.ones(n_c), np.ones(n_t)]), y_window)
        lr_window = LRWindow(1.0, np.arange(n_c), np.arange(n_c, n_c + n_t))

        def lr():
            # lr_interval reads its assignment budget from the module
            with patch.object(local_randomization, "DEFAULT_MAX_EXACT", max_exact), \
                    patch.object(local_randomization, "DEFAULT_N_MC", n_mc):
                return lr_interval(sample, lr_window, alpha, rng=seed)

        if n_c + n_t == 2:
            with pytest.raises(InsufficientDataError):
                lr_interval(sample, lr_window, alpha)
            return
        if grid.size == 1:
            # zero pooled sd: p is one value at every effect off the point;
            # the offset keeps the reference's roundoff inside its tie slack
            off_point = grid[0] + 1.0 + np.abs(y_window).max()
            if _reference_p_value(u_ref, v_ref, off_point) > alpha:
                with pytest.raises(InsufficientDataError, match="whole real line"):
                    lr()
            else:
                est = lr()
                assert est.ci_lower == est.ci_upper == est.tau_hat == grid[0]
                assert est.diagnostics["grid_clipped"] is False
            return
        est = lr()
        accepted = np.flatnonzero(reference[-grid.size:] > alpha)
        expected = np.array([grid[accepted[0]], grid[accepted[-1]]])
        assert np.array([est.ci_lower, est.ci_upper]).tobytes() == expected.tobytes()
        assert est.diagnostics["grid_clipped"] == bool(
            accepted[0] == 0 or accepted[-1] == grid.size - 1)
