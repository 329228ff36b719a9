import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import affine_transform
from rdsmall.core import EffectEstimate, RDSample
from rdsmall.errors import LengthMismatchError, NonFiniteError

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def test_construction_partitions_by_sharp_rule():
    x = np.array([-1.0, 0.0, 1.0])
    sample = RDSample(x=x, y=[0, 0, 0], cutoff=0)
    assert sample.x is x  # float input is not copied
    assert sample.below.tolist() == [0]
    assert sample.above.tolist() == [1, 2]  # x == cutoff is treated
    assert (sample.n_below, sample.n_above) == (1, 2)
    assert sample.empty_side is None


def test_construction_rejects_nonfinite():
    with pytest.raises(NonFiniteError, match="^running variable contains NaN or inf$"):
        RDSample(x=[-1, np.nan], y=[0, 0], cutoff=0)
    with pytest.raises(NonFiniteError, match="^response contains NaN or inf$"):
        RDSample(x=[-1, 1], y=[0, np.inf], cutoff=0)
    with pytest.raises(NonFiniteError, match="^cutoff is not finite$"):
        RDSample(x=[-1, 1], y=[0, 0], cutoff=np.nan)


def test_construction_rejects_length_mismatch_and_empty():
    with pytest.raises(LengthMismatchError, match="^x has length 2, y has length 1$"):
        RDSample(x=[1, 2], y=[1], cutoff=0)
    with pytest.raises(LengthMismatchError, match="^sample is empty$"):
        RDSample(x=[], y=[], cutoff=0)


def test_empty_side_is_a_property_not_an_error():
    sample = RDSample(x=[1, 2, 3], y=[0, 0, 0], cutoff=0)
    assert sample.below.size == 0
    assert sample.above.tolist() == [0, 1, 2]
    assert sample.empty_side == "below"
    assert RDSample(x=[-1, -2], y=[0, 0], cutoff=0).empty_side == "above"


@given(data=st.data(), n=st.integers(1, 30))
def test_sides_partition_the_sample_in_ascending_order(data, n):
    x = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
    cutoff = data.draw(st.sampled_from(x.tolist()) | _FINITE)  # ties at the cutoff too
    sample = RDSample(x=x, y=y, cutoff=cutoff)
    both = np.concatenate([sample.below, sample.above])
    np.testing.assert_array_equal(np.sort(both), np.arange(n))
    assert (np.diff(sample.below) > 0).all() and (np.diff(sample.above) > 0).all()
    assert (x[sample.below] < cutoff).all() and (cutoff <= x[sample.above]).all()


@given(data=st.data(), n=st.integers(1, 10), where=st.sampled_from(["x", "y", "cutoff"]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_any_nonfinite_value_is_rejected(data, n, where, bad):
    values = {
        "x": np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n))),
        "y": np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n))),
        "cutoff": data.draw(_FINITE),
    }
    if where == "cutoff":
        values["cutoff"] = bad
    else:
        values[where][data.draw(st.integers(0, n - 1))] = bad
    message = {"x": "running variable contains NaN or inf",
               "y": "response contains NaN or inf", "cutoff": "cutoff is not finite"}[where]
    with pytest.raises(NonFiniteError, match=f"^{message}$"):
        RDSample(**values)


@given(nx=st.integers(0, 6), ny=st.integers(0, 6), value=_FINITE)
def test_length_mismatch_or_empty_is_rejected(nx, ny, value):
    assume(nx != ny or nx == 0)
    message = "sample is empty" if nx == 0 == ny else f"x has length {nx}, y has length {ny}"
    with pytest.raises(LengthMismatchError, match=f"^{message}$"):
        RDSample(x=np.full(nx, value), y=np.full(ny, value), cutoff=value)


@pytest.mark.parametrize("field", ["tau_hat", "se", "ci_lower", "ci_upper"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nonfinite_estimate_is_a_nonfinite_error(field, bad):
    # an overflowed estimate is a counted failure of the data, not a crash
    values = {"tau_hat": 1.0, "se": 0.5, "ci_lower": 0.0, "ci_upper": 2.0, field: bad}
    with pytest.raises(NonFiniteError):
        EffectEstimate(bandwidth_or_window=1.0, **values)
    EffectEstimate(bandwidth_or_window=1.0, **{**values, field: 1.0, "se": None})


def test_affine_transform_beta_to_unit_interval():
    sample = RDSample(x=[0.0, 0.5, 1.0], y=[1, 2, 3], cutoff=0.5)
    out = affine_transform(sample, 2.0, -1.0)
    np.testing.assert_array_equal(out.x, [-1.0, 0.0, 1.0])
    assert out.cutoff == 0.0
    np.testing.assert_array_equal(out.y, sample.y)


def test_affine_transform_identity_and_zero_scale():
    sample = RDSample(x=[1.0, 2.0], y=[3.0, 4.0], cutoff=1.5)
    out = affine_transform(sample, 1.0, 0.0)
    np.testing.assert_array_equal(out.x, sample.x)
    assert out.cutoff == sample.cutoff
    with pytest.raises(ValueError, match="a != 0"):
        affine_transform(sample, 0.0, 1.0)


def test_affine_roundtrip_within_tolerance():
    rng = np.random.default_rng(11)
    sample = RDSample(x=rng.normal(3, 2, 40), y=rng.normal(size=40), cutoff=2.5)
    for _ in range(50):
        a = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-5, 5)
        back = affine_transform(affine_transform(sample, a, b), 1.0 / a, -b / a)
        np.testing.assert_allclose(back.x, sample.x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(back.cutoff, sample.cutoff, rtol=1e-12, atol=1e-12)


def test_side_split_invariant_under_positive_scale():
    rng = np.random.default_rng(7)
    sample = RDSample(x=rng.uniform(-1, 1, 60), y=np.zeros(60), cutoff=0.1)
    for a, b in [(2.0, 1.0), (0.25, -3.0), (13.7, 0.0)]:
        moved = affine_transform(sample, a, b)
        np.testing.assert_array_equal(moved.below, sample.below)
        np.testing.assert_array_equal(moved.above, sample.above)


def test_negative_scale_keeps_a_cutoff_point_treated():
    sample = RDSample(x=[-1.0, 0.0, 1.0], y=[0.0, 0.0, 0.0], cutoff=0.0)
    np.testing.assert_array_equal(sample.below, [0])
    np.testing.assert_array_equal(sample.above, [1, 2])
    mirrored = affine_transform(sample, -1.0, 0.0)
    # the strict sides swap; the point at the cutoff stays above it
    np.testing.assert_array_equal(mirrored.below, [2])
    np.testing.assert_array_equal(mirrored.above, [0, 1])
