import json
import math
import pickle
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import has_distance_tie, make_noisy_sample, overflowing_sample, small_samples
import rdsmall.engine
import rdsmall.simulation
from rdsmall.bandwidth import CurvatureBound, _grid_objective, estimate_m_hat
from rdsmall.cli import main
from rdsmall.core import RDSample
from rdsmall.engine import CONTINUITY_METHODS, Outcome, Plan, estimate
from rdsmall.errors import (
    InsufficientDataError,
    NonFiniteError,
    RDError,
    SpecValidationError,
    ZeroCurvatureBoundError,
)
from rdsmall.local_poly import Kernel, local_poly_fit, nn_variance
from rdsmall.simulation import (
    MU_FUNCTIONS,
    RV_SPECS,
    CellSpec,
    generate_dataset,
    run_cell,
    validate_cell_spec,
)


def _write_csv(path, x, y):
    rows = "".join(f"{float(xi)!r},{float(yi)!r}\n" for xi, yi in zip(x, y))
    path.write_text("x,y\n" + rows, encoding="utf-8")


def _analyze(capsys, path, *extra):
    code = main(["analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
                 "--cutoff", "0", *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _noisy_csv(tmp_path):
    rng = np.random.default_rng(5)
    x = np.concatenate([-rng.uniform(0.02, 1.0, 40), rng.uniform(0.0, 1.0, 40)])
    y = 1.0 + 0.3 * x + 0.1 * (x >= 0) + 0.01 * rng.standard_normal(x.size)
    path = tmp_path / "noisy.csv"
    _write_csv(path, x, y)
    return path


# ---------------------------------------------------------------------------
# One parser for every front end
# ---------------------------------------------------------------------------

PARSE_CASES = [
    ("lr", "lr5"),
    ("lr5", "lr5"),
    ("LR", "lr5"),
    (" ik/cv ", "ik/cv"),
    ("akm/flci", "akm/flci"),
    ("ik/banana", None),
    ("zz", None),
    ("", None),
]


def _through_spec(ids):
    return validate_cell_spec({"rv": "rv2", "mu": "mu2", "n": 40, "methods": ids}).methods


def _through_cellspec(ids):
    return CellSpec(rv="rv2", mu="mu2", n=40, methods=tuple(ids)).methods


@pytest.mark.parametrize("raw, canonical", PARSE_CASES)
def test_one_parser_for_spec_cellspec_and_analyze(raw, canonical, tmp_path, capsys):
    path = _noisy_csv(tmp_path)
    code, out, err = _analyze(capsys, path, "--methods", raw)
    if canonical is None:
        with pytest.raises(SpecValidationError) as from_spec:
            _through_spec([raw])
        with pytest.raises(SpecValidationError) as from_cellspec:
            _through_cellspec([raw])
        assert str(from_spec.value) == str(from_cellspec.value)
        assert code == 2
        assert err == f"error: {from_spec.value}\n"
    else:
        assert _through_spec([raw]) == (canonical,)
        assert _through_cellspec([raw]) == (canonical,)
        assert code == 0
        assert [r["method"] for r in json.loads(out)["results"]] == [canonical]


@pytest.mark.parametrize("ids", [["ik/cv", "ik/cv"], ["lr", "lr5"], ["ak/rbc", "AK/RBC "]])
def test_repeated_method_rejected_by_both_front_ends(ids, tmp_path, capsys):
    with pytest.raises(SpecValidationError, match=r"methods\[1\]: repeated"):
        _through_spec(ids)
    with pytest.raises(SpecValidationError, match=r"methods\[1\]: repeated"):
        _through_cellspec(ids)
    code, _, err = _analyze(capsys, _noisy_csv(tmp_path), "--methods", ",".join(ids))
    assert code == 2 and "repeated" in err


@pytest.mark.parametrize("argv", [["--alpha", "0"], ["--alpha", "1.5"],
                                  ["--lr-min", "0", "--methods", "lr"],
                                  ["--lr-min", "0", "--methods", "ik/cv"],
                                  ["--m-bound", "0"], ["--m-bound", "-1"]])
def test_analyze_rejects_out_of_range_settings(argv, tmp_path, capsys):
    code, _, err = _analyze(capsys, _noisy_csv(tmp_path), *argv)
    assert code == 2 and "required" in err


def test_negative_seed_rejected_by_both_front_ends(tmp_path, capsys):
    code, _, err = _analyze(capsys, _noisy_csv(tmp_path), "--seed", "-1")
    assert (code, err) == (2, "error: seed: >= 0 required, got -1\n")
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"rv": "rv2", "mu": "mu2", "n": 40, "replications": 2,
                                "seed": -1, "methods": ["lr"]}), encoding="utf-8")
    assert main(["simulate", "--spec", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: seed: >= 0 required, got -1\n"


def test_analyze_rows_follow_the_requested_order(tmp_path, capsys):
    code, out, _ = _analyze(capsys, _noisy_csv(tmp_path), "--methods", "lr,ak/cv,ik/rbc")
    assert code == 0
    assert [r["method"] for r in json.loads(out)["results"]] == ["lr5", "ak/cv", "ik/rbc"]


# ---------------------------------------------------------------------------
# One zero-curvature rule
# ---------------------------------------------------------------------------

ZERO_CURVATURE = ("ik/flci", "ak/cv", "ak/rbc", "ak/flci")


def _linear_sample(n=40):
    x = np.linspace(-1.0, 1.0, n)
    return RDSample(x=x, y=1.0 + 0.5 * x + 0.1 * (x >= 0), cutoff=0.0)


def test_zero_curvature_fails_alike_in_analyze_and_harness(tmp_path, capsys, monkeypatch):
    sample = _linear_sample()
    path = tmp_path / "linear.csv"
    _write_csv(path, sample.x, sample.y)
    code, out, _ = _analyze(capsys, path, "--methods", ",".join(ZERO_CURVATURE + ("ik/cv",)))
    assert code == 0
    rows = {r["method"]: r for r in json.loads(out)["results"]}
    assert rows["ik/cv"]["success"]
    for method in ZERO_CURVATURE:
        assert not rows[method]["success"]
        assert rows[method]["reason"].startswith("ZeroCurvatureBoundError: "), method

    monkeypatch.setattr(rdsmall.simulation, "generate_dataset", lambda *args: sample)
    result = run_cell(CellSpec(rv="rv2", mu="mu2", n=sample.n, replications=2,
                               methods=ZERO_CURVATURE + ("ik/cv",)))
    assert result.per_method["ik/cv"].interval_success_rate == 1.0
    for method in ZERO_CURVATURE:
        assert result.per_method[method].failure_counts == {"zero_curvature": 2}


# ---------------------------------------------------------------------------
# Robustness: one outcome per method, nothing escapes
# ---------------------------------------------------------------------------

ALL_METHODS = CONTINUITY_METHODS + ("lr",)


_RDERROR_NAMES = {cls.__name__ for cls in RDError.__subclasses__()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sample=small_samples(),
    window=st.sampled_from(["strict", "capped"]),
    m_bound=st.sampled_from([None, 0.0, 2.0]),
    akm_bound=st.sampled_from([None, 0.0, 2.0]),
    lr_min=st.integers(1, 6),
    alpha=st.sampled_from([0.05, 0.3, 0.9]),
)
# flci on a roundoff-sized SE: the folded-normal bracket used to lose its root
@example(sample=RDSample(x=[0, 0, 0, 1, -1, -1, -1, -2], y=[0.1] * 4 + [0.0] * 4, cutoff=0),
         window="strict", m_bound=None, akm_bound=2.0, lr_min=1, alpha=0.05)
# lr on y constant up to roundoff: the grid's center used to be rejected
@example(sample=RDSample(x=[-1] + [1] * 6, y=[995021.47004749] * 7, cutoff=0),
         window="strict", m_bound=None, akm_bound=None, lr_min=1, alpha=0.3)
# alpha = 0.9 with a zero bound (t = 0): the folded-normal bracket ended below 0
@example(sample=RDSample(x=np.linspace(-1, 1, 30), y=np.cos(np.arange(30.0)), cutoff=0),
         window="strict", m_bound=0.0, akm_bound=None, lr_min=5, alpha=0.9)
# scores of 1e-210 and below: the ak bandwidth's square used to underflow in rbc
@example(sample=RDSample(x=[0, 1, 0.5, 0.75, 0.625, 5.56238392e-210, -1, -0.5, -0.75, -0.25,
                            -5.33502188e-204, -3.20499698e-210, -1.95661187e-217],
                         y=[1.0] * 13, cutoff=0),
         window="strict", m_bound=None, akm_bound=None, lr_min=1, alpha=0.05)
# responses near 1e200 (the 10-row CSV of the CLI test): the squares in the
# SEs and in lr's pooled variance overflowed and escaped as a ValueError
@example(sample=RDSample(x=[-5, -4, -3, -2, -1, 1, 2, 3, 4, 5],
                         y=np.array([3, -1, 2, -3, 1, 2, -2, 4, -1, 3]) * 1e200, cutoff=0),
         window="strict", m_bound=2.0, akm_bound=2.0, lr_min=5, alpha=0.05)
def test_one_outcome_per_method_and_nothing_escapes(sample, window, m_bound, akm_bound,
                                                    lr_min, alpha):
    def bound(value):
        return None if value is None else CurvatureBound(value)

    plan = Plan(methods=ALL_METHODS, alpha=alpha, lr_min=lr_min, window=window,
                m_bound=bound(m_bound), akm_bound=bound(akm_bound))
    outcomes = estimate(sample, plan, np.random.default_rng(0))
    assert list(outcomes) == list(plan.methods)
    for method, out in outcomes.items():
        assert isinstance(out, Outcome)
        if out.ok:
            assert math.isfinite(out.bw)
            assert out.lo <= out.tau <= out.hi, method
            assert all(math.isfinite(v) for v in (out.tau, out.lo, out.hi)), method
        else:
            assert out.reason and math.isnan(out.tau), method
            assert out.error.split(": ")[0] in _RDERROR_NAMES, method
        # a kept exception would keep the failing call's frames alive
        assert not any(isinstance(v, BaseException) for v in vars(out).values()), method


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m_bound", [None, 2.0])
def test_overflowing_responses_fail_where_they_overflow(m_bound):
    # m_hat used to snap to 0 (ak/*: zero_curvature, "linear on each side"),
    # and the variances came back inf, so ak_bandwidth picked h = 2.0328 from
    # an objective that was inf or NaN everywhere
    bound = None if m_bound is None else CurvatureBound(m_bound)
    plan = Plan(methods=ALL_METHODS, alpha=0.05, lr_min=5, window="strict",
                m_bound=bound, akm_bound=bound)
    outcomes = estimate(overflowing_sample(), plan, np.random.default_rng(0))
    if m_bound is None:
        want = {"ik": "NonFiniteError", "ak": "m_hat", "akm": "no_bound", "lr5": "NonFiniteError"}
    else:
        want = {"ik": "NonFiniteError", "ak": "nn_variance", "akm": "nn_variance",
                "lr5": "NonFiniteError"}
    for method, out in outcomes.items():
        assert out.reason == want[method.split("/")[0]], method
        if out.reason != "no_bound":
            assert out.error.startswith("NonFiniteError: "), method
        assert math.isnan(out.bw) == (method != "lr5"), method


# (sample, y factor, x factor): each scale makes some stage's arithmetic
# overflow, or divide by a power of the scores' scale that underflows to 0
_OVERFLOW_PROBE = [
    ("ten_row", 1e153, 1.0),  # ak's squared bias bound, at every candidate
    ("noisy60", 10**154.25, 1.0),  # ak's variance, at some candidates
    ("ten_row", 10**307.5, 1.0),  # m_hat's candidates, nn_variance's and lr's means
    ("noisy60", 1.0, 1e-45),  # ik's curvature-window denominator
    ("noisy60", 1.0, 1e-60),  # ik's squared third derivative
    ("noisy60", 1.0, 1e-110),  # ik's third derivative: scale**3 is 0
    ("noisy60", 1.0, 1e-160),  # m_hat: scale**2 is 0
    ("noisy60", 1.0, 1e-153),  # rbc's curvature weights, at ak's h
    ("noisy60", 1.0, 1e-154),  # the same; m_hat overflows, so only under a bound
    ("ten_row", 1.0, 10**-154.5),
    ("noisy60", 1.0, 1e80),  # ak's screen: its powers of scaled distances
    ("noisy60", 1.0, 1e-80),
    # huge scores: the spread's sd, m_hat's scale**2, ik's density pilot
    # (f_hat * m3^2 is 0 from 1e306.5) and ak's score range (1e307.5)
    *((name, 1.0, 10**k) for k in (154, 160, 200, 306.5, 307, 307.5)
      for name in ("ten_row", "noisy60")),
    ("ten_row", 1e140, 1e45),  # ik's curvature-window ratio s2 / (f_hat m3^2)
    ("ten_row", 1e-160, 1e75),  # flci's t = worst-case bias / SE: a ValueError
    ("ten_row", 1e-295, 1e15),  # nn_variance's squares, and m_hat so small that M / 2 is 0
    ("ten_row", 1e-163, 1.0),  # nn_variance's squares underflow to 0
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m_bound", [None, 2.0])
@pytest.mark.parametrize("name, y_factor, x_factor", _OVERFLOW_PROBE,
                         ids=[f"{name}-y{fy:.3g}-x{fx:g}" for name, fy, fx in _OVERFLOW_PROBE])
def test_no_stage_prints_a_numpy_warning(name, y_factor, x_factor, m_bound):
    base = overflowing_sample(factor=1.0) if name == "ten_row" else make_noisy_sample(60, seed=3)
    sample = RDSample(x=base.x * x_factor, y=base.y * y_factor, cutoff=0.0)
    bound = None if m_bound is None else CurvatureBound(m_bound)
    for window in ("strict", "capped"):
        plan = Plan(methods=ALL_METHODS, alpha=0.05, lr_min=5, window=window,
                    m_bound=bound, akm_bound=bound)
        for method, out in estimate(sample, plan, np.random.default_rng(0)).items():
            assert out.ok or out.error, method
            if y_factor == 1e153:
                if method.startswith("ik/"):
                    assert out.reason == "nonfinite_result", method
                elif method.startswith("ak/") and m_bound is None:
                    assert out.error.startswith("NonFiniteError: ak: the objective"), method
            elif y_factor in (1e-295, 1e-163):
                # every squared residual underflows to 0: cv and rbc gave
                # zero-width intervals, ak minimized the bias alone, and lr
                # took its pooled variance for constant responses
                if method == "lr5":
                    assert out.error.startswith("NonFiniteError: "), method
                    assert "pooled variance of the window's y underflows" in out.error
                elif method.startswith("ak/") or (method.startswith("akm/") and m_bound):
                    assert out.reason == "nn_variance", method
                    assert "underflows" in out.error, method


@pytest.mark.parametrize("stage, error, reason", [
    ("cv_interval", InsufficientDataError("ik cubic pilot", reason="pilot_cubic"), "pilot_cubic"),
    ("cv_interval", ZeroCurvatureBoundError("m_hat is 0"), "zero_curvature"),
    ("cv_interval", NonFiniteError("inf"), "NonFiniteError"),
    ("nn_variance", NonFiniteError("inf"), "nn_variance"),  # retagged by its stage
], ids=["given", "type_tag", "type_name", "retagged"])
def test_a_failure_keeps_its_reason_through_pickle(monkeypatch, stage, error, reason):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(rdsmall.engine, "ik_bandwidth", lambda sample: SimpleNamespace(h=0.5))
    monkeypatch.setattr(rdsmall.engine, stage, fail)
    plan = Plan(methods=("ik/cv",), alpha=0.05, lr_min=5, window="strict")
    out = estimate(make_noisy_sample(60, seed=3), plan)["ik/cv"]
    # a pooled cell's outcomes cross the process pool pickled
    back = pickle.loads(pickle.dumps(out))
    want = (reason, f"{type(error).__name__}: {error.args[0]}", False, 0.5)
    assert (out.reason, out.error, out.ok, out.bw) == want
    assert (back.reason, back.error, back.ok, back.bw) == want


# ---------------------------------------------------------------------------
# One set of fits per bandwidth
# ---------------------------------------------------------------------------


def _bound(value):
    return None if value is None else CurvatureBound(value)


def _estimate(sample, methods, m_bound=None, akm_bound=None, alpha=0.05):
    plan = Plan(methods=methods, alpha=alpha, lr_min=5, window="strict",
                m_bound=_bound(m_bound), akm_bound=_bound(akm_bound))
    return estimate(sample, plan)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sample=small_samples(),
    m_bound=st.sampled_from([None, 0.0, 2.0]),
    akm_bound=st.sampled_from([None, 0.0, 2.0]),
    alpha=st.sampled_from([0.05, 0.3, 0.9]),
)
def test_shared_fits_match_one_method_at_a_time(sample, m_bound, akm_bound, alpha):
    # a one-method plan has nothing to share, so it is the oracle
    together = _estimate(sample, CONTINUITY_METHODS, m_bound, akm_bound, alpha)
    for method in CONTINUITY_METHODS:
        alone = _estimate(sample, (method,), m_bound, akm_bound, alpha)[method]
        shared = together[method]
        fields = ("bw", "tau", "se", "lo", "hi")
        assert (np.array([getattr(shared, f) for f in fields]).tobytes()
                == np.array([getattr(alone, f) for f in fields]).tobytes()), method
        assert shared.reason == alone.reason, method
        assert shared.error == alone.error, method


def _count_calls(monkeypatch, function, key):
    """Count ``key(...)`` of the arguments of each call of ``function``,
    through every binding of it in a loaded ``rdsmall`` module."""
    calls = Counter()

    def counted(*args, **kwargs):
        calls[key(*args, **kwargs)] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "rdsmall" or name.startswith("rdsmall."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_each_fit_is_made_once_per_bandwidth(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, 200)
    sample = RDSample(x=x, y=x + x**2 + 0.5 * (x >= 0) + 0.2 * rng.standard_normal(200),
                      cutoff=0.0)
    fits = _count_calls(monkeypatch, local_poly_fit,
                        lambda sample, side, degree, h, kernel=Kernel.TRIANGULAR:
                        (degree, kernel, h if kernel is Kernel.TRIANGULAR else None))
    variances = _count_calls(monkeypatch, nn_variance, lambda sample: id(sample))
    out = _estimate(sample, ("ik/cv", "ik/rbc", "ik/flci"))
    assert all(o.ok for o in out.values())
    h = out["ik/cv"].bw
    # degree-1 and degree-2 pairs at h (the bias window did not expand), and
    # ik's two uniform-kernel pilot quadratics
    assert fits == {(1, Kernel.TRIANGULAR, h): 2, (2, Kernel.TRIANGULAR, h): 2,
                    (2, Kernel.UNIFORM, None): 2}

    fits.clear()
    out = _estimate(sample, ("ik/cv", "ik/flci", "ak/cv", "ak/flci"))
    assert all(o.ok for o in out.values())
    assert not any(degree == 2 and kernel is Kernel.TRIANGULAR for degree, kernel, _ in fits)
    assert sum(n for (degree, _, _), n in fits.items() if degree == 1) == 4

    # ik/*, ak/* and akm/* share one set of nearest-neighbor variances
    variances.clear()
    out = _estimate(sample, CONTINUITY_METHODS, akm_bound=2.0)
    assert all(o.ok for o in out.values())
    assert variances == {id(sample): 1}


def test_a_failed_stage_builds_nothing_it_does_not_need(monkeypatch):
    # y constant: ik fails on its pilot variance and m_hat snaps to 0, and
    # neither reads the nearest-neighbor variances
    x = np.linspace(-1.0, 1.0, 40)
    sample = RDSample(x=x, y=np.ones(40), cutoff=0.0)
    variances = _count_calls(monkeypatch, nn_variance, lambda sample: id(sample))
    assert _estimate(sample, ("ik/cv",))["ik/cv"].reason == "pilot_variance_zero"
    assert _estimate(sample, ("ak/cv",))["ak/cv"].reason == "zero_curvature"
    assert not variances
    # a method that gets to its fits reads them
    assert _estimate(sample, ("ak/cv",), m_bound=2.0)["ak/cv"].bw > 0
    assert variances == {id(sample): 1}


# ---------------------------------------------------------------------------
# Metamorphic properties of the continuity methods
# ---------------------------------------------------------------------------


def _assert_same_outcomes(a, b, scale):
    for method in CONTINUITY_METHODS:
        x, y = a[method], b[method]
        assert x.reason == y.reason, method
        if x.ok:
            assert math.isclose(x.bw, y.bw, rel_tol=1e-6), method
            assert abs(x.tau - y.tau) <= 1e-6 * scale, method
            assert abs((x.hi - x.lo) - (y.hi - y.lo)) <= 1e-6 * scale, method


_LINEAR_X = np.array([5, -1, -5, -4, -4, -1, 5, 0, -2, -2, 6, -4, -4, -2, 6, 6, 5, 0]) * 1e-6


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sample=small_samples(),
    k=st.sampled_from([-3.0, -1.0, 0.5, 1.0, 10.0]),
    m_bound=st.sampled_from([None, 2.0]),
    akm_bound=st.sampled_from([None, 2.0]),
    alpha=st.sampled_from([0.05, 0.3]),
)
# y constant at 0.1: the mean of equal values rounded away from them, so the
# nearest-neighbor variances and ik's pilot variances were roundoff, not 0,
# at some levels of y and not at others
@example(sample=RDSample(x=np.linspace(-1, 1, 20), y=np.full(20, 0.1), cutoff=0),
         k=-3.0, m_bound=2.0, akm_bound=2.0, alpha=0.05)
# y constant at 0 and -1: the curvature snap scaled by std(y), which is 0 here,
# left m_hat at roundoff for y = -1
@example(sample=RDSample(x=[2, 0, 3, 6, -2, -5, 0, -3, -4, 3, 3, -2, 6, -4, 4, -1, 5, 1],
                         y=np.zeros(18), cutoff=0),
         k=-1.0, m_bound=None, akm_bound=2.0, alpha=0.3)
# y linear with one slope: ik's cubic coefficient was roundoff and sized the
# pilot curvature windows, so a different side's quadratic failed
@example(sample=RDSample(x=_LINEAR_X, y=76310.08445025043 - 12695.23016 * _LINEAR_X * 1e6
                         + 0.1 * (_LINEAR_X >= 0), cutoff=0),
         k=10.0, m_bound=None, akm_bound=None, alpha=0.05)
def test_shift_of_y_moves_no_estimate(sample, k, m_bound, akm_bound, alpha):
    scale = float(np.abs(sample.y).max()) or 1.0
    shift = k * scale
    # a shift that merges (or nearly merges) distinct responses loses data
    gaps = np.diff(np.unique(sample.y))
    assume(not gaps.size or gaps.min() > 1e-6 * abs(shift))
    shifted = RDSample(x=sample.x, y=sample.y + shift, cutoff=sample.cutoff)
    _assert_same_outcomes(_estimate(sample, CONTINUITY_METHODS, m_bound, akm_bound, alpha),
                          _estimate(shifted, CONTINUITY_METHODS, m_bound, akm_bound, alpha),
                          scale + abs(shift))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sample=small_samples(integer_scores=False, distance_ties=False),
    seed=st.integers(0, 2**16),
    m_bound=st.sampled_from([None, 2.0]),
    akm_bound=st.sampled_from([None, 2.0]),
    alpha=st.sampled_from([0.05, 0.3]),
)
# y linear with one slope on scores near 1e-5: ik's cubic coefficient was
# roundoff, which the row order changed, and it sized the pilot windows
@example(sample=RDSample(x=np.array([0, 6.875, 3.125, 2.1875, -5.3125, -5, -1.25, 10, 1.25, -10])
                         / 1e6,
                         y=[0.1, 0.7875, 0.4125, 0.31875, -0.53125, -0.5, -0.125, 1.1, 0.225, -1],
                         cutoff=0),
         seed=0, m_bound=None, akm_bound=None, alpha=0.05)
def test_permutation_of_rows_moves_no_estimate(sample, seed, m_bound, akm_bound, alpha):
    # nearest neighbors break distance ties by row index, so the samples have
    # no tie between two same-side distances
    below = sample.x < sample.cutoff
    assert not has_distance_tie(sample.x[below]) and not has_distance_tie(sample.x[~below])
    order = np.random.default_rng(seed).permutation(sample.n)
    permuted = RDSample(x=sample.x[order], y=sample.y[order], cutoff=sample.cutoff)
    _assert_same_outcomes(_estimate(sample, CONTINUITY_METHODS, m_bound, akm_bound, alpha),
                          _estimate(permuted, CONTINUITY_METHODS, m_bound, akm_bound, alpha),
                          float(np.abs(sample.y).max()))


def _ak_objective(sample, m, hs):
    """ak's worst-case-bias^2 + variance at each bandwidth in hs."""
    u = sample.x - sample.cutoff
    sigma2 = nn_variance(sample)
    hs = np.asarray(hs, float)
    orders = [idx[np.argsort(np.abs(u[idx]))] for idx in (sample.below, sample.above)]
    sides = [_grid_objective(u[order], sigma2[order], hs)
             for order in orders]
    assert all(ok.all() for ok, _, _ in sides)
    (_, bias_b, var_b), (_, bias_a, var_a) = sides
    return (0.5 * m * (bias_b + bias_a)) ** 2 + (var_b + var_a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rv=st.sampled_from(sorted(RV_SPECS)),
    mu=st.sampled_from(sorted(MU_FUNCTIONS)),
    n=st.integers(12, 200),
    seed=st.integers(0, 2**16),
    a=st.sampled_from([0.25, 3.0, 40.0]),
    b=st.sampled_from([-2.0, 0.0, 5.0]),
    k=st.sampled_from([-1.0, 0.0, 2.0]),
    m_bound=st.sampled_from([None, 2.0]),
    sign=st.sampled_from([1.0, -1.0]),
)
# each side's ak window holds exactly two points on a stretch of candidates,
# so the linear fits interpolate and three candidates tie at 0.34029431
@example(rv="rv2", mu="mu1", n=95, seed=36, a=40.0, b=0.0, k=0.0, m_bound=None, sign=1.0)
def test_affine_map_of_scores_and_responses_moves_estimates_alike(rv, mu, n, seed, a, b, k,
                                                                   m_bound, sign):
    # x -> a x + b (cutoff too) and y -> c y + d with c = +-a^3, which leaves
    # ik's squared third-derivative estimate, and so its _M3_FLOOR comparison,
    # unchanged; c < 0 swaps the interval's ends
    sample = generate_dataset(rv, mu, n, np.random.default_rng(seed))
    c = sign * a**3
    scale = abs(c) * float(np.abs(sample.y).max())
    d = k * scale
    moved = RDSample(a * sample.x + b, c * sample.y + d, a * sample.cutoff + b)
    ratio = abs(c) / a**2  # how a curvature bound moves

    def run(s, r):
        plan = Plan(methods=ALL_METHODS, alpha=0.05, lr_min=5, window="strict",
                    m_bound=_bound(None if m_bound is None else r * m_bound),
                    akm_bound=_bound(r * 2.0))
        return estimate(s, plan, np.random.default_rng(0))

    base, mapped = run(sample, 1.0), run(moved, ratio)
    tol = 1e-6 * (scale + abs(d))
    for method, x in base.items():
        y = mapped[method]
        assert x.reason == y.reason, method
        if not x.ok:
            continue
        if not math.isclose(a * x.bw, y.bw, rel_tol=1e-6):
            # ak and akm may pick another bandwidth only where their
            # objective is flat between the two picks
            alg = method.split("/")[0]
            assert alg in ("ak", "akm"), method
            m = 2.0 if alg == "akm" else m_bound or estimate_m_hat(sample).value
            first, second = _ak_objective(sample, m, [x.bw, y.bw / a])
            assert math.isclose(first, second, rel_tol=1e-9), method
            continue
        assert abs(c * x.tau - y.tau) <= tol, method
        assert abs(abs(c) * (x.hi - x.lo) - (y.hi - y.lo)) <= tol, method
        lo, hi = (y.lo, y.hi) if c > 0 else (y.hi, y.lo)
        assert abs(c * x.lo - lo) <= tol, method
        assert abs(c * x.hi - hi) <= tol, method
