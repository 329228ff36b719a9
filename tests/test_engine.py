import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdsmall.simulation
from rdsmall.bandwidth import CurvatureBound
from rdsmall.cli import main
from rdsmall.core import RDSample, validate
from rdsmall.engine import CONTINUITY_METHODS, Outcome, Plan, estimate
from rdsmall.errors import EmptySideWarning, SpecValidationError
from rdsmall.simulation import CellSpec, run_cell, validate_cell_spec


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
                                  ["--lr-min", "0", "--methods", "lr"]])
def test_analyze_rejects_out_of_range_settings(argv, tmp_path, capsys):
    code, _, err = _analyze(capsys, _noisy_csv(tmp_path), *argv)
    assert code == 2 and "required" in err


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


@st.composite
def _samples(draw):
    """Small samples: integer scores with ties at the cutoff or real scores,
    sometimes on one side only; constant, linear or noisy responses; scales
    from 1e-6 to 1e6."""
    n = draw(st.sampled_from(range(1, 31)))
    if draw(st.booleans()):
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
    return RDSample(x=x, y=y, cutoff=0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sample=_samples(),
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
def test_one_outcome_per_method_and_nothing_escapes(sample, window, m_bound, akm_bound,
                                                    lr_min, alpha):
    def bound(value):
        return None if value is None else CurvatureBound(value, "user")

    plan = Plan(methods=ALL_METHODS, alpha=alpha, lr_min=lr_min, window=window,
                m_bound=bound(m_bound), akm_bound=bound(akm_bound), n_mc=99)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySideWarning)
        outcomes = estimate(sample, validate(sample), plan, np.random.default_rng(0))
    assert list(outcomes) == list(plan.methods)
    for method, out in outcomes.items():
        assert isinstance(out, Outcome)
        if out.ok:
            assert math.isfinite(out.bw)
            assert out.lo <= out.tau <= out.hi, method
            assert all(math.isfinite(v) for v in (out.tau, out.lo, out.hi)), method
        else:
            assert out.reason and math.isnan(out.tau), method
