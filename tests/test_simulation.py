import concurrent.futures
import dataclasses
import json
import multiprocessing

import numpy as np
import pytest

from rdsmall import simulation
from rdsmall.cli import main
from rdsmall.diss import beta_cdf
from rdsmall.errors import OutOfSupportError, SpecValidationError
from rdsmall.simulation import (
    MU_FUNCTIONS,
    RV_SPECS,
    CellSpec,
    eval_mu,
    generate_dataset,
    max_abs_second_derivative,
    mu_second_derivative,
    replications_csv,
    resolve_study_size,
    run_cell,
    validate_cell_spec,
)


class TestMeanFunctions:
    def test_intercepts(self):
        assert eval_mu("mu1", -1e-12) == pytest.approx(0.0, abs=1e-9)
        assert eval_mu("mu1", 0.0) == pytest.approx(0.1, abs=1e-12)
        assert eval_mu("mu2", -1e-12) == pytest.approx(0.42, abs=1e-9)
        assert eval_mu("mu2", 0.0) == pytest.approx(0.52, abs=1e-12)
        assert eval_mu("mu3", -1e-12) == pytest.approx(0.05, abs=1e-9)
        assert eval_mu("mu3", 0.0) == pytest.approx(0.15, abs=1e-12)

    @pytest.mark.parametrize("name", ["mu1", "mu2", "mu3"])
    def test_jump_is_tenth_with_linear_rate(self, name):
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            jump = eval_mu(name, eps) - eval_mu(name, -eps)
            assert abs(jump - 0.1) <= 10 * eps

    def test_continuity_at_interior_knots(self):
        for knot in MU_FUNCTIONS["mu1"].knots:
            gap = eval_mu("mu1", knot + 1e-9) - eval_mu("mu1", knot - 1e-9)
            assert abs(gap) < 1e-7

    def test_out_of_support(self):
        with pytest.raises(OutOfSupportError):
            eval_mu("mu2", 1.2)

    def test_curvature_bounds(self):
        assert max_abs_second_derivative("mu1") == pytest.approx(2.0, abs=1e-12)
        assert max_abs_second_derivative("mu2") == pytest.approx(233.26, abs=0.01)
        # analytic value for mu3 is 9.8 at x = -1; the nominal 16.2 stays
        # available as the design's quoted bound
        assert max_abs_second_derivative("mu3") == pytest.approx(9.8, abs=1e-9)
        assert MU_FUNCTIONS["mu1"].nominal_curvature_bound == 2.0
        assert MU_FUNCTIONS["mu2"].nominal_curvature_bound == 233.26
        assert MU_FUNCTIONS["mu3"].nominal_curvature_bound == 16.2

    @pytest.mark.parametrize("name", ["mu1", "mu2", "mu3"])
    def test_finite_difference_matches_analytic_second_derivative(self, name):
        step = 1e-4
        x = np.arange(-1 + step, 1 - step, step)
        exclusions = set(MU_FUNCTIONS[name].knots) | {0.0}
        keep = np.ones_like(x, dtype=bool)
        for point in exclusions:
            keep &= np.abs(x - point) > 2.5 * step
        x = x[keep]
        fd = (eval_mu(name, x + step) - 2 * eval_mu(name, x) + eval_mu(name, x - step)) / step**2
        analytic = mu_second_derivative(name, x)
        np.testing.assert_allclose(fd, analytic, atol=1e-4, rtol=1e-4)


class TestGenerateDataset:
    def test_support_and_determinism(self):
        a = generate_dataset("rv1", "mu1", 500, np.random.default_rng(3))
        assert np.all((a.x >= -1) & (a.x <= 1))
        b = generate_dataset("rv1", "mu1", 500, np.random.default_rng(3))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_density_split_matches_population(self):
        sample = generate_dataset("rv2", "mu2", 1_000_000, np.random.default_rng(9))
        frac_above = float(np.mean(sample.x >= 0))
        expected = 1 - beta_cdf(RV_SPECS["rv2"].untransformed(), 0.5)
        assert expected == pytest.approx(0.1875, abs=1e-12)
        assert frac_above == pytest.approx(expected, abs=0.002)


class TestStudySizes:
    def test_resolves_reference_grid(self):
        assert [resolve_study_size("rv1", m) for m in (10, 21, 27, 44, 57)] == [
            40, 101, 140, 256, 354,
        ]
        assert [resolve_study_size("rv2", m) for m in (10, 21, 27, 44, 57)] == [
            56, 140, 194, 354, 490,
        ]
        assert [resolve_study_size("rv3", m) for m in (10, 21, 27, 44, 57)] == [
            140, 354, 494, 905, 1254,
        ]


class TestCellSpecValidation:
    def test_unknown_method_reports_path(self):
        with pytest.raises(SpecValidationError, match=r"methods\[1\]"):
            validate_cell_spec(
                {"rv": "rv2", "mu": "mu2", "m_bar": 10, "methods": ["ik/cv", "zz"]}
            )

    def test_unknown_field(self):
        with pytest.raises(SpecValidationError, match="bogus"):
            validate_cell_spec({"rv": "rv2", "mu": "mu2", "m_bar": 10, "bogus": 1})

    def test_requires_rv_mu_and_size(self):
        with pytest.raises(SpecValidationError, match="rv"):
            validate_cell_spec({"mu": "mu2", "m_bar": 10})
        with pytest.raises(SpecValidationError, match="m_bar"):
            validate_cell_spec({"rv": "rv2", "mu": "mu2"})

    @pytest.mark.parametrize("field, value, parsed", [
        ("replications", 2.7, None),
        ("n", 30.9, None),
        ("replications", True, None),
        ("seed", False, None),
        ("workers", "2", None),
        ("workers", float("nan"), None),
        ("lr_min", float("inf"), None),
        ("m_bar", True, None),
        ("m_bar", float("inf"), None),
        ("m_bar", 0.5, None),
        ("rv", "rv9", None),
        ("mu", "mu0", None),
        ("n", 0, None),
        ("replications", 0, None),
        ("seed", -1, None),
        ("alpha", 1.0, None),
        ("lr_min", 0, None),
        ("m_bound", -1.0, None),
        ("workers", 0, None),
        ("replications", 3.0, 3),
        ("n", 30, 30),
        ("seed", 0, 0),
        ("m_bar", 10.5, 10.5),
        ("m_bar", 10, 10.0),
    ])
    def test_numeric_fields_take_numbers_and_int_fields_whole_ones(self, field, value, parsed):
        # each row goes through the JSON path and, as the value itself (a
        # rejected one) or as its parsed value (an accepted one), through a
        # CellSpec built in Python; both must agree
        spec = {"rv": "rv2", "mu": "mu2", "n": 40, field: value}
        if parsed is None:
            with pytest.raises(SpecValidationError, match=rf"^{field}: ") as from_json:
                validate_cell_spec(spec)
            with pytest.raises(SpecValidationError) as direct:
                CellSpec(**spec)
            assert str(direct.value) == str(from_json.value)
        else:
            for cell in (validate_cell_spec(spec), CellSpec(**{**spec, field: parsed})):
                got = getattr(cell, field)
                assert got == parsed and type(got) is type(parsed)

    @pytest.mark.parametrize("field", ["max_exact", "n_mc", "grid_points"])
    def test_local_randomization_settings_are_unknown_fields(self, field, tmp_path, capsys):
        # lr's assignment budget and grid are fixed; a spec that sets one is
        # refused rather than run with a value it does not use
        spec = {"rv": "rv2", "mu": "mu2", "n": 40, "replications": 2, field: 99}
        with pytest.raises(SpecValidationError, match=rf"^{field}: unknown field$"):
            validate_cell_spec(spec)
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["simulate", "--spec", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {field}: unknown field\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_python_cellspec_requires_a_size(self):
        with pytest.raises(SpecValidationError, match="^m_bar: either m_bar or n is required$"):
            CellSpec(rv="rv2", mu="mu2")

    def test_lr_alias(self):
        cell = validate_cell_spec(
            {"rv": "rv1", "mu": "mu1", "n": 50, "methods": ["lr"], "lr_min": 4}
        )
        assert cell.methods == ("lr4",)


def _small_cell(**overrides):
    base = dict(rv="rv2", mu="mu2", n=70, replications=24, seed=11,
                methods=("ik/cv", "ak/cv", "ak/rbc", "lr"), workers=1)
    base.update(overrides)
    return CellSpec(**base)


class TestRunCell:
    def test_parallelism_does_not_change_results(self):
        serial = run_cell(_small_cell(workers=1))
        parallel = run_cell(_small_cell(workers=2))
        assert not multiprocessing.active_children()  # the pool is joined
        assert serial.to_json_dict() == parallel.to_json_dict()
        # record-level comparison through the CSV writer (NaN-safe)
        assert replications_csv(serial) == replications_csv(parallel)

    def test_mse_decomposition_identity(self):
        result = run_cell(_small_cell(replications=60))
        for method_result in result.per_method.values():
            if method_result.r_common < 2:
                continue
            r = method_result.r_common
            expected = (
                method_result.bias**2
                + method_result.emp_se**2 * (r - 1) / r
            )
            assert method_result.mse == pytest.approx(expected, rel=1e-10)

    def test_rates_live_in_unit_interval(self):
        result = run_cell(_small_cell())
        for method_result in result.per_method.values():
            assert 0.0 <= method_result.bw_success_rate <= 1.0
            assert 0.0 <= method_result.interval_success_rate <= 1.0
            if method_result.r_common >= 2:
                assert 0.0 <= method_result.coverage <= 1.0

    def test_akm_uses_user_bound(self):
        result = run_cell(_small_cell(methods=("akm/cv",), m_bound=5.0))
        assert result.config["resolved_m_bound"] == 5.0
        assert result.per_method["akm/cv"].interval_success_rate > 0

    def test_failures_are_data_not_errors(self):
        # n = 12 forces frequent fit failures; the cell must still aggregate
        result = run_cell(_small_cell(n=12, replications=30))
        assert result.per_method["ik/cv"].interval_success_rate < 1.0
        counts = result.per_method["ik/cv"].failure_counts
        assert sum(counts.values()) == round(
            30 * (1 - result.per_method["ik/cv"].interval_success_rate)
        )


_REPLICATE = simulation._replicate


def _failing_replicate(cell, n, plan, rep):
    # forked workers see the patched module, so only the first chunk fails
    if rep == 0:
        raise RuntimeError("replication 0 failed")
    return _REPLICATE(cell, n, plan, rep)


def test_a_failing_chunk_leaves_no_worker_behind(monkeypatch):
    cell = _small_cell(workers=2)
    monkeypatch.setattr(simulation, "_replicate", _failing_replicate)
    with pytest.raises(RuntimeError, match="replication 0 failed"):
        run_cell(cell)
    # the worker that ran the other chunk is joined too, so the next pool
    # forks with no thread or worker of the old one alive
    assert not multiprocessing.active_children()
    monkeypatch.undo()
    serial = run_cell(dataclasses.replace(cell, workers=1))
    assert replications_csv(run_cell(cell)) == replications_csv(serial)


def test_an_interrupted_cell_drops_its_queued_chunks(monkeypatch, tmp_path):
    log = tmp_path / "reps.log"

    def logged_replicate(cell, n, plan, rep):
        with log.open("a") as fh:
            fh.write(f"{rep}\n")
        return _REPLICATE(cell, n, plan, rep)

    def interrupted(self, timeout=None):
        raise KeyboardInterrupt

    cell = _small_cell(workers=2, replications=200)
    monkeypatch.setattr(simulation, "_replicate", logged_replicate)
    # Ctrl-C while the parent waits for its first chunk
    monkeypatch.setattr(concurrent.futures.Future, "result", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cell(cell)
    assert not multiprocessing.active_children()
    ran = log.read_text().split() if log.exists() else []
    assert len(ran) < cell.replications


def test_mcse_formulas_match_closed_forms():
    # the estimators behind the reported Monte Carlo standard errors
    rng = np.random.default_rng(77)
    r = 4000
    draws = rng.normal(0.3, 0.2, r)
    bias_mcse = np.std(draws, ddof=1) / np.sqrt(r)
    assert bias_mcse == pytest.approx(0.2 / np.sqrt(r), rel=0.05)
    hits = rng.random(r) < 0.9
    p_hat = hits.mean()
    cov_mcse = np.sqrt(p_hat * (1 - p_hat) / r)
    assert cov_mcse == pytest.approx(np.sqrt(0.9 * 0.1 / r), rel=0.05)
