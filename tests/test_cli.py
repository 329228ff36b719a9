import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rdsmall
from rdsmall.cli import _parser, main, read_xy_csv
from rdsmall.errors import MissingColumnError, ParseError

DATA_DIR = Path(__file__).parent / "data"


def _write_csv(path, rows, header="x,y"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    _write_csv(path, ["-2,1.0", "-1,1.1", "0,1.2", "1,1.3", "2,1.4"])
    return path


class TestDissCommand:
    def test_toy_report(self, tmp_path, capsys):
        path = _toy_csv(tmp_path)
        code, out, _ = _run(capsys, [
            "diss", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 5
        assert report["n_below"] == 2
        assert report["h_rot"] == pytest.approx(0.9736, abs=5e-4)
        assert report["m"] == 1
        assert report["version"]
        assert report["config"]["cutoff"] == 0.0

    def test_shipped_accountability_fixture(self, capsys):
        code, out, _ = _run(capsys, [
            "diss", "--input", str(DATA_DIR / "indiana_synth.csv"),
            "--x-col", "score_2017", "--y-col", "score_2018", "--cutoff", "60",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 1933
        assert report["n_below"] == 88
        assert report["h_rot"] == pytest.approx(2.1441706279293955, rel=1e-12)
        assert report["m"] == 46

    def test_empty_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        code, _, err = _run(capsys, [
            "diss", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0",
        ])
        assert code == 2
        assert "header" in err

    def test_missing_column(self, tmp_path, capsys):
        path = _toy_csv(tmp_path)
        code, _, err = _run(capsys, [
            "diss", "--input", str(path), "--x-col", "score", "--y-col", "y",
            "--cutoff", "0",
        ])
        assert code == 2
        assert "score" in err

    def test_bad_rows_dropped_with_count_or_strict_error(self, tmp_path, capsys):
        path = tmp_path / "gaps.csv"
        _write_csv(path, ["-2,1.0", "-1,", "0,1.2", "oops,3", "1,1.3", "2,1.4"])
        code, out, _ = _run(capsys, [
            "diss", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 4
        assert report["dropped_rows"] == 2
        code, _, err = _run(capsys, [
            "diss", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--strict",
        ])
        assert code == 2
        assert "row 3" in err

    def test_non_finite_rows_dropped_with_count_or_strict_error(self, tmp_path, capsys):
        path = tmp_path / "nonfinite.csv"
        _write_csv(path, ["-2,1.0", "nan,1.1", "-1,inf", "0,1.2", "1,-inf", "-INF,2",
                          "2,1.4"])
        argv = ["diss", "--input", str(path), "--x-col", "x", "--y-col", "y",
                "--cutoff", "0"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 3
        assert report["dropped_rows"] == 4
        code, _, err = _run(capsys, argv + ["--strict"])
        assert code == 2
        assert "row 3" in err and "'nan'" in err

    @pytest.mark.parametrize("cutoff", ["nan", "inf"])
    def test_nonfinite_cutoff_is_an_error(self, tmp_path, capsys, cutoff):
        code, out, err = _run(capsys, [
            "diss", "--input", str(_toy_csv(tmp_path)), "--x-col", "x", "--y-col", "y",
            "--cutoff", cutoff,
        ])
        assert (code, out, err) == (2, "", "error: cutoff is not finite\n")

    def test_csv_format_output(self, tmp_path, capsys):
        path = _toy_csv(tmp_path)
        out_path = tmp_path / "report.csv"
        code, _, _ = _run(capsys, [
            "diss", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--format", "csv", "--out", str(out_path),
        ])
        assert code == 0
        text = out_path.read_text()
        assert "n_below" in text.splitlines()[0]


def _reference_read_xy_csv(path, x_col, y_col, strict=False):
    """The reader through one ``csv.DictReader`` dict per row;
    ``read_xy_csv`` must give the same arrays, counts and errors."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file (header row required)")
        for col in (x_col, y_col):
            if col not in reader.fieldnames:
                raise MissingColumnError(
                    f"{path}: column {col!r} not found; available: {reader.fieldnames}"
                )
        xs, ys, dropped = [], [], 0
        for row_number, row in enumerate(reader, start=2):
            raw_x, raw_y = row.get(x_col), row.get(y_col)
            try:
                x = float(raw_x)
                y = float(raw_y)
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError
            except (TypeError, ValueError):
                if strict:
                    raise ParseError(
                        f"{path}: row {row_number}: non-numeric or missing "
                        f"value ({x_col}={raw_x!r}, {y_col}={raw_y!r})"
                    )
                dropped += 1
                continue
            xs.append(x)
            ys.append(y)
    if not xs:
        raise ParseError(f"{path}: no usable data rows")
    return np.array(xs), np.array(ys), dropped


_READER_CASES = {
    "plain": "x,y\n1,2\n3,4\n",
    "byte_order_mark": "\ufeffx,y\n1,2\n3,4\n",
    "blank_lines": "x,y\n\n1,2\n\n\n3,4\nbad,5\n\n",
    "crlf_and_blank": "x,y\r\n1,2\r\n\r\n3,oops\r\n5,6\r\n",
    "short_rows": "x,y\n1,2\n3\n\n4,5\n",
    "long_rows": "x,y\n1,2,3,4\n5,6,\n7,8\n",
    "repeated_name": "x,y,x\n1,2,3\n4,5\n7,8,9,10\n",
    "repeated_name_short_first": "x,x,y\n1,2,3\n4,5\n",
    "empty_first_line": "\nx,y\n1,2\n",
    "header_only": "x,y\n",
    "empty_file": "",
    "missing_column": "a,y\n1,2\n",
    "whitespace": "x,y\n 1 , 2\n\t3,4 \n  ,5\n6,7\n",
    "non_finite": "x,y\nnan,1\n1,inf\n-Infinity,2\n3,4\nNaN,NaN\n",
    "underscores_and_exponents": "x,y\n1_000,1e3\n_1,2\n1__0,3\n3,4\n2E-2,1_0.5\n",
    "quoted_commas": 'x,y\n"1,5",2\n"3",4\n5,"6"\n',
    "quoted_newlines": 'x,y\n"1\n",2\n"3\n4",5\n6,7\n',
    "all_rows_bad": "x,y\n,\na,b\n",
}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_reader_matches_the_dict_reader_reference(tmp_path, case, strict):
    path = tmp_path / "in.csv"
    path.write_bytes(_READER_CASES[case].encode("utf-8"))

    def outcome(read):
        try:
            x, y, dropped = read(path, "x", "y", strict)
        except (ParseError, MissingColumnError) as err:
            return type(err), str(err)
        return x.dtype, x.tobytes(), y.dtype, y.tobytes(), dropped

    assert outcome(read_xy_csv) == outcome(_reference_read_xy_csv)


@pytest.mark.parametrize("command", ["diss", "analyze"])
@pytest.mark.parametrize("content", [None, b"x,y\n1,2\n\xff,3\n",
                                     b'x,y\n"' + b"1" * 200_000 + b'",2\n'],
                         ids=["directory", "not_utf8", "oversized_field"])
def test_unreadable_input_is_an_error_not_a_crash(tmp_path, capsys, command, content):
    path = tmp_path / "in.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = _run(capsys, [
        command, "--input", str(path), "--x-col", "x", "--y-col", "y", "--cutoff", "0",
    ])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def _analysis_csv(tmp_path, noise=0.01, seed=5, n=80):
    rng = np.random.default_rng(seed)
    x = np.concatenate([-rng.uniform(0.02, 1.0, n // 2),
                        rng.uniform(0.0, 1.0, n // 2)])
    y = 1.0 + 0.3 * x + 0.1 * (x >= 0) + noise * rng.standard_normal(x.size)
    path = tmp_path / "linear.csv"
    _write_csv(path, [f"{xi},{yi}" for xi, yi in zip(x, y)])
    return path


class TestAnalyzeCommand:
    def test_recovers_jump_with_every_method(self, tmp_path, capsys):
        path = _analysis_csv(tmp_path)
        code, out, _ = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--seed", "3",
        ])
        assert code == 0
        report = json.loads(out)
        rows = {row["method"]: row for row in report["results"]}
        assert set(rows) == {
            "ik/cv", "ik/rbc", "ik/flci", "ak/cv", "ak/rbc", "ak/flci", "lr5",
        }
        for name, row in rows.items():
            if not row["success"]:
                continue
            tol = 0.06 if name != "lr5" else 0.12
            assert row["tau_hat"] == pytest.approx(0.1, abs=tol), name
        # the treated side is x >= cutoff, so the jump enters positively
        assert rows["ik/cv"]["success"] and rows["ik/cv"]["tau_hat"] > 0
        assert report["config"]["alpha"] == 0.10

    def test_zero_noise_flat_fixture_is_exact_for_lr(self, tmp_path, capsys):
        x = np.array([-0.3, -0.25, -0.2, -0.15, -0.1, -0.05,
                      0.02, 0.07, 0.12, 0.17, 0.22, 0.27])
        path = tmp_path / "flat.csv"
        _write_csv(path, [f"{xi},{1.0 + 0.1 * (xi >= 0)}" for xi in x])
        code, out, _ = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--methods", "lr", "--lr-min", "5",
        ])
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["success"]
        assert row["tau_hat"] == pytest.approx(0.1, abs=1e-12)
        assert row["ci_lower"] == pytest.approx(0.1, abs=1e-12)
        assert row["ci_upper"] == pytest.approx(0.1, abs=1e-12)

    def test_lr_failure_is_a_row_not_an_error(self, tmp_path, capsys):
        # four below-cutoff schools, all close to the cutoff: the plug-in
        # pipeline runs, the randomization window cannot
        x_below = [-0.30, -0.22, -0.15, -0.08]
        rng = np.random.default_rng(2)
        x_above = rng.uniform(0.0, 1.0, 24).tolist()
        y = [1.0 + 0.3 * xi + 0.1 * (xi >= 0) + 0.01 * rng.standard_normal()
             for xi in x_below + x_above]
        path = tmp_path / "sparse.csv"
        _write_csv(path, [f"{xi},{yi}" for xi, yi in zip(x_below + x_above, y)])
        code, out, _ = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--methods", "ik/cv,lr", "--lr-min", "5",
        ])
        assert code == 0
        rows = {row["method"]: row for row in json.loads(out)["results"]}
        assert rows["ik/cv"]["success"]
        assert not rows["lr5"]["success"]
        assert "InsufficientData" in rows["lr5"]["reason"]

    def test_lr_window_of_one_per_side_is_a_failure_row(self, tmp_path, capsys):
        # --lr-min 1 on symmetric scores: a 1+1 window leaves the pooled SD
        # without degrees of freedom, which is a failure, not a zero-width
        # interval
        x = [-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4]
        path = tmp_path / "pairs.csv"
        _write_csv(path, [f"{xi},{0.5 * xi + (xi >= 0) + 0.1 * (i % 3)}"
                          for i, xi in enumerate(x)])
        code, out, _ = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--methods", "lr", "--lr-min", "1",
        ])
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["method"] == "lr1"
        assert not row["success"]
        assert "InsufficientData" in row["reason"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_responses_are_failure_rows(self, tmp_path, capsys):
        # finite responses whose squares overflow: the SEs and lr's pooled
        # variance are inf or NaN, which used to escape as a ValueError; each
        # overflow is a NonFiniteError row, and none prints a numpy warning
        y = [3, -1, 2, -3, 1, 2, -2, 4, -1, 3]
        x = [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]
        path = tmp_path / "huge.csv"
        _write_csv(path, [f"{xi},{yi}e200" for xi, yi in zip(x, y)])
        methods = "ik/cv,ik/rbc,ik/flci,ak/cv,ak/rbc,ak/flci,akm/cv,akm/rbc,akm/flci,lr"
        for bound in ([], ["--m-bound", "2.0"]):
            code, out, err = _run(capsys, [
                "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
                "--cutoff", "0", "--methods", methods, *bound,
            ])
            assert code == 0 and err == ""
            rows = {row["method"]: row for row in json.loads(out)["results"]}
            assert all(not row["success"] and row["reason"] for row in rows.values())
            # akm/* without a bound fail for the missing bound
            overflowed = [m for m in rows if bound or not m.startswith("akm/")]
            assert all(rows[m]["reason"].startswith("NonFiniteError: ") for m in overflowed)
        assert all(rows[m]["bandwidth_or_window"] is None for m in rows if m != "lr5")

    @pytest.mark.filterwarnings("error")
    def test_huge_scores_are_failure_rows(self, tmp_path, capsys):
        # scores of order 1e307: ik divided by a density pilot f_hat * m3^2
        # that underflowed to 0, and a ZeroDivisionError escaped the run
        y = [3, -1, 2, -3, 1, 2, -2, 4, -1, 3]
        x = [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]
        path = tmp_path / "wide.csv"
        _write_csv(path, [f"{xi}e307,{yi}" for xi, yi in zip(x, y)])
        code, out, err = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y", "--cutoff", "0",
        ])
        assert code == 0 and err == ""
        rows = {row["method"]: row for row in json.loads(out)["results"]}
        assert len(rows) == 7
        assert rows["ik/cv"]["reason"].startswith("NonFiniteError: ik curvature pilot below")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("methods", [[], ["--methods", "ik/flci,ak/rbc,akm/cv,lr",
                                              "--m-bound", "2.0"]])
    def test_one_sided_sample_fails_every_method_quietly(self, tmp_path, capsys, methods):
        path = tmp_path / "above.csv"
        _write_csv(path, [f"{0.05 * i},{1.0 + 0.02 * i + 0.01 * (i % 3)}" for i in range(30)])
        code, out, err = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", *methods,
        ])
        assert code == 0 and err == ""
        rows = json.loads(out)["results"]
        assert len(rows) == (len(methods[1].split(",")) if methods else 7)
        assert all(not row["success"] and row["reason"] for row in rows)

    def test_akm_requires_bound(self, tmp_path, capsys):
        path = _analysis_csv(tmp_path)
        code, out, _ = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--methods", "akm/cv",
        ])
        assert code == 0
        row = json.loads(out)["results"][0]
        assert not row["success"] and "m-bound" in row["reason"]
        code, out, _ = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--methods", "akm/cv", "--m-bound", "2.0",
        ])
        assert code == 0
        assert json.loads(out)["results"][0]["success"]

    def test_unknown_method_rejected(self, tmp_path, capsys):
        path = _analysis_csv(tmp_path)
        code, _, err = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--methods", "ik/banana",
        ])
        assert code == 2
        assert "banana" in err

    def test_csv_format_lists_method_rows(self, tmp_path, capsys):
        path = _analysis_csv(tmp_path)
        code, out, _ = _run(capsys, [
            "analyze", "--input", str(path), "--x-col", "x", "--y-col", "y",
            "--cutoff", "0", "--format", "csv", "--methods", "ik/cv,ak/cv",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 3


class TestSimulateCommand:
    def _spec(self, tmp_path, **overrides):
        spec = {
            "rv": "rv2", "mu": "mu2", "n": 60, "replications": 10, "seed": 7,
            "methods": ["ik/cv", "lr"], "workers": 1,
        }
        spec.update(overrides)
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_byte_identical_reruns(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        for out_dir in ("run1", "run2"):
            code, _, _ = _run(capsys, [
                "simulate", "--spec", str(spec), "--out", str(tmp_path / out_dir),
            ])
            assert code == 0
        for name in ("rv2_mu2_n60.json", "rv2_mu2_n60_replications.csv"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b

    def test_replication_csv_round_trips_to_aggregates(self, tmp_path, capsys):
        spec = self._spec(tmp_path, replications=16)
        code, _, _ = _run(capsys, [
            "simulate", "--spec", str(spec), "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        result = json.loads((tmp_path / "run" / "rv2_mu2_n60.json").read_text())
        lines = (tmp_path / "run" / "rv2_mu2_n60_replications.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        ik = [r for r in rows if r["method"] == "ik/cv" and r["success"] == "1"]
        assert len(ik) / 16 == pytest.approx(
            result["methods"]["ik/cv"]["interval_success_rate"]
        )
        lr_ok = [r for r in rows if r["method"] == "lr5" and r["success"] == "1"]
        common = {r["rep"] for r in ik} & {r["rep"] for r in lr_ok}
        taus = [float(r["tau_hat"]) for r in ik if r["rep"] in common]
        assert np.mean(taus) - 0.1 == pytest.approx(
            result["methods"]["ik/cv"]["bias"], rel=1e-9, abs=1e-12
        )

    def test_spec_validation_failure_exit_code(self, tmp_path, capsys):
        spec = self._spec(tmp_path, methods=["ik/cv", "nope"])
        code, _, err = _run(capsys, ["simulate", "--spec", str(spec)])
        assert code == 2
        assert "methods[1]" in err

    @pytest.mark.parametrize("content", [None, b"\xff{}"], ids=["directory", "not_utf8"])
    def test_unreadable_spec_is_an_error_not_a_crash(self, tmp_path, capsys, content):
        spec = tmp_path / "cell.json"
        if content is None:
            spec.mkdir()
        else:
            spec.write_bytes(content)
        code, out, err = _run(capsys, ["simulate", "--spec", str(spec)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(spec) in err

    def test_table1_helper_emits_design_grid(self, tmp_path, capsys):
        code, out, _ = _run(capsys, ["simulate", "--table1"])
        assert code == 0
        design = json.loads(out)["design"]
        assert len(design) == 15
        lookup = {(r["rv"], r["m_bar"]): r for r in design}
        assert lookup[("rv1", 10)]["n"] == 40
        assert lookup[("rv1", 10)]["h_rot"] == 0.124
        assert lookup[("rv2", 44)]["n"] == 354
        assert lookup[("rv3", 57)]["n"] == 1254
        assert lookup[("rv3", 10)]["h_rot"] == 0.034


def test_analyze_and_diss_load_no_scipy():
    # the fit's LAPACK call, the normal CDF and quantile and the root-find are
    # numpy or ported: scipy cost 327 modules and ~0.3 s at every start of
    # the console script; only the harness's Beta draws import scipy.special.
    # np.percentile and np.unique import numpy.ma (~15 ms), and the process
    # pool multiprocessing, socket and subprocess (~20 ms): only a pooled
    # cell loads the pool
    data = DATA_DIR / "indiana_synth.csv"
    code = f"""
import contextlib, io, sys
import numpy as np
import rdsmall, rdsmall.cli, rdsmall.simulation
io_args = ["--input", {str(data)!r}, "--x-col", "score_2017", "--y-col", "score_2018",
           "--cutoff", "60"]
with contextlib.redirect_stdout(io.StringIO()):
    assert rdsmall.cli.main(["analyze", *io_args]) == 0
    assert rdsmall.cli.main(["diss", *io_args]) == 0
unwanted = ("scipy", "numpy.ma", "concurrent.futures.process", "multiprocessing")
loaded = sorted(m for m in sys.modules if m.startswith(tuple(p + "." for p in unwanted))
                or m in unwanted)
assert not loaded, loaded
rdsmall.simulation.generate_dataset("rv2", "mu2", 20, np.random.default_rng(0))
assert "scipy.special" in sys.modules
cell = rdsmall.simulation.CellSpec(rv="rv2", mu="mu2", m_bar=10, replications=4, workers=2)
rdsmall.simulation.run_cell(cell)
assert "concurrent.futures.process" in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": str(Path(rdsmall.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_one_parser_serves_every_call(capsys):
    # main builds its parser once per process; a parsed call, a parse error
    # and the next call must not leave anything on it for the call after
    assert _parser() is _parser()
    argv = ["analyze", "--input", str(DATA_DIR / "indiana_synth.csv"), "--x-col",
            "score_2017", "--y-col", "score_2018", "--cutoff", "60", "--seed", "4"]
    first = _run(capsys, argv)
    assert first[0] == 0 and json.loads(first[1])["n"] == 1933
    assert _run(capsys, argv) == first
    with pytest.raises(SystemExit) as exit_info:
        main([a for a in argv if a not in ("--cutoff", "60")])
    assert exit_info.value.code == 2
    assert "--cutoff" in capsys.readouterr().err
    assert _run(capsys, argv) == first
