import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        assert text.splitlines()[0] == (
            "version,config.input,config.x_col,config.y_col,config.cutoff,config.strict,"
            "n,n_below,h_rot,m,dropped_rows")


def _reference_read_xy_csv(path, x_col, y_col, strict=False):
    """The reader through one ``csv.DictReader`` dict per row;
    ``read_xy_csv`` must give the same arrays, counts and errors."""
    path = Path(path)
    try:
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
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    except csv.Error as err:
        raise ParseError(f"{path}: {err}") from None
    if not xs:
        raise ParseError(f"{path}: no usable data rows")
    return np.array(xs), np.array(ys), dropped


def _clean_rows(n, bad_at=None, bad="bad,5"):
    rows = [f"{0.37 * i - 180:.2f},{(i * 7919) % 1000 / 10}" for i in range(n)]
    if bad_at is not None:
        rows[bad_at] = bad
    return "x,y\n" + "\n".join(rows) + "\n"


# a few of these differ between numpy's C reader and the row loop, so a
# body holding them must reach the loop
_READER_CASES = {
    "plain": "x,y\n1,2\n3,4\n",
    "single_row": "x,y\n1,2\n",
    "byte_order_mark": "\ufeffx,y\n1,2\n3,4\n",
    "blank_lines": "x,y\n\n1,2\n\n\n3,4\nbad,5\n\n",
    "only_blank_lines": "x,y\n\n\r\n\r\n",
    "crlf_and_blank": "x,y\r\n1,2\r\n\r\n3,oops\r\n5,6\r\n",
    "carriage_returns": "x,y\r1,2\r3,4\r",
    "short_rows": "x,y\n1,2\n3\n\n4,5\n",
    "long_rows": "x,y\n1,2,3,4\n5,6,\n7,8\n",
    "repeated_name": "x,y,x\n1,2,3\n4,5\n7,8,9,10\n",
    "repeated_name_clean": "x,y,x\n1,2,3\n4,5,6\n",
    "repeated_name_short_first": "x,x,y\n1,2,3\n4,5\n",
    "empty_first_line": "\nx,y\n1,2\n",
    "header_only": "x,y\n",
    "empty_file": "",
    "missing_column": "a,y\n1,2\n",
    "whitespace": "x,y\n 1 , 2\n\t3,4 \n  ,5\n6,7\n",
    "whitespace_only_line": "x,y\n1,2\n \n3,4\n",
    "form_feed_and_nul_lines": "x,y\n1,2\n\x0c\n\x00\n3,4\n",
    # numpy strips U+001C-U+001F around a number; float() does not
    "separator_before_number": "x,y\n\x1c1,3\n5,6\n",
    "separators_after_numbers": "x,y\n1\x1d,3\x1e\n5,6\x1f\n",
    "separator_in_header": "x\x1c,y\n1,2\n",
    "non_ascii_digits": "x,y\n\uff11,2\n\u0661\u0662,3\n4,5\n",
    "nbsp_and_ideographic_space": "x,y\n\xa01\u3000,2\n3,\u30004\xa0\n",
    "next_line_and_line_separator": "x,y\n\x851,2\u2028\n3,4\n",
    "non_finite": "x,y\nnan,1\n1,inf\n-Infinity,2\n3,4\nNaN,NaN\n",
    "overflow_underflow_signed_zero": "x,y\n1e400,1\n1e-400,2\n-0,3\n4,-0.0\n",
    "underflow_and_signed_zero_only": "x,y\n1e-400,2\n-0,3\n4,-0.0\n",
    "underscores_and_exponents": "x,y\n1_000,1e3\n_1,2\n1__0,3\n3,4\n2E-2,1_0.5\n",
    "quoted_commas": 'x,y\n"1,5",2\n"3",4\n5,"6"\n',
    "quoted_clean": 'x,y\n"1",2\n"3","4"\n',
    "quote_then_digit": 'x,y\n"1"2,3\n',
    "quote_then_space": 'x,y\n"1" ,2\n',
    "quoted_newlines": 'x,y\n"1\n",2\n"3\n4",5\n6,7\n',
    "unterminated_quote": 'x,y\n1,2\n"3,4\n',
    "all_rows_bad": "x,y\n,\na,b\n",
    "clean_1000": _clean_rows(1000),
    "clean_1000_bad_first": _clean_rows(1000, 0),
    "clean_1000_bad_middle": _clean_rows(1000, 500, "1,nan"),
    "clean_1000_bad_last": _clean_rows(1000, 999, "7"),
    # csv refuses a field over its size limit; numpy has none
    "oversized_finite_field": "x,y\n1,2\n" + "0" * 200_000 + ",1\n",
    "oversized_unused_field": 'x,y,z\n1,2,"' + "a," * 70_000 + '"\n',
    # over 8 KiB: the bad row is read before the chunk holding the bad byte
    "bad_row_2_then_bad_byte": (b"x,y\nbad,1\n" + _clean_rows(800)[4:].encode()
                                + b"\xff,3\n"),
    # numpy reads nan, so it reaches the bad byte; the loop stops at row 2
    "nan_row_2_then_bad_byte": (b"x,y\nnan,1\n" + _clean_rows(800)[4:].encode()
                                + b"\xff,3\n"),
}


def _reader_outcome(read, path, strict, x_col="x", y_col="y"):
    try:
        x, y, dropped = read(path, x_col, y_col, strict)
    except (ParseError, MissingColumnError) as err:
        return type(err), str(err)
    return x.dtype, x.tobytes(), y.dtype, y.tobytes(), dropped


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_reader_matches_the_dict_reader_reference(tmp_path, case, strict):
    content = _READER_CASES[case]
    path = tmp_path / "in.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    assert (_reader_outcome(read_xy_csv, path, strict)
            == _reader_outcome(_reference_read_xy_csv, path, strict))


_CSV_TOKENS = [*"0123456789.eE+-_", ",", '"', " ", "\t", "\r", "\n", "\x0b", "\x0c",
               "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
               "\uff11", "nan", "inf"]
_noise = st.lists(st.sampled_from(_CSV_TOKENS), max_size=4).map("".join)
_pad = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
                        "\u3000"])
_number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str),
                    st.sampled_from(["-0", "1e400", "1e-400", "5e-324", ".5", "1.",
                                     "1_0", "\uff11", "nan", "inf"]))
_value = st.one_of(_number, st.tuples(_pad, _number, _pad).map("".join),
                   _number.map('"{}"'.format))


def _rows(field):
    line_end = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n"])
    row = st.builds(lambda fields, end: ",".join(fields) + end,
                    st.lists(field, min_size=1, max_size=3), line_end)
    return st.lists(row, max_size=6).map("".join)


# rows of numbers, often clean enough to reach numpy whole; rows with noise
# fields; and free text over the alphabet
_body = st.one_of(_rows(_value), _rows(_value | _noise),
                  st.lists(st.sampled_from(_CSV_TOKENS), max_size=30).map("".join))


@pytest.mark.parametrize("strict", [False, True])
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=_body)
def test_reader_matches_the_reference_on_generated_text(tmp_path, strict, body):
    # each example overwrites the one file.  Warnings are errors in the body
    # only: under the mark, hypothesis's failure report itself trips one
    path = tmp_path / "in.csv"
    path.write_bytes(("x,y\n" + body).encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _reader_outcome(read_xy_csv, path, strict)
    assert got == _reader_outcome(_reference_read_xy_csv, path, strict)


def test_a_clean_file_is_read_without_the_row_loop(monkeypatch):
    path = DATA_DIR / "indiana_synth.csv"
    columns = ("score_2017", "score_2018")
    want = _reader_outcome(_reference_read_xy_csv, path, False, *columns)
    csv_reader = csv.reader

    class HeaderOnlyReader:  # the header, then a failure on the next row
        def __init__(self, fh):
            self.rows = csv_reader(fh)

        def __iter__(self):
            return self

        def __next__(self):
            if self.rows.line_num:
                raise AssertionError("the row loop read a clean file")
            return next(self.rows)

        @property
        def line_num(self):
            return self.rows.line_num

    monkeypatch.setattr(csv, "reader", HeaderOnlyReader)
    assert _reader_outcome(read_xy_csv, path, False, *columns) == want
    assert want[-1] == 0 and len(want[1]) == 8 * 1933


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

    def test_cells_that_differ_past_six_digits_write_their_own_files(self, tmp_path, capsys):
        # m_bar 27 (n 194) and 27.000001 (n 189) both used to write rv2_mu2_mbar27.*
        out = tmp_path / "run"
        for i, m_bar in enumerate((27, 27.000001)):
            spec = {"rv": "rv2", "mu": "mu2", "m_bar": m_bar, "replications": 2,
                    "methods": ["ik/cv"]}
            path = tmp_path / f"cell{i}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            assert _run(capsys, ["simulate", "--spec", str(path), "--out", str(out)])[0] == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "rv2_mu2_mbar27.000001.json", "rv2_mu2_mbar27.000001_replications.csv",
            "rv2_mu2_mbar27.json", "rv2_mu2_mbar27_replications.csv",
        ]

    @pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
    def test_simulate_takes_exactly_one_of_spec_and_table1(self, tmp_path, capsys, both):
        # with both, the table used to print and the spec was ignored
        argv = ["simulate", *(["--spec", str(self._spec(tmp_path)), "--table1"] if both else [])]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")
        assert "--spec" in captured.err and "--table1" in captured.err

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
    # the console script; only the harness's Beta draws load scipy's compiled
    # special functions, without scipy.special's package and its array-API
    # layer. np.percentile and np.unique import numpy.ma (~15 ms), and the
    # process pool multiprocessing, socket and subprocess (~20 ms): only a
    # pooled cell loads the pool
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
def assert_ufuncs_only():
    assert "scipy.special._ufuncs" in sys.modules
    assert "scipy.special" not in sys.modules and "scipy._lib._array_api" not in sys.modules
rdsmall.simulation.generate_dataset("rv2", "mu2", 20, np.random.default_rng(0))
assert_ufuncs_only()
rdsmall.simulation.design_table()
assert_ufuncs_only()
cell = rdsmall.simulation.CellSpec(rv="rv2", mu="mu2", m_bar=10, replications=4, workers=2)
rdsmall.simulation.run_cell(cell)
assert "concurrent.futures.process" in sys.modules
assert_ufuncs_only()
"""
    env = {**os.environ, "PYTHONPATH": str(Path(rdsmall.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("command", ["analyze", "diss"])
def test_report_config_is_every_option_of_the_command(command, capsys):
    # a new option is reported without a list of keys to update
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest for a in sub.choices[command]._actions} - {"help", "out", "format"}
    code, out, _ = _run(capsys, [
        command, "--input", str(DATA_DIR / "indiana_synth.csv"), "--x-col", "score_2017",
        "--y-col", "score_2018", "--cutoff", "60",
    ])
    assert code == 0
    assert set(json.loads(out)["config"]) == options


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
