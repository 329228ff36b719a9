import json
import math

import pytest

from compare import NOISE_SD, compare, main

_HEADER = "rep,method,bw,success,tau_hat,ci_lo,ci_hi,width,covered\n"
_ROWS = [
    "0,ik/cv,0.25,1,0.125,0.0625,0.1875,0.125,1\n",
    "0,lr,0.5,1,0.5,0.25,0.75,0.5,0\n",
    "1,ik/cv,,0,,,,,\n",
    "1,lr,0.5,1,0.0,-0.25,0.25,0.5,1\n",
]


def _write(path, rows):
    path.write_text(_HEADER + "".join(rows), encoding="utf-8")
    return str(path)


def test_equal_files_show_no_change(tmp_path):
    old, new = _write(tmp_path / "old.csv", _ROWS), _write(tmp_path / "new.csv", _ROWS)
    summary = compare(old, new)
    assert summary["kind"] == "replications" and summary["rows"] == 4
    assert summary["changed"] == [] and summary["flips"] == [] and summary["move"] == 0.0
    assert main([old, new]) == 0


def test_a_one_ulp_move_is_measured_against_the_noise_sd(tmp_path, capsys):
    moved = list(_ROWS)
    moved[1] = f"0,lr,0.5,1,{math.nextafter(0.5, 1)!r},0.25,0.75,0.5,0\n"
    old, new = _write(tmp_path / "old.csv", _ROWS), _write(tmp_path / "new.csv", moved)
    summary = compare(old, new)
    assert summary["changed"] == [] and summary["flips"] == []
    assert summary["move"] == math.ulp(0.5) / NOISE_SD
    assert "(1 ulp)" in summary["largest"]["tau_hat"][1]
    assert main([old, new]) == 1  # over the default budget of no move
    assert "over budget: move" in capsys.readouterr().out
    assert main([old, new, "--move", "1e-15"]) == 0


def test_a_flipped_flag_is_a_changed_row(tmp_path):
    failed = list(_ROWS)
    failed[3] = "1,lr,0.5,0,,,,,\n"
    old, new = _write(tmp_path / "old.csv", _ROWS), _write(tmp_path / "new.csv", failed)
    summary = compare(old, new)
    assert len(summary["changed"]) == 1 and "(1, 'lr')" in summary["changed"][0]
    assert summary["flips"] == [] and summary["move"] == 0.0
    assert main([old, new]) == 1
    assert main([old, new, "--rows", "1"]) == 0


def test_a_covered_flip_names_the_endpoint_that_crossed_tau(tmp_path):
    shifted = list(_ROWS)
    shifted[0] = "0,ik/cv,0.25,1,0.1875,0.125,0.25,0.125,0\n"
    summary = compare(_write(tmp_path / "old.csv", _ROWS), _write(tmp_path / "new.csv", shifted))
    assert summary["changed"] == []
    [flip] = summary["flips"]
    assert flip.startswith("(0, 'ik/cv'): covered 1 -> 0, ci_lo - tau")


@pytest.mark.parametrize("rows", [[_ROWS[1], _ROWS[0], *_ROWS[2:]], _ROWS[:3]])
def test_a_reordered_or_missing_row_is_an_error(tmp_path, rows, capsys):
    old, new = _write(tmp_path / "old.csv", _ROWS), _write(tmp_path / "new.csv", rows)
    assert main([old, new]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_reports_compare_by_method_with_their_reasons(tmp_path):
    row = {"method": "lr5", "success": True, "bandwidth_or_window": 2.0, "tau_hat": 1.0,
           "se": None, "ci_lower": -1.0, "ci_upper": 3.0, "reason": None}
    failed = dict(row, success=False, tau_hat=None, ci_lower=None, ci_upper=None,
                  reason="InsufficientDataError: too few")
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"results": [row]}), encoding="utf-8")
    new.write_text(json.dumps({"results": [failed]}), encoding="utf-8")
    summary = compare(old, new)
    assert summary["kind"] == "report" and len(summary["changed"]) == 1
    assert summary["scales"]["bw"] == 2.0 and summary["scales"]["tau_hat"] == 3.0
    assert "InsufficientDataError" in summary["changed"][0]
