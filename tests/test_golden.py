"""Golden bytes of both front ends.

The hashes pin the replication CSV and the cell JSON of two small cells and
the ``analyze`` report on the shipped fixture.  The ``version`` key is
removed before hashing, so a version bump alone does not move them.  A
change that alters one of these outputs on purpose re-records only that
hash and says why.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from rdsmall.cli import main
from rdsmall.simulation import CellSpec, run_cell, write_cell_outputs

DATA_DIR = Path(__file__).parent / "data"

ALL_CONTINUITY = ("ik/cv", "ik/rbc", "ik/flci", "ak/cv", "ak/rbc", "ak/flci",
                  "akm/cv", "akm/rbc", "akm/flci")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _without_version(text: str) -> str:
    report = json.loads(text)
    report.pop("version")
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


CELLS = {
    # n=12: most replications fail somewhere (empty side, nn_variance, m_hat,
    # the ik pilot stages, rbc's quadratic) and lr runs on capped windows
    "n12_every_method": (
        CellSpec(rv="rv2", mu="mu2", n=12, replications=60, seed=1,
                 methods=ALL_CONTINUITY + ("lr",)),
        "e79bc7aa47a51d27e7887ab70a6564ece22c45b40e4203e809937c7ef6e2db15",
        "cdf27cc938d6dda7e65dab48b848b92e97fb50460807dfc8cd175fa8e90783f9",
    ),
    "rv2_mu2_mbar10_defaults": (
        CellSpec(rv="rv2", mu="mu2", m_bar=10, replications=30, seed=11),
        "295fe735cdd687399ae78281e3473e43ae86e4a0ffcc3dd9de988a46835679b6",
        "96b0b741e693535213d9654c87bb443fce55909a83c8c4243d7fbede182fd11d",
    ),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_outputs(name, tmp_path):
    cell, csv_sha, json_sha = CELLS[name]
    json_path, csv_path = write_cell_outputs(run_cell(cell), tmp_path)
    assert _sha256(csv_path.read_text(encoding="utf-8")) == csv_sha
    assert _sha256(_without_version(json_path.read_text(encoding="utf-8"))) == json_sha


def test_pooled_cell_writes_the_serial_bytes(tmp_path):
    # the cell's failure reasons (empty_side, pilot_variance,
    # pilot_curvature_*, ...) cross the process pool on the errors' reason
    cell, csv_sha, json_sha = CELLS["n12_every_method"]
    json_path, csv_path = write_cell_outputs(
        run_cell(dataclasses.replace(cell, workers=2)), tmp_path)
    assert _sha256(csv_path.read_text(encoding="utf-8")) == csv_sha
    assert _sha256(_without_version(json_path.read_text(encoding="utf-8"))) == json_sha


INDIANA = ["analyze", "--input", str(DATA_DIR / "indiana_synth.csv"),
           "--x-col", "score_2017", "--y-col", "score_2018", "--cutoff", "60"]

REPORTS = {
    "defaults": (
        [],
        "8dc3770bc7d87c9766049ef93c4e8769de38e8c58f71583e58f2166a59491483",
    ),
    "bound_lr1_subset": (
        ["--m-bound", "2", "--lr-min", "1", "--methods", "ik/flci,ak/cv,akm/rbc,lr"],
        "ccb4cf3bdb493463c896ef93afac72b71939d95121799664bd996513ca4d2314",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_analyze_report(name, capsys):
    extra, sha = REPORTS[name]
    assert main(INDIANA + extra) == 0
    report = json.loads(capsys.readouterr().out)
    # the input path is absolute and differs between checkouts
    report["config"]["input"] = "indiana_synth.csv"
    assert _sha256(_without_version(json.dumps(report))) == sha
