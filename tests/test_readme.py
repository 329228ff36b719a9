"""The README's examples run against the package as it is."""

import json
import re
from pathlib import Path

import pytest

import rdsmall as rs
from rdsmall.cli import read_xy_csv
from rdsmall.errors import InsufficientDataError
from rdsmall.simulation import CellSpec, validate_cell_spec

ROOT = Path(__file__).resolve().parent.parent


def _block(section: str, language: str) -> str:
    """The first ```<language> block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n{section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_library_example_runs_on_the_fixture():
    scores_2017, scores_2018, _ = read_xy_csv(
        ROOT / "tests" / "data" / "indiana_synth.csv", "score_2017", "score_2018")
    names = {"scores_2017": scores_2017, "scores_2018": scores_2018}
    exec(_block("## Library", "python"), names)
    assert names["ik"].ok and names["ak"].ok
    for interval in ("cv", "rbc", "fl", "lr"):
        est = names[interval]
        assert isinstance(est, rs.EffectEstimate)
        assert est.ci_lower <= est.tau_hat <= est.ci_upper, interval


def test_library_example_stops_at_ik_with_a_tagged_error():
    # no score below the cutoff lies in ik's variance pilot window: ik_bandwidth
    # used to return h=None, which BoundaryFits.build met with a TypeError
    names = {"scores_2017": [40, 41, 42, 43, 44, 60.1, 60.2, 60.3, 60.4, 60.5],
             "scores_2018": [1, 2, 1, 3, 2, 4, 5, 4, 6, 5]}
    with pytest.raises(InsufficientDataError) as info:
        exec(_block("## Library", "python"), names)
    assert info.value.reason == "pilot_variance"
    assert "sigma2" in names and "ik" not in names  # the ik line raised


def test_cell_spec_example_is_a_valid_spec():
    # the block's // comments are not JSON
    raw = json.loads(re.sub(r"//.*", "", _block("### Simulation cell spec", "json")))
    validate_cell_spec(raw)
    # it shows every field but n, which m_bar's comment names
    assert set(raw) | {"n"} == set(CellSpec.__dataclass_fields__)
