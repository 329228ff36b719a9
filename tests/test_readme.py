"""The README's examples run against the package as it is."""

import re
from pathlib import Path

import rdsmall as rs
from rdsmall.cli import read_xy_csv

ROOT = Path(__file__).resolve().parent.parent


def _python_block(section: str) -> str:
    """The first ```python block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n{section}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_example_runs_on_the_fixture():
    scores_2017, scores_2018, _ = read_xy_csv(
        ROOT / "tests" / "data" / "indiana_synth.csv", "score_2017", "score_2018")
    names = {"scores_2017": scores_2017, "scores_2018": scores_2018}
    exec(_python_block("## Library"), names)
    assert names["ik"].ok and names["ak"].ok
    for interval in ("cv", "rbc", "fl", "lr"):
        est = names[interval]
        assert isinstance(est, rs.EffectEstimate)
        assert est.ci_lower <= est.tau_hat <= est.ci_upper, interval
