"""Smoke test of the benchmark: every workload at tiny size, in both trace modes.

    python3 -m pytest bench/test_smoke.py -q

Takes about a minute.  It checks the output contract and that every metric
of the benchmark's definition is reported with its unit; it makes no claim
about speed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOADS = ("mc_paper_cell", "mc_large_n_continuity", "analyze_indiana", "mc_pool")

END_TO_END = {
    "reps_per_s": "1/s",
    "analyze_ms_p50": "ms",
    "analyze_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "simulation.generate_dataset.ms": "ms/op",
    "simulation.run_cell.ms": "ms/op",
    "simulation.run_cell.self_ms": "ms/op",
    "simulation.write_cell_outputs.ms": "ms/op",
    "local_poly.nn_variance.ms": "ms/op",
    "local_poly.local_poly_fit.ms": "ms/op",
    "local_poly.local_poly_fit.calls": "calls/op",
    "local_poly.local_poly_fit.distinct_share": "share",
    "bandwidth.estimate_m_hat.ms": "ms/op",
    "bandwidth.ik_bandwidth.ms": "ms/op",
    "bandwidth.ak_bandwidth.ms": "ms/op",
    "bandwidth.ak_bandwidth.grid_edge_share": "share",
    "inference.cv_interval.ms": "ms/op",
    "inference.rbc_interval.ms": "ms/op",
    "inference.flci_interval.ms": "ms/op",
    "inference.rbc_interval.bias_expand_share": "share",
    "local_randomization.lr_interval.ms": "ms/op",
    "local_randomization.lr_interval.exact_share": "share",
    "local_randomization.lr_interval.assignments": "assignments/op",
    "local_randomization.select_window.ms": "ms/op",
    "cli.read_xy_csv.ms": "ms/op",
    "cli.cmd_analyze.self_ms": "ms/op",
    "method_fail_share": "share",
    "trace.overhead_share": "share",
}
ENV_KEYS = {"nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "src_sha256", "seed"}


def smoke_run(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(done) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_defines_the_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    detail, result = parse(smoke_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert ENV_KEYS <= set(detail["env"])
    assert detail["fingerprints"]


def test_counts_repeat_at_one_seed():
    first, _ = parse(smoke_run("mc_paper_cell", 1, seed=7))
    second, _ = parse(smoke_run("mc_paper_cell", 1, seed=7))
    assert first["counts"] == second["counts"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = smoke_run("mc_paper_cell", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
