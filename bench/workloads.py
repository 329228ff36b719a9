"""Workloads of the rdsmall benchmark.

Each workload makes its inputs from a seed, runs one operation at a time in
a closed loop (one caller, one process), checks every output, and
fingerprints the output of a pinned, seed-independent input.  The toolkit is
driven only through public functions, looked up on their modules at call
time so that the tracer's wrappers take effect.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses any other copy of ``rdsmall``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import rdsmall  # noqa: E402
import rdsmall.cli  # noqa: E402
import rdsmall.simulation  # noqa: E402

if Path(rdsmall.__file__).resolve().parent != ROOT / "src" / "rdsmall":
    raise ImportError(f"rdsmall imported from {rdsmall.__file__}, not from {ROOT / 'src'}")

PINNED_SEED = 20240808
CONTINUITY = ("ik/cv", "ik/rbc", "ik/flci", "ak/cv", "ak/rbc", "ak/flci")
LR_MIN = 5
INDIANA = "tests/data/indiana_synth.csv"  # relative to ROOT, so reports name it the same everywhere

# Span names (see tracing.py) of the layers each kind of operation enters.
# A traced run in which one of its workload's layers records no span is
# incorrect: the tracer missed a binding, and the layer would read as free.
ESTIMATION = (
    "local_poly.nn_variance", "local_poly.local_poly_fit", "bandwidth.estimate_m_hat",
    "bandwidth.ik_bandwidth", "bandwidth.ak_bandwidth", "inference.cv_interval",
    "inference.rbc_interval", "inference.flci_interval",
)
CELL = ("simulation.run_cell", "simulation.write_cell_outputs")
REPLICATION = ("simulation.generate_dataset",) + ESTIMATION
LR = ("local_randomization.lr_interval",)


@dataclasses.dataclass
class Checked:
    """What the checks found in one operation's output."""

    outcomes: int = 0  # method outcomes attempted
    method_failures: int = 0  # of which the method reported a failure
    bad_units: int = 0  # replications or calls that failed a check
    problems: list = dataclasses.field(default_factory=list)


def _canonical(methods) -> list[str]:
    return [f"lr{LR_MIN}" if m == "lr" else m for m in methods]


def _interval_problem(tau: float, lo: float, hi: float) -> str | None:
    if not all(math.isfinite(v) for v in (tau, lo, hi)):
        return f"non-finite interval ({lo}, {tau}, {hi})"
    if not lo <= tau <= hi:
        return f"tau_hat {tau} outside [{lo}, {hi}]"
    return None


def check_replications(text: str, reps: int, methods: list[str]) -> Checked:
    """One outcome per (replication, method); successes finite and ordered."""
    out = Checked()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["rep", "method", "bw", "success", "tau_hat", "ci_lo",
                               "ci_hi", "width", "covered"]:
        out.bad_units = reps
        out.problems.append("replication CSV header")
        return out
    seen: dict[int, list[str]] = {rep: [] for rep in range(reps)}
    bad: set[int] = set()
    for row in rows[1:]:
        rep = int(row[0])
        if rep not in seen:
            out.problems.append(f"unexpected replication {rep}")
            continue
        seen[rep].append(row[1])
        out.outcomes += 1
        if row[3] == "0":
            out.method_failures += 1
            continue
        problem = _interval_problem(float(row[4]), float(row[5]), float(row[6]))
        if problem:
            bad.add(rep)
            out.problems.append(f"rep {rep} {row[1]}: {problem}")
    for rep, got in seen.items():
        if sorted(got) != sorted(methods):
            bad.add(rep)
            out.problems.append(f"rep {rep}: outcomes {got}, expected one per {methods}")
    out.bad_units = len(bad)
    return out


def check_analyze(code: int, text: str, methods: list[str]) -> Checked:
    """Exit code 0 and one row per method; successes finite and ordered."""
    out = Checked()
    try:
        rows = json.loads(text)["results"] if code == 0 else None
    except (ValueError, KeyError):
        rows = None
    if rows is None:
        out.bad_units = 1
        out.problems.append(f"analyze exit code {code} or unreadable report")
        return out
    if sorted(r["method"] for r in rows) != sorted(methods):
        out.problems.append(f"analyze rows {[r['method'] for r in rows]}, expected {methods}")
    for r in rows:
        out.outcomes += 1
        if not r["success"]:
            out.method_failures += 1
            continue
        problem = _interval_problem(r["tau_hat"], r["ci_lower"], r["ci_upper"])
        if problem:
            out.problems.append(f"{r['method']}: {problem}")
    out.bad_units = int(bool(out.problems))
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv_fingerprints(text: str) -> dict:
    rows = text.splitlines(keepends=True)[1:]
    lr = [r for r in rows if r.split(",", 2)[1].startswith("lr")]
    continuity = [r for r in rows if not r.split(",", 2)[1].startswith("lr")]
    return {"continuity_csv_sha256": _sha256("".join(continuity)),
            "lr_csv_sha256": _sha256("".join(lr))}


@dataclasses.dataclass(frozen=True)
class McWorkload:
    """Cells of ``run_cell`` plus ``write_cell_outputs``; one unit is one replication."""

    name: str
    rv: str
    mu: str
    m_bars: tuple
    methods: tuple
    workers: int
    reps: int  # replications per cell
    pinned_m_bar: int
    pinned_reps: int
    layers: tuple  # span names every traced cell enters
    unit = "rep"
    # Called once per replication; calibration samples are taken inside it.
    sampled = (rdsmall.simulation.generate_dataset,)
    counted_ops = 3  # traced cells whose counters are kept; covers each m_bar once

    def inputs(self, seed: int, reps: int | None = None):
        rng = random.Random(f"{self.name}:{seed}")
        for j in itertools.count():
            yield rdsmall.simulation.CellSpec(
                rv=self.rv, mu=self.mu, m_bar=self.m_bars[j % len(self.m_bars)],
                replications=reps or self.reps, seed=rng.getrandbits(32),
                methods=self.methods, workers=self.workers,
            )

    def run(self, cell, outdir: Path | None = None):
        """Run one cell; returns (seconds, replications, (JSON path, CSV path))."""
        outdir = outdir or OUT / "cells" / self.name
        start = perf_counter()
        result = rdsmall.simulation.run_cell(cell)
        paths = rdsmall.simulation.write_cell_outputs(result, outdir)
        return perf_counter() - start, cell.replications, paths

    def check(self, cell, paths) -> Checked:
        return check_replications(paths[1].read_text(encoding="utf-8"), cell.replications,
                                  _canonical(self.methods))

    def warm_up(self, seed: int) -> None:
        """One replication, or the fewest that still start the worker pool."""
        cell = next(self.inputs(seed))
        self.run(dataclasses.replace(cell, replications=1 if self.workers == 1 else 2 * self.workers))

    def fingerprint(self) -> tuple[dict, Checked]:
        """Fingerprints of a pinned cell; a pooled run must match a serial one byte for byte."""
        cell = rdsmall.simulation.CellSpec(
            rv=self.rv, mu=self.mu, m_bar=self.pinned_m_bar, replications=self.pinned_reps,
            seed=PINNED_SEED, methods=self.methods, workers=1,
        )
        _, _, serial = self.run(cell, OUT / "pinned" / self.name / "w1")
        text = serial[1].read_text(encoding="utf-8")
        checked = check_replications(text, cell.replications, _canonical(self.methods))
        if self.workers > 1:
            pooled_cell = dataclasses.replace(cell, workers=self.workers)
            _, _, pooled = self.run(pooled_cell, OUT / "pinned" / self.name / f"w{self.workers}")
            for a, b in zip(serial, pooled):
                if a.read_bytes() != b.read_bytes():
                    checked.problems.append(
                        f"{b.name} differs between workers=1 and workers={self.workers}")
        return _csv_fingerprints(text), checked


@dataclasses.dataclass(frozen=True)
class AnalyzeWorkload:
    """In-process ``rdsmall analyze`` calls on one CSV; one unit is one call."""

    name: str
    argv: tuple
    methods: tuple
    layers: tuple  # span names every traced call enters
    unit = "call"
    workers = 1
    sampled = ()  # a call is short; the sample after it is enough
    counted_ops = 10

    def inputs(self, seed: int, reps: int | None = None):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield [*self.argv, "--seed", str(rng.getrandbits(31))]

    def run(self, argv):
        """Run one call; returns (seconds, 1, (exit code, stdout text))."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            code = rdsmall.cli.main(argv)
            seconds = perf_counter() - start
        return seconds, 1, (code, stdout.getvalue())

    def check(self, argv, output) -> Checked:
        return check_analyze(*output, _canonical(self.methods))

    def warm_up(self, seed: int) -> None:
        self.run(next(self.inputs(seed)))

    def fingerprint(self) -> tuple[dict, Checked]:
        """sha256 of the report for ``--seed 0``, without its ``version``."""
        _, _, (code, text) = self.run([*self.argv, "--seed", "0"])
        checked = check_analyze(code, text, _canonical(self.methods))
        report = json.loads(text) if code == 0 else {}
        report.pop("version", None)
        return {"report_sha256": _sha256(json.dumps(report, indent=2, sort_keys=True) + "\n")}, checked


PAPER_M_BARS = (10, 27, 57)
# Replications per cell: the pinned cells of the repository's roadmap are
# 200 replications at workers=1 and 2, so per-cell costs (pool start-up,
# aggregation, writing outputs) weigh as much as they do there.
CELL_REPS = 200

# BENCHMARK.json records why each workload was chosen.
WORKLOADS = {
    w.name: w
    for w in (
        McWorkload(
            name="mc_paper_cell",
            rv="rv2", mu="mu2", m_bars=PAPER_M_BARS, methods=CONTINUITY + ("lr",),
            workers=1, reps=CELL_REPS, pinned_m_bar=10, pinned_reps=90,
            layers=CELL + REPLICATION + LR,
        ),
        McWorkload(
            name="mc_large_n_continuity",
            rv="rv3", mu="mu1", m_bars=(57,), methods=CONTINUITY,
            workers=1, reps=CELL_REPS, pinned_m_bar=57, pinned_reps=10,
            layers=CELL + REPLICATION,
        ),
        AnalyzeWorkload(
            name="analyze_indiana",
            argv=("analyze", "--input", INDIANA, "--x-col", "score_2017",
                  "--y-col", "score_2018", "--cutoff", "60"),
            methods=CONTINUITY + ("lr",),
            layers=("cli.cmd_analyze", "cli.read_xy_csv", "local_randomization.select_window")
            + ESTIMATION + LR,
        ),
        McWorkload(
            name="mc_pool",
            rv="rv2", mu="mu2", m_bars=PAPER_M_BARS, methods=CONTINUITY + ("lr",),
            workers=2, reps=CELL_REPS, pinned_m_bar=10, pinned_reps=90,
            layers=CELL,  # the replications run in the worker processes
        ),
    )
}
