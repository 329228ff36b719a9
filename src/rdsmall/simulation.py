"""Monte Carlo evaluation harness.

Data generating processes are the nine combinations of three Beta running
variables (mapped to [-1, 1], cutoff 0) and three mean functions with a 0.1
jump at the cutoff; responses add N(0, 0.1295^2) noise.  Study sizes are
expressed through the population DISS m_bar rather than raw n.

Per-replication randomness comes from a stream derived from (master seed,
cell id, replication index), so results are bit-identical regardless of how
replications are scheduled across workers; method failures are recorded as
outcomes, never raised.  Point and interval operating characteristics are
summarized on the subset of replications where every method in the cell
produced a finite interval, mirroring how mixed-success methods must be
compared.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import zlib
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ._version import __version__
from .bandwidth import CurvatureBound, silverman_rot_population
from .core import RDSample
from .diss import BetaSpec, beta_quantile, beta_sigma_star, n_for_target_diss
from .engine import Outcome, Plan, estimate, parse_methods
from .errors import OutOfSupportError, SpecValidationError

NOISE_SD = 0.1295
TRUE_TAU = 0.1
CUTOFF = 0.0

RV_SPECS: dict[str, BetaSpec] = {
    "rv1": BetaSpec(1, 1, scale=2.0, shift=-1.0),
    "rv2": BetaSpec(2, 4, scale=2.0, shift=-1.0),
    "rv3": BetaSpec(14, 7, scale=2.0, shift=-1.0),
}

M_BAR_GRID = (10, 21, 27, 44, 57)

DEFAULT_METHODS = ("ik/cv", "ik/rbc", "ik/flci", "ak/cv", "ak/rbc", "ak/flci", "lr")

# Replications per pooled task, at most: small tasks keep every worker busy
# to the end of a cell, and an interrupted cell waits for one task per worker.
_POOL_CHUNK = 25


# ---------------------------------------------------------------------------
# Mean functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanFunction:
    """One of the three simulated mean functions (jump 0.1 at x = 0)."""

    name: str
    nominal_curvature_bound: float


MU_FUNCTIONS: dict[str, MeanFunction] = {
    "mu1": MeanFunction("mu1", nominal_curvature_bound=2.0),
    "mu2": MeanFunction("mu2", nominal_curvature_bound=233.26),
    "mu3": MeanFunction("mu3", nominal_curvature_bound=16.2),
}


def _plus_sq(x):
    return np.maximum(x, 0.0) ** 2


def _mu1(x):
    return (
        (x + 1.0) ** 2
        - 2.0 * _plus_sq(x + 0.2)
        + 2.0 * _plus_sq(x - 0.2)
        - 2.0 * _plus_sq(x - 0.4)
        + 2.0 * _plus_sq(x - 0.7)
        - 0.92
        + 0.1 * (x >= 0)
    )


def _mu2(x):
    return (
        0.42 + 0.84 * x - 3.0 * x**2 + 7.99 * x**3 - 9.01 * x**4 + 3.56 * x**5
        + 0.1 * (x >= 0)
    )


def _mu3(x):
    below = 0.05 + 1.5 * x + 3.2 * x**2 + 2.7 * x**3
    above = 0.15 - 0.15 * x + 2.5 * x**2 - 1.5 * x**3
    return np.where(x < 0, below, above)


_MU_EVAL = {"mu1": _mu1, "mu2": _mu2, "mu3": _mu3}


def eval_mu(name: str, x):
    """Evaluate a mean function; support is [-1, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any((x < -1.0) | (x > 1.0)):
        raise OutOfSupportError(f"{name} is defined on [-1, 1]")
    out = _MU_EVAL[name](x)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------


def generate_dataset(rv: str, mu: str, n: int, rng: np.random.Generator) -> RDSample:
    """Draw one simulated sample: inverse-CDF Beta scores, normal noise.

    Scores come from the Beta quantile function applied to uniforms (rather
    than a rejection sampler) so the draw is reproducible across platforms
    for a pinned seed; the uniform vector is drawn before the noise vector.
    """
    spec = RV_SPECS[rv]
    x = beta_quantile(spec, rng.random(n))
    y = eval_mu(mu, x) + NOISE_SD * rng.standard_normal(n)
    return RDSample(x=x, y=y, cutoff=CUTOFF)


def resolve_study_size(rv: str, m_bar: float) -> int:
    """Sample size achieving a population DISS target, on the Beta scale."""
    spec_z = RV_SPECS[rv].untransformed()
    sigma_star = beta_sigma_star(spec_z)
    return n_for_target_diss(spec_z, 0.5, sigma_star, m_bar)


def design_table() -> list[dict]:
    """The full study-size grid: n and rule-of-thumb bandwidth per (rv, m_bar)."""
    rows = []
    for rv in RV_SPECS:
        spec_z = RV_SPECS[rv].untransformed()
        sigma_star = beta_sigma_star(spec_z)
        for m_bar in M_BAR_GRID:
            n = resolve_study_size(rv, m_bar)
            rows.append(
                {
                    "rv": rv,
                    "m_bar": m_bar,
                    "n": n,
                    "h_rot": round(silverman_rot_population(1.34 * sigma_star, sigma_star, n), 3),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Cell specification
# ---------------------------------------------------------------------------


# The type and range of each numeric or named CellSpec field: (type, check,
# what is required).  m_bar, n and m_bound may also be None.
_FIELD_RULES = {
    "rv": (str, lambda v: v in RV_SPECS, f"one of {sorted(RV_SPECS)}"),
    "mu": (str, lambda v: v in MU_FUNCTIONS, f"one of {sorted(MU_FUNCTIONS)}"),
    "m_bar": (float, lambda v: 1 <= v < math.inf, "finite >= 1 required"),
    "n": (int, lambda v: v >= 1, ">= 1 required"),
    "replications": (int, lambda v: v >= 1, ">= 1 required"),
    "seed": (int, lambda v: v >= 0, ">= 0 required"),
    "alpha": (float, lambda v: 0 < v < 1, "in (0, 1) required"),
    "lr_min": (int, lambda v: v >= 1, ">= 1 required"),
    "m_bound": (float, lambda v: v > 0, "> 0 required"),
    "workers": (int, lambda v: v >= 1, ">= 1 required"),
}
_OPTIONAL_FIELDS = ("m_bar", "n", "m_bound")


def _is_a(value, type_) -> bool:
    """A bool is not a number, and an int field takes integers only."""
    if type_ is str:
        return isinstance(value, str)
    wanted = numbers.Integral if type_ is int else numbers.Real
    return isinstance(value, wanted) and not isinstance(value, bool)


@dataclass(frozen=True)
class CellSpec:
    """One simulation cell: a DGP, a study size, methods, and run controls.

    Construction checks each field's type and range, raising
    SpecValidationError that names the field, and parses ``methods`` with
    ``engine.parse_methods``, so it holds canonical ids.  ``m_bound``
    replaces the design's curvature bound as the bound of the akm/* methods.
    Local randomization always runs with ``lr_interval``'s defaults.
    """

    rv: str
    mu: str
    m_bar: float | None = None
    n: int | None = None
    replications: int = 2000
    seed: int = 0
    methods: tuple[str, ...] = DEFAULT_METHODS
    alpha: float = 0.05
    lr_min: int = 5
    m_bound: float | None = None
    workers: int = 1

    def __post_init__(self):
        for key, (type_, check, desc) in _FIELD_RULES.items():
            value = getattr(self, key)
            if value is None and key in _OPTIONAL_FIELDS:
                continue
            if not _is_a(value, type_):
                raise SpecValidationError(f"{key}: expected {type_.__name__}, got {value!r}")
            if not check(value):
                raise SpecValidationError(f"{key}: {desc}, got {value!r}")
        if self.m_bar is None and self.n is None:
            raise SpecValidationError("m_bar: either m_bar or n is required")
        object.__setattr__(self, "methods", parse_methods(self.methods, self.lr_min))

    def cell_id(self) -> str:
        size = f"mbar{self.m_bar:g}" if self.m_bar is not None else f"n{self.n}"
        return f"{self.rv}_{self.mu}_{size}"


def validate_cell_spec(raw: dict) -> CellSpec:
    """Build a CellSpec from a JSON-style dict, reporting the failing field.

    The dict's rules live here: its shape, its known fields, and JSON's
    number types (a whole float such as 3.0 fills an int field, an integer
    fills a float field as a float).  ``CellSpec`` checks the types and
    ranges that follow.
    """
    if not isinstance(raw, dict):
        raise SpecValidationError("spec: expected a JSON object")
    known = set(CellSpec.__dataclass_fields__)
    for key in raw:
        if key not in known:
            raise SpecValidationError(f"{key}: unknown field")
    for key in ("rv", "mu"):
        if raw.get(key) is None:
            raise SpecValidationError(f"{key}: required")

    fields = dict(raw)
    for key, value in raw.items():
        type_ = _FIELD_RULES[key][0] if key in _FIELD_RULES else None
        whole = _is_a(value, float) and float(value).is_integer()
        if type_ is str or (type_ is float and _is_a(value, float)) or (type_ is int and whole):
            fields[key] = type_(value)
    return CellSpec(**fields)


# ---------------------------------------------------------------------------
# Replications
# ---------------------------------------------------------------------------


def _rep_rng(cell: CellSpec, n: int, rep: int) -> np.random.Generator:
    key = zlib.crc32(cell.cell_id().encode("ascii"))
    return np.random.default_rng(np.random.SeedSequence([cell.seed, key, n, rep]))


def _replicate(cell: CellSpec, n: int, plan: Plan, rep: int) -> dict[str, Outcome]:
    rng = _rep_rng(cell, n, rep)
    return estimate(generate_dataset(cell.rv, cell.mu, n, rng), plan, rng)


def _run_chunk(cell: CellSpec, n: int, plan: Plan, lo: int, hi: int):
    return [_replicate(cell, n, plan, rep) for rep in range(lo, hi)]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

_FAIL = float("nan")


@dataclass(frozen=True)
class SimCellResult:
    """Operating characteristics of one method in one cell.

    Point and interval metrics are computed on the common-success subset
    (replications where every method in the cell produced a finite
    interval); success rates use all replications.  ``mcse`` carries Monte
    Carlo standard errors: EmpSE/sqrt(R) for bias, sqrt(p(1-p)/R) for
    coverage, sd of squared errors over sqrt(R) for MSE.
    """

    dgp: str
    m_bar: float | None
    n: int
    method: str
    r_total: int
    r_common: int
    bw_success_rate: float
    interval_success_rate: float
    median_bandwidth: float
    bias: float
    emp_se: float
    mse: float
    coverage: float
    median_width: float
    median_grid_step: float
    mcse: dict
    failure_counts: dict


@dataclass(frozen=True)
class CellResult:
    """A cell's aggregates and its ``rows``, one ``{method: Outcome}`` per
    replication in replication order; ``cell_id`` names its output files."""

    cell_id: str
    config: dict
    per_method: dict[str, SimCellResult]
    rows: list[dict[str, Outcome]]

    def to_json_dict(self) -> dict:
        return {
            "version": __version__,
            "config": self.config,
            "methods": {m: asdict(r) for m, r in self.per_method.items()},
        }


def _aggregate(cell: CellSpec, n: int, true_m: float,
               rows: list[dict[str, Outcome]]) -> CellResult:
    methods = cell.methods
    r_total = len(rows)

    ok = {m: np.array([row[m].ok for row in rows]) for m in methods}
    common = np.logical_and.reduce([ok[m] for m in methods])
    r_common = int(common.sum())

    per_method = {}
    for m in methods:
        bw = np.array([row[m].bw for row in rows])
        bw_ok = ~np.isnan(bw)
        tau = np.array([row[m].tau for row in rows])
        lo = np.array([row[m].lo for row in rows])
        hi = np.array([row[m].hi for row in rows])

        reasons = Counter(row[m].reason for row in rows if not row[m].ok)

        steps = np.array([row[m].grid_step for row in rows])[common]
        steps = steps[np.isfinite(steps)]
        median_grid_step = float(np.median(steps)) if steps.size else _FAIL

        tau_c, lo_c, hi_c = tau[common], lo[common], hi[common]
        if r_common >= 2:
            bias = float(np.mean(tau_c) - TRUE_TAU)
            emp_se = float(np.std(tau_c, ddof=1))
            sq_err = (tau_c - TRUE_TAU) ** 2
            mse = float(np.mean(sq_err))
            coverage = float(np.mean((lo_c <= TRUE_TAU) & (TRUE_TAU <= hi_c)))
            median_width = float(np.median(hi_c - lo_c))
            mcse = {
                "bias": emp_se / math.sqrt(r_common),
                "coverage": math.sqrt(coverage * (1 - coverage) / r_common),
                "mse": float(np.std(sq_err, ddof=1)) / math.sqrt(r_common),
            }
        else:
            bias = emp_se = mse = coverage = median_width = _FAIL
            mcse = {"bias": _FAIL, "coverage": _FAIL, "mse": _FAIL}

        per_method[m] = SimCellResult(
            dgp=f"{cell.rv}{cell.mu}",
            m_bar=cell.m_bar,
            n=n,
            method=m,
            r_total=r_total,
            r_common=r_common,
            bw_success_rate=float(np.mean(bw_ok)),
            interval_success_rate=float(np.mean(ok[m])),
            median_bandwidth=float(np.median(bw[bw_ok])) if bw_ok.any() else _FAIL,
            bias=bias,
            emp_se=emp_se,
            mse=mse,
            coverage=coverage,
            median_width=median_width,
            median_grid_step=median_grid_step,
            mcse=mcse,
            failure_counts=dict(sorted(reasons.items())),
        )

    config = asdict(cell)
    # scheduling detail, not part of the result's identity: files must be
    # byte-identical across parallelism degrees
    del config["workers"]
    config["resolved_n"] = n
    config["resolved_m_bound"] = true_m
    config["true_tau"] = TRUE_TAU
    return CellResult(cell.cell_id(), config, per_method, rows)


def run_cell(cell: CellSpec) -> CellResult:
    """Run all replications of a cell and aggregate operating characteristics.

    Replication streams are independent of scheduling, so any ``workers``
    setting produces identical results.  A pool reads its chunks in order
    through ``Executor.map``: when a chunk fails or the caller is
    interrupted, the map cancels the chunks still queued, and the ``with``
    block joins the workers.
    """
    n = cell.n if cell.n is not None else resolve_study_size(cell.rv, cell.m_bar)
    true_m = (
        cell.m_bound
        if cell.m_bound is not None
        else MU_FUNCTIONS[cell.mu].nominal_curvature_bound
    )
    plan = Plan(
        methods=cell.methods, alpha=cell.alpha, lr_min=cell.lr_min, window="capped",
        akm_bound=CurvatureBound(true_m),
    )
    r = cell.replications
    if cell.workers <= 1 or r < 2 * cell.workers:
        rows = _run_chunk(cell, n, plan, 0, r)
    else:
        # the process-pool stack (multiprocessing, logging, socket, ...) costs
        # ~20 ms to import; serial cells and ``analyze`` never load it
        from concurrent.futures import ProcessPoolExecutor
        size = min(_POOL_CHUNK, math.ceil(r / cell.workers))
        starts = range(0, r, size)
        with ProcessPoolExecutor(max_workers=cell.workers) as pool:
            chunks = pool.map(partial(_run_chunk, cell, n, plan), starts,
                              [min(lo + size, r) for lo in starts])
            rows = [row for chunk in chunks for row in chunk]
    return _aggregate(cell, n, true_m, rows)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("rep", "method", "bw", "success", "tau_hat", "ci_lo", "ci_hi",
                "width", "covered")


def _fmt(value: float) -> str:
    return repr(value) if math.isfinite(value) else ""


def replications_csv(result: CellResult) -> str:
    """Per-replication records as CSV text (deterministic formatting)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rep, row in enumerate(result.rows):
        for method, rec in row.items():
            if rec.ok:
                covered = int(rec.lo <= TRUE_TAU <= rec.hi)
                writer.writerow(
                    [rep, method, _fmt(rec.bw), 1, _fmt(rec.tau), _fmt(rec.lo),
                     _fmt(rec.hi), _fmt(rec.hi - rec.lo), covered]
                )
            else:
                writer.writerow([rep, method, _fmt(rec.bw), 0, "", "", "", "", ""])
    return buf.getvalue()


def write_cell_outputs(result: CellResult, outdir: str | Path) -> tuple[Path, Path]:
    """Write result JSON and per-replication CSV; returns the two paths.

    Output bytes are a pure function of the cell spec (no timestamps), so
    re-running a cell with any parallelism degree reproduces the files
    exactly.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    json_path = outdir / f"{result.cell_id}.json"
    csv_path = outdir / f"{result.cell_id}_replications.csv"
    payload = json.dumps(result.to_json_dict(), sort_keys=True, indent=2,
                         allow_nan=True)
    json_path.write_text(payload + "\n", encoding="utf-8")
    csv_path.write_text(replications_csv(result), encoding="utf-8")
    return json_path, csv_path
