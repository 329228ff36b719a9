"""Command-line front end.

Three subcommands:

* ``diss`` — study-size report for a CSV: n, n below the cutoff, the
  rule-of-thumb bandwidth, and the count within it.
* ``analyze`` — one row per estimation method: bandwidth/window, point
  estimate, SE, confidence interval, success flag.  Method failures are
  report rows carrying the reason, not process errors.
* ``simulate`` — run a simulation cell from a JSON spec (or emit the
  study-size design grid with ``--table1``).

CSV input needs a header row; column names are configurable.  Rows with
missing or non-numeric values in the selected columns are dropped with a
counted warning by default; ``--strict`` turns the first such row into an
error.  All reports carry the toolkit version and the resolved
configuration, and the treated side is ``x >= cutoff`` (a beneficial
below-cutoff intervention therefore shows up as a positive effect).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from ._version import __version__
from .bandwidth import CurvatureBound
from .core import RDSample
from .diss import diss_m
from .engine import Outcome, Plan, estimate
from .errors import (
    MissingColumnError,
    ParseError,
    RDError,
    SpecValidationError,
)
from .simulation import (
    DEFAULT_METHODS,
    design_table,
    run_cell,
    validate_cell_spec,
    write_cell_outputs,
)


def read_xy_csv(path: str | Path, x_col: str, y_col: str, strict: bool = False):
    """Read two numeric columns from a CSV; returns (x, y, n_dropped).

    The header goes through ``csv.reader``.  A body whose every row is
    usable is then parsed by numpy's C reader; any other body goes through
    the row loop, the one path that drops rows with a count and raises the
    ``strict`` error.  Both read the bytes read once from disk.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        # utf-8-sig: a spreadsheet's "CSV UTF-8" file starts with a byte-order
        # mark.  Decoded chunk by chunk as from disk, so a bad row before an
        # undecodable byte is still the one named
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file (header row required)")
            for col in (x_col, y_col):
                if col not in header:
                    raise MissingColumnError(
                        f"{path}: column {col!r} not found; available: {header}"
                    )
            # a repeated name reads its last column; blank lines are no rows
            ix, iy = (len(header) - 1 - header[::-1].index(c) for c in (x_col, y_col))
            columns = _clean_columns(data, fh, ix, iy)
            if columns is not None:
                x, y = columns.T.copy()
                return x, y, 0
            fh.seek(0)  # numpy may have read on: start over, past the header
            reader = csv.reader(fh)
            next(reader)
            xs, ys, dropped = [], [], 0
            for row_number, row in enumerate(filter(None, reader), start=2):
                try:
                    x, y = float(row[ix]), float(row[iy])
                except (IndexError, ValueError):
                    x = y = math.nan
                if math.isfinite(x) and math.isfinite(y):
                    xs.append(x)
                    ys.append(y)
                elif strict:
                    raw_x, raw_y = (row[i] if i < len(row) else None for i in (ix, iy))
                    raise ParseError(
                        f"{path}: row {row_number}: non-numeric or missing "
                        f"value ({x_col}={raw_x!r}, {y_col}={raw_y!r})"
                    )
                else:
                    dropped += 1
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    except csv.Error as err:
        raise ParseError(f"{path}: {err}") from None
    if not xs:
        raise ParseError(f"{path}: no usable data rows")
    return np.array(xs), np.array(ys), dropped


def _clean_columns(data: bytes, fh, ix: int, iy: int):
    """Columns ix and iy of the rest of ``fh``, the text of ``data`` after
    its header, as an (n, 2) array read by numpy's C reader; or None when
    the row loop might read the body differently."""
    # U+001C-U+001F, each its own byte in UTF-8: numpy strips them around a
    # number as whitespace and float() does not
    if any(sep in data for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
        return None
    # csv refuses a field over its size limit, numpy reads it.  Unless quoted,
    # such a field holds a comma-free block of half the limit, aligned at 0
    limit = csv.field_size_limit()
    block = limit // 2 + 1
    if ((b'"' in data and len(data) > limit)
            or any(data.find(b",", k, k + block) < 0
                   for k in range(0, len(data) - block + 1, block))):
        return None
    try:  # a UnicodeDecodeError is a ValueError: the loop names what comes first
        body = fh.read()
        if not body.strip("\r\n"):  # no rows (loadtxt would warn)
            return None
        columns = np.loadtxt(io.StringIO(body), delimiter=",", usecols=(ix, iy),
                             comments=None, quotechar='"', dtype=float, ndmin=2)
    except ValueError:
        return None
    return columns if np.isfinite(columns).all() else None


def _base_report(args, config_keys) -> dict:
    return {
        "version": __version__,
        "config": {k: getattr(args, k.replace("-", "_")) for k in config_keys},
    }


def cmd_diss(args) -> dict:
    x, y, dropped = read_xy_csv(args.input, args.x_col, args.y_col, args.strict)
    sample = RDSample(x=x, y=y, cutoff=args.cutoff)
    m, h_rot = diss_m(sample)
    report = _base_report(args, ("input", "x_col", "y_col", "cutoff", "strict"))
    report.update(
        {
            "n": int(sample.n),
            "n_below": sample.n_below,
            "h_rot": h_rot,
            "m": m,
            "dropped_rows": dropped,
        }
    )
    return report


def cmd_analyze(args) -> dict:
    if args.seed < 0:
        raise SpecValidationError(f"seed: >= 0 required, got {args.seed!r}")
    if args.m_bound is not None and not args.m_bound > 0:
        raise SpecValidationError(f"m_bound: > 0 required, got {args.m_bound!r}")
    x, y, dropped = read_xy_csv(args.input, args.x_col, args.y_col, args.strict)
    sample = RDSample(x=x, y=y, cutoff=args.cutoff)
    bound = None if args.m_bound is None else CurvatureBound(args.m_bound)
    plan = Plan(
        methods=args.methods.split(","), alpha=args.alpha, lr_min=args.lr_min,
        window="strict", m_bound=bound, akm_bound=bound,
    )
    outcomes = estimate(sample, plan, np.random.default_rng(args.seed))

    report = _base_report(
        args,
        ("input", "x_col", "y_col", "cutoff", "alpha", "methods", "lr_min",
         "m_bound", "seed", "strict"),
    )
    report.update(
        {
            "n": int(sample.n),
            "n_below": sample.n_below,
            "dropped_rows": dropped,
            "results": [_result_row(m, out) for m, out in outcomes.items()],
        }
    )
    return report


def _result_row(method: str, out: Outcome) -> dict:
    def number(value):
        return None if math.isnan(value) else value

    return {
        "method": method,
        "success": out.ok,
        "bandwidth_or_window": number(out.bw),
        "tau_hat": number(out.tau),
        "se": number(out.se),
        "ci_lower": number(out.lo),
        "ci_upper": number(out.hi),
        "reason": None if out.ok else f"{type(out.error).__name__}: {out.error}",
    }


def cmd_simulate(args) -> int:
    if args.table1:
        payload = {"version": __version__, "design": design_table()}
        _emit(payload, args.out, args.format, table_key="design")
        return 0
    if args.spec is None:
        raise SpecValidationError("simulate needs --spec PATH or --table1")
    spec_path = Path(args.spec)
    try:
        raw = json.loads(spec_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise SpecValidationError(f"{spec_path}: invalid JSON ({err})")
    cell = validate_cell_spec(raw)
    result = run_cell(cell)
    outdir = Path(args.out) if args.out else Path.cwd()
    json_path, csv_path = write_cell_outputs(result, outdir)
    print(json_path)
    print(csv_path)
    return 0


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(report: dict, out: str | None, fmt: str, table_key: str | None = None):
    if fmt == "csv":
        if table_key and isinstance(report.get(table_key), list):
            text = _rows_to_csv(report[table_key])
        else:
            text = _rows_to_csv([_flatten(report)])
    else:
        text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _flatten(report: dict) -> dict:
    flat = {}
    for key, value in report.items():
        if isinstance(value, dict):
            for k2, v2 in value.items():
                flat[f"{key}.{k2}"] = v2
        elif not isinstance(value, list):
            flat[key] = value
    return flat


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser every ``main`` call in the process shares: never mutate it."""
    parser = argparse.ArgumentParser(
        prog="rdsmall",
        description="Regression discontinuity estimation for small studies",
    )
    parser.add_argument("--version", action="version", version=f"rdsmall {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, alpha_default):
        p.add_argument("--input", required=True, help="CSV file with a header row")
        p.add_argument("--x-col", required=True, help="running-variable column")
        p.add_argument("--y-col", required=True, help="response column")
        p.add_argument("--cutoff", type=float, required=True)
        p.add_argument("--strict", action="store_true",
                       help="error on non-numeric rows instead of dropping them")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if alpha_default is not None:
            p.add_argument("--alpha", type=float, default=alpha_default)

    p_diss = sub.add_parser("diss", help="study-size report for a CSV")
    add_io(p_diss, None)

    p_an = sub.add_parser("analyze", help="estimate the cutoff effect with each method")
    add_io(p_an, 0.10)
    p_an.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p_an.add_argument("--lr-min", type=int, default=5,
                      help="minimum observations per side for the randomization window")
    p_an.add_argument("--m-bound", type=float, default=None,
                      help="curvature bound > 0: replaces the estimated m_hat for "
                      "ik/flci and ak/*, and is the bound of akm/*")
    p_an.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="run a simulation cell from a JSON spec")
    p_sim.add_argument("--spec", help="cell spec JSON path")
    p_sim.add_argument("--table1", action="store_true",
                       help="emit the study-size design grid instead of running a cell")
    p_sim.add_argument("--out", help="output directory (default: cwd)")
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "diss":
            _emit(cmd_diss(args), args.out, args.format)
        elif args.command == "analyze":
            _emit(cmd_analyze(args), args.out, args.format, table_key="results")
        elif args.command == "simulate":
            return cmd_simulate(args)
    except (RDError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
