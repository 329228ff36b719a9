"""Diff two replication CSVs, or two ``rdsmall analyze`` reports, row by row.

    python tests/compare.py OLD NEW [--rows N] [--move R] [--flips N]

OLD and NEW are both replication CSVs (``<cell>_replications.csv``) or both
``analyze`` reports, JSON or ``--format csv``.  Rows are matched by position
and must carry the same key, (rep, method) or method: a reordered, missing
or extra row is an error (exit 2).  The summary gives

* the rows whose success flag or failure reason changed, or whose numeric
  fields went from present to absent or back (a count and the first few);
* the largest move in ``bw``, ``tau_hat``, ``ci_lo`` and ``ci_hi`` among
  rows that hold the field on both sides, relative to a scale: the
  simulated designs' noise SD for a replication CSV, and for a report the
  largest |value| of OLD's bandwidths (``bw``) or of its estimates and
  endpoints (the other three);
* each flip of ``covered`` (replication CSVs only), with the distance from
  the true effect of the endpoint that crossed it, before and after.

The exit status is 1 when a count or the largest relative move exceeds
its budget (all 0 by default, so only identical values pass), else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

NOISE_SD = 0.1295  # rdsmall.simulation.NOISE_SD
TRUE_TAU = 0.1  # rdsmall.simulation.TRUE_TAU
FIELDS = ("bw", "tau_hat", "ci_lo", "ci_hi")
SHOWN = 5  # changed rows and flips listed in full


class CompareError(Exception):
    """The two files cannot be compared row by row."""


def _number(text):
    return math.nan if text in (None, "") else float(text)


def read_rows(path):
    """(kind, rows) of a replication CSV or an analyze report: each row a
    dict with its key, success, reason, the four fields and covered."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        records, kind = json.loads(text)["results"], "report"
    else:
        records = list(csv.DictReader(text.splitlines()))
        kind = "replications" if records and "rep" in records[0] else "report"
    rows = []
    for r in records:
        if kind == "replications":
            row = {"key": (int(r["rep"]), r["method"]), "success": r["success"] == "1",
                   "reason": None, "covered": _number(r["covered"])}
            row.update((f, _number(r[f])) for f in FIELDS)
        else:
            success = r["success"] in (True, "True")
            row = {"key": r["method"], "success": success, "reason": r["reason"] or None,
                   "covered": math.nan, "bw": _number(r["bandwidth_or_window"]),
                   "tau_hat": _number(r["tau_hat"]), "ci_lo": _number(r["ci_lower"]),
                   "ci_hi": _number(r["ci_upper"])}
        rows.append(row)
    return kind, rows


def _scales(kind, rows):
    if kind == "replications":
        return dict.fromkeys(FIELDS, NOISE_SD)

    def largest(fields):
        values = [abs(r[f]) for r in rows for f in fields if math.isfinite(r[f])]
        return max(values, default=0.0) or 1.0

    y_scale = largest(FIELDS[1:])
    return {"bw": largest(("bw",)), "tau_hat": y_scale, "ci_lo": y_scale, "ci_hi": y_scale}


def compare(old_path, new_path):
    """The summary of OLD against NEW as a dict; raises CompareError."""
    (kind, old), (new_kind, new) = read_rows(old_path), read_rows(new_path)
    if kind != new_kind:
        raise CompareError(f"OLD is {kind} and NEW is {new_kind}")
    for i, (a, b) in enumerate(zip(old, new)):
        if a["key"] != b["key"]:
            raise CompareError(f"row {i + 1}: NEW has {b['key']} where OLD has {a['key']} "
                               f"(reordered or different rows)")
    if len(old) != len(new):
        raise CompareError(f"OLD has {len(old)} rows and NEW has {len(new)}")
    scales = _scales(kind, old)
    changed, flips, largest = [], [], {f: (0.0, None) for f in FIELDS}
    for a, b in zip(old, new):
        present = [(math.isfinite(a[f]), math.isfinite(b[f])) for f in FIELDS]
        if (a["success"], a["reason"]) != (b["success"], b["reason"]) or any(
                pa != pb for pa, pb in present):
            changed.append(f"{a['key']}: success {a['success']} -> {b['success']}, "
                           f"reason {a['reason']!r} -> {b['reason']!r}")
        for f, (pa, pb) in zip(FIELDS, present):
            move = abs(b[f] - a[f]) / scales[f] if pa and pb else 0.0
            if move > largest[f][0]:
                ulps = abs(b[f] - a[f]) / math.ulp(a[f])
                largest[f] = (move, f"{a['key']}: {a[f]!r} -> {b[f]!r} ({ulps:.0f} ulp)")
        if kind == "replications" and a["success"] and b["success"] and a["covered"] != b["covered"]:
            end = "ci_lo" if (a["ci_lo"] > TRUE_TAU) != (b["ci_lo"] > TRUE_TAU) else "ci_hi"
            flips.append(f"{a['key']}: covered {a['covered']:g} -> {b['covered']:g}, {end} - tau "
                         f"{a[end] - TRUE_TAU!r} -> {b[end] - TRUE_TAU!r}")
    return {"kind": kind, "rows": len(old), "scales": scales, "changed": changed,
            "largest": largest, "flips": flips,
            "move": max(move for move, _ in largest.values())}


def format_summary(s):
    lines = [f"{s['kind']}: {s['rows']} rows",
             f"changed rows: {len(s['changed'])}", *("  " + c for c in s["changed"][:SHOWN])]
    for f, (move, where) in s["largest"].items():
        lines.append(f"largest {f} move: {move:.3g} of {s['scales'][f]:.6g}"
                     + (f" at {where}" if where else ""))
    if s["kind"] == "replications":
        lines += [f"covered flips: {len(s['flips'])}", *("  " + c for c in s["flips"][:SHOWN])]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rows", type=int, default=0, help="changed rows allowed")
    parser.add_argument("--move", type=float, default=0.0,
                        help="largest move allowed, relative to its scale")
    parser.add_argument("--flips", type=int, default=0, help="covered flips allowed")
    args = parser.parse_args(argv)
    try:
        summary = compare(args.old, args.new)
    except (CompareError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(format_summary(summary))
    over = [name for name, count, budget in (
        ("rows", len(summary["changed"]), args.rows), ("move", summary["move"], args.move),
        ("flips", len(summary["flips"]), args.flips)) if count > budget]
    print("over budget: " + ", ".join(over) if over else "within budget")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
