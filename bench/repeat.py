"""Repeat benchmark runs and judge them against the bounds in BENCHMARK.json.

Run from the root of a checkout:

    # ten seeds per workload; spreads, fingerprint agreement, correctness
    python3 bench/repeat.py --seeds 1-10 --save bench/out/set_a.json
    # a second set, then compare the medians of the two sets
    python3 bench/repeat.py --seeds 11-20 --save bench/out/set_b.json
    python3 bench/repeat.py --compare bench/out/set_a.json bench/out/set_b.json

The spread of a metric is the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a share
of their median.  Exits non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (detail record, result object)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2])
    detail["run_wall_s"] = time.perf_counter() - start
    return detail, json.loads(lines[-1])


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance over median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def run_set(workloads: list[str], seeds: list[int], seconds: float) -> tuple[dict, list[str]]:
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, failures = {}, []
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        wall: dict[str, list[float]] = {}
        prints = set()
        for seed in seeds:
            detail, result = run_once(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} seed {seed}: {detail['problems']}")
            prints.add(json.dumps(detail["fingerprints"], sort_keys=True))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in detail["wall"].items():
                wall.setdefault(name, []).append(value)
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  f"run {detail['run_wall_s']:.1f} s", flush=True)
        if len(prints) != 1:
            failures.append(f"{workload}: fingerprints differ across runs: {sorted(prints)}")
        summary[workload] = {}
        for name, vals in values.items():
            median, share = spread(vals)
            summary[workload][name] = {"median": median, "spread": share, "values": vals}
            verdict = "steady" if share <= bounds[name] / 3 else (
                "within bound" if share <= bounds[name] else "OVER BOUND")
            if share > bounds[name]:
                failures.append(f"{workload} {name}: spread {share:.4f} > bound {bounds[name]}")
            print(f"  {workload:24s} {name:16s} median {median:10.4f} "
                  f"spread {share:.4f} bound {bounds[name]} {verdict}", flush=True)
        for name, vals in wall.items():
            median, share = spread(vals)
            summary[workload][f"wall.{name}"] = {"median": median, "spread": share, "values": vals}
            print(f"  {workload:24s} {'wall ' + name:16s} median {median:10.4f} "
                  f"spread {share:.4f} (unscaled, for comparison)", flush=True)
    return summary, failures


def compare(a: dict, b: dict) -> list[str]:
    """Second medians must not be worse than the first by more than the bound."""
    bench = load_benchmark()
    failures = []
    for metric in bench["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in a:
            if workload not in b:
                continue
            m1, m2 = a[workload][name]["median"], b[workload][name]["median"]
            change = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
            ok = change <= bound
            print(f"{workload:24s} {name:16s} {m1:10.4f} -> {m2:10.4f} "
                  f"worse by {change:+.4f} (bound {bound}) {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{workload} {name}: worse by {change:.4f}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all", help="comma list or 'all'")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,5,9'")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--save", help="write the set summary here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        failures = compare(a, b)
    else:
        bench = load_benchmark()
        workloads = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
                     else args.workloads.split(","))
        seconds = args.seconds or bench["run_seconds"]
        summary, failures = run_set(workloads, seeds_from(args.seeds), seconds)
        if args.save:
            Path(args.save).parent.mkdir(parents=True, exist_ok=True)
            Path(args.save).write_text(json.dumps(summary, indent=2), encoding="utf-8")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
