"""rdsmall benchmark: Monte Carlo throughput and ``analyze`` latency.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_paper_cell --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics, with times scaled to
reference machine speed (see calibration.py); nothing is wrapped but the
once-per-replication function in which calibration samples are taken.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics from the traced ones, in unscaled wall-clock time, plus
the tracing overhead; spans are written to
``bench/out/spans_<workload>.jsonl``.  ``--smoke`` shrinks every
size so a run takes seconds.

Standard output ends with two lines: a JSON record of the environment,
fingerprints, counts with their bases and any check failures, then the
result object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy

import workloads  # first: puts the checkout's src/ on sys.path
import calibration
import tracing
from workloads import OUT, ROOT

SETUP_PROBES = 9
SMOKE_REPS = 4  # replications per cell in smoke runs; the pooled path needs >= 2 * workers

# An "op" in a per-layer unit is one replication on the mc_* workloads and
# one analyze call on analyze_indiana.
# Per-layer timings in ms per op:
# metric name -> (span name, "total" for inclusive time or "self").
LAYER_TIMES = {
    "simulation.generate_dataset.ms": ("simulation.generate_dataset", "total"),
    "simulation.run_cell.ms": ("simulation.run_cell", "total"),
    "simulation.run_cell.self_ms": ("simulation.run_cell", "self"),
    "simulation.write_cell_outputs.ms": ("simulation.write_cell_outputs", "total"),
    "local_poly.nn_variance.ms": ("local_poly.nn_variance", "total"),
    "local_poly.local_poly_fit.ms": ("local_poly.local_poly_fit", "total"),
    "bandwidth.estimate_m_hat.ms": ("bandwidth.estimate_m_hat", "total"),
    "bandwidth.ik_bandwidth.ms": ("bandwidth.ik_bandwidth", "total"),
    "bandwidth.ak_bandwidth.ms": ("bandwidth.ak_bandwidth", "total"),
    "inference.cv_interval.ms": ("inference.cv_interval", "total"),
    "inference.rbc_interval.ms": ("inference.rbc_interval", "total"),
    "inference.flci_interval.ms": ("inference.flci_interval", "total"),
    "local_randomization.lr_interval.ms": ("local_randomization.lr_interval", "total"),
    "local_randomization.select_window.ms": ("local_randomization.select_window", "total"),
    "cli.read_xy_csv.ms": ("cli.read_xy_csv", "total"),
    "cli.cmd_analyze.self_ms": ("cli.cmd_analyze", "self"),
}

# Exact counts from the counted window: metric -> (numerator, denominator).
# A denominator of None means "per op of the counted window".
LAYER_COUNTS = {
    "local_poly.local_poly_fit.calls": ("local_poly.local_poly_fit.calls", None),
    "local_poly.local_poly_fit.distinct_share": ("local_poly.local_poly_fit.distinct",
                                                 "local_poly.local_poly_fit.calls"),
    "bandwidth.ak_bandwidth.grid_edge_share": ("bandwidth.ak_bandwidth.grid_edge",
                                               "bandwidth.ak_bandwidth.base"),
    "inference.rbc_interval.bias_expand_share": ("inference.rbc_interval.bias_expand",
                                                 "inference.rbc_interval.base"),
    "local_randomization.lr_interval.exact_share": ("local_randomization.lr_interval.exact",
                                                    "local_randomization.lr_interval.base"),
    "local_randomization.lr_interval.assignments": ("local_randomization.lr_interval.assignments",
                                                    None),
    "method_fail_share": ("method_failures", "method_outcomes"),
}


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rdsmall").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None when the checkout is not itself a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def setup_seconds(name: str, seed: int, probes: int) -> list[tuple[float, float]]:
    """(wall seconds, calibration loop seconds) of import plus first-call
    warm-up, each in a fresh interpreter."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall, loop = done.stdout.split()[-2:]
        times.append((float(wall), float(loop)))
    return times


@contextlib.contextmanager
def sampling(sampler, functions):
    """Every binding of ``functions`` takes calibration samples while inside."""
    patches = tracing.bindings(functions)
    for module, attr, fn in patches:
        setattr(module, attr, sampler.wrap(fn))
    try:
        yield
    finally:
        for module, attr, fn in patches:
            setattr(module, attr, fn)


def measure(workload, seed: int, seconds: float, trace: bool, reps: int | None) -> dict:
    """Closed loop for ``seconds``; with ``trace``, every second operation is traced.

    Untraced runs time the calibration loop inside every operation that calls
    one of ``workload.sampled``, and once after every operation.
    """
    tracer = tracing.Tracer() if trace else None
    sampler = None if trace else calibration.Sampler(OUT / "calibration")
    counted_ops = workload.counted_ops if trace else 0
    modes = {"untraced": {"seconds": 0.0, "units": 0}, "traced": {"seconds": 0.0, "units": 0}}
    untraced_ops: list[tuple[float, int, list]] = []  # (seconds, units, loop seconds)
    counted = {"units": 0, "method_outcomes": 0, "method_failures": 0}
    totals = {"units": 0, "bad_units": 0, "method_outcomes": 0, "method_failures": 0}
    problems: list[str] = []
    traced_ops = 0
    origin = perf_counter()
    for index, op in enumerate(workload.inputs(seed, reps)):
        if index and perf_counter() - origin >= seconds and traced_ops >= counted_ops:
            break
        traced = trace and index % 2 == 1
        counting = traced and traced_ops < counted_ops
        try:
            if traced:
                traced_ops += 1
                tracer.trace_id = f"op{index}"
                tracer.counting = counting
                tracer.install()
                try:
                    op_seconds, units, output = workload.run(op)
                finally:
                    tracer.uninstall()
            elif sampler is not None:
                with sampling(sampler, workload.sampled):
                    op_seconds, units, output = workload.run(op)
                inside = sampler.collect()
                # Each process's samples delayed only that process's share of the work.
                op_seconds -= sum(inside) / workload.workers
            else:
                op_seconds, units, output = workload.run(op)
            checked = workload.check(op, output)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            units = getattr(op, "replications", 1)
            totals["units"] += units
            totals["bad_units"] += units
            problems.append(f"op {index}: {traceback.format_exc(limit=3)}")
            continue
        mode = modes["traced" if traced else "untraced"]
        mode["seconds"] += op_seconds
        mode["units"] += units
        if sampler is not None:
            untraced_ops.append((op_seconds, units, inside + [calibration.loop_seconds()]))
        totals["units"] += units
        totals["bad_units"] += checked.bad_units
        totals["method_outcomes"] += checked.outcomes
        totals["method_failures"] += checked.method_failures
        problems.extend(f"op {index}: {p}" for p in checked.problems)
        if counting:
            counted["units"] += units
            counted["method_outcomes"] += checked.outcomes
            counted["method_failures"] += checked.method_failures
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans_{workload.name}.jsonl", origin)
    return {"tracer": tracer, "modes": modes, "untraced_ops": untraced_ops,
            "counted": counted, "totals": totals, "problems": problems}


def end_to_end_metrics(run: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Times scaled to reference machine speed (see calibration.py), and the
    same figures unscaled."""
    ops = run["untraced_ops"]
    op_scales = calibration.scales([loop for _, _, loop in ops])
    setup_scales = [calibration.REFERENCE_S / loop for _, loop in setup]

    def figures(op_scale, setup_scale) -> dict:
        latencies = [1000.0 * s * f / u for (s, u, _), f in zip(ops, op_scale)]
        return {
            "reps_per_s": (sum(u for _, u, _ in ops)
                           / sum(s * f for (s, _, _), f in zip(ops, op_scale))),
            "analyze_ms_p50": float(np.percentile(latencies, 50)),
            "analyze_ms_p95": float(np.percentile(latencies, 95)),
            "setup_s": statistics.median(w * f for (w, _), f in zip(setup, setup_scale)),
        }

    units = {"reps_per_s": "1/s", "analyze_ms_p50": "ms", "analyze_ms_p95": "ms", "setup_s": "s"}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in figures(op_scales, setup_scales).items()}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    unscaled = {"wall": figures(itertools.repeat(1.0), itertools.repeat(1.0)),
                "latency_samples": len(ops), "speed_scale_median": statistics.median(op_scales),
                "calibration_samples": sum(len(loop) for _, _, loop in ops)}
    return metrics, unscaled


def per_layer_metrics(run: dict, workload) -> tuple[dict, dict]:
    """Per-layer metrics, each count with its base, and a problem for each
    layer of the workload that recorded no span."""
    tracer = run["tracer"]
    traced, untraced = run["modes"]["traced"], run["modes"]["untraced"]
    total, self_time = tracer.layer_seconds()
    missing = [span for span in workload.layers if span not in total]
    metrics = {}
    for metric, (span, kind) in LAYER_TIMES.items():
        seconds = (total if kind == "total" else self_time)[span]
        metrics[metric] = {"value": 1000.0 * seconds / traced["units"], "unit": "ms/op"}
    counts = dict(tracer.counts)
    counts.update({k: v for k, v in run["counted"].items() if k != "units"})
    window_units = run["counted"]["units"]
    bases = {}
    for metric, (numerator, denominator) in LAYER_COUNTS.items():
        count = counts.get(numerator, 0)
        base = window_units if denominator is None else counts.get(denominator, 0)
        value = count / base if base else 0.0
        unit = "share" if denominator else f"{metric.rsplit('.', 1)[-1]}/op"
        metrics[metric] = {"value": value, "unit": unit}
        bases[metric] = {"count": count, "base": base,
                         "base_unit": workload.unit if denominator is None else denominator}
    overhead = (traced["seconds"] / traced["units"]) / (untraced["seconds"] / untraced["units"]) - 1.0
    metrics["trace.overhead_share"] = {"value": overhead, "unit": "share"}
    return metrics, bases, [f"layer {span} recorded no spans" for span in missing]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    os.chdir(ROOT)

    # setup_s is an end-to-end metric; a traced run takes one probe for its detail line.
    setup = setup_seconds(workload.name, args.seed,
                          1 if args.smoke or args.trace else SETUP_PROBES)
    fingerprints, pinned = workload.fingerprint()
    workload.warm_up(args.seed)
    run = measure(workload, args.seed, args.seconds, bool(args.trace),
                  SMOKE_REPS if args.smoke else None)

    if any(mode["units"] == 0 for name, mode in run["modes"].items()
           if args.trace or name == "untraced"):
        sys.exit("no operation succeeded:\n" + "\n".join(run["problems"][:5]))
    with open(ROOT / "bench" / "fingerprints.json", encoding="utf-8") as fh:
        recorded = json.load(fh)["fingerprints"].get(workload.name)
    problems = [f"pinned: {p}" for p in pinned.problems] + run["problems"]
    if fingerprints != recorded:
        problems.append(f"fingerprints {fingerprints} differ from bench/fingerprints.json {recorded}")
    totals = run["totals"]
    extra = {}
    if args.trace:
        metrics, extra["counts"], unentered = per_layer_metrics(run, workload)
        problems.extend(unentered)
        extra["spans"] = len(run["tracer"].spans)
    else:
        metrics, extra = end_to_end_metrics(run, setup)
    detail = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": environment(args.seed),
        "unit": workload.unit,
        "units": totals["units"],
        "setup_samples": [{"wall_s": wall, "loop_s": loop} for wall, loop in setup],
        "method_outcomes": {"failed": totals["method_failures"],
                            "attempted": totals["method_outcomes"]},
        "fingerprints": fingerprints,
        "problems": problems[:20],
        **extra,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": totals["units"],
        "failed": totals["bad_units"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
