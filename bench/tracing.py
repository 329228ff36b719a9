"""In-memory span tracing around the toolkit's public functions.

The tracer replaces every name that a loaded ``rdsmall`` module binds to a
traced function (for example ``rdsmall.simulation.lr_interval`` and
``rdsmall.inference.local_poly_fit``) with a timing wrapper, and restores
them on ``uninstall``.  Nothing under
``src/`` is modified.  Each span records its name, start, end, parent span
and trace id; all spans of one replication (or one ``analyze`` call) share a
trace id.  A call to ``generate_dataset`` opens a new replication id, which
is how replications inside ``run_cell`` are told apart without touching the
harness's private loop; when ``run_cell`` returns, the caller's id is back.

Counters are taken at the same boundaries from each call's arguments and
result, and only while ``counting`` is set, so that a benchmark can count a
fixed, seed-determined prefix of its work and get counts that repeat
exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

import rdsmall.bandwidth
import rdsmall.cli
import rdsmall.inference
import rdsmall.local_poly
import rdsmall.local_randomization
import rdsmall.simulation

# The functions the tracer times, by defining module.  Every binding of one
# of them in a loaded ``rdsmall`` module is wrapped, so a call is timed
# whichever module's name it goes through.
TRACED = {
    rdsmall.simulation: ("run_cell", "write_cell_outputs", "generate_dataset"),
    rdsmall.local_poly: ("local_poly_fit", "nn_variance"),
    rdsmall.bandwidth: ("estimate_m_hat", "ik_bandwidth", "ak_bandwidth"),
    rdsmall.inference: ("cv_interval", "rbc_interval", "flci_interval"),
    rdsmall.local_randomization: ("lr_interval", "select_window"),
    rdsmall.cli: ("cmd_analyze", "read_xy_csv"),
}


def bindings(functions) -> list[tuple[object, str, object]]:
    """(module, attribute, function) for every attribute of a loaded
    ``rdsmall`` module that is one of ``functions``."""
    wanted = {id(fn): fn for fn in functions}
    found = []
    for name, module in list(sys.modules.items()):
        if name != "rdsmall" and not name.startswith("rdsmall."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wanted and wanted[id(value)] is value:
                found.append((module, attr, value))
    return found


# Result passed to a counter when the traced call raised.
RAISED = object()

# Span names whose call starts a new replication trace id.
_STARTS_REPLICATION = "simulation.generate_dataset"


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Spans and exact counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trace id]
        self.trace_id = ""
        self.counting = False
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._replications = 0
        self._fit_keys: set = set()
        self._patches: list = []
        self._pid = os.getpid()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = [getattr(module, name) for module, names in TRACED.items() for name in names]
        wrappers = {id(fn): self._wrap(fn) for fn in originals}
        for module, attr, original in bindings(originals):
            setattr(module, attr, wrappers[id(original)])
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn):
        name = span_name(fn)
        count = _COUNTERS.get(name)
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:  # a forked worker: its spans would never reach the report
                return fn(*args, **kwargs)
            outer = self.trace_id
            if name == _STARTS_REPLICATION:
                self.trace_id = f"rep{self._replications}"
                self._replications += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), 0.0, parent, self.trace_id]
            self.spans.append(span)
            self._stack.append(index)
            result = RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                if name != _STARTS_REPLICATION:  # a replication's id lasts until the next one
                    self.trace_id = outer
                if count is not None and self.counting:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self, bound.arguments, result)

        return wrapper

    # -- reports --------------------------------------------------------

    def layer_seconds(self) -> tuple[Counter, Counter]:
        """Total inclusive and self seconds per span name."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[index]
        return total, self_time

    def write(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trace in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "trace": trace,
                }) + "\n")


# -- counters ------------------------------------------------------------
#
# Each takes (tracer, bound arguments, result) and adds to tracer.counts;
# result is RAISED when the call raised.  Keys ending in ".base" are the
# denominators of the matching shares.


def _count_fit(tracer, args, result):
    c = tracer.counts
    c["local_poly.local_poly_fit.calls"] += 1
    key = (tracer.trace_id, args["side"], args["degree"], float(args["h"]), args["kernel"])
    if key not in tracer._fit_keys:
        tracer._fit_keys.add(key)
        c["local_poly.local_poly_fit.distinct"] += 1


def _count_lr(tracer, args, result):
    if result is RAISED:
        return
    c = tracer.counts
    c["local_randomization.lr_interval.base"] += 1
    c["local_randomization.lr_interval.exact"] += result.diagnostics["mode"] == "exact"
    c["local_randomization.lr_interval.assignments"] += result.diagnostics["n_assignments"]


def _count_rbc(tracer, args, result):
    if result is RAISED:
        return
    c = tracer.counts
    c["inference.rbc_interval.base"] += 1
    c["inference.rbc_interval.bias_expand"] += (
        result.diagnostics["bias_bandwidth"] > result.bandwidth_or_window
    )


def _count_ak(tracer, args, result):
    if result is RAISED or not result.ok:
        return
    c = tracer.counts
    c["bandwidth.ak_bandwidth.base"] += 1
    c["bandwidth.ak_bandwidth.grid_edge"] += result.h in (
        result.diagnostics["grid_lo"], result.diagnostics["grid_hi"]
    )


_COUNTERS = {
    "local_poly.local_poly_fit": _count_fit,
    "local_randomization.lr_interval": _count_lr,
    "inference.rbc_interval": _count_rbc,
    "bandwidth.ak_bandwidth": _count_ak,
}
