"""Machine-speed calibration for timings taken on a shared host.

On a shared machine, other tenants change how fast one thread runs. On the
2-vCPU host where this benchmark was defined, the change is up to 1.6x,
in phases that last from under a second to minutes. A fixed pure-Python
loop slows down in step with the toolkit. Its time, taken during or next
to each operation, gives the machine's speed at that moment. Operation
times are scaled to the speed at which the loop takes ``REFERENCE_S``:

    scaled = wall * REFERENCE_S / mean loop time nearby

An operation that runs for seconds (a Monte Carlo cell) changes speed while
it runs, so a loop time taken after it says little about it. Such an
operation is sampled from inside: a ``Sampler`` wraps a function that the
operation calls once per replication and times the loop on every
``EVERY``-th call, in whichever process makes the call. On a 200-replication
cell at rv3-mu1, the mean of these samples correlated with the cell's time
at 0.93, and a loop time taken after the cell at 0.5.

The loop does not use rdsmall, so a change to the toolkit moves the scaled
time exactly as much as the wall time. The unscaled wall-clock figures are
reported next to the scaled ones.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
from pathlib import Path
from time import perf_counter

# Seconds the loop takes on the defining host when no other tenant slows it
# (Intel Xeon, 2 vCPUs, Python 3.11).  Only a scale: any constant would do.
REFERENCE_S = 0.0025
_ITERATIONS = 20_000
EVERY = 10  # sampled calls per loop sample: about 2% of a replication's time
_MIN_SAMPLES = 9  # an operation's speed is the mean of at least this many samples


def loop_seconds() -> float:
    """Time one run of the fixed loop: integer arithmetic and dict stores."""
    start = perf_counter()
    total, table = 0, {}
    for i in range(_ITERATIONS):
        total += i * i
        table[i % 97] = total
    return perf_counter() - start


class Sampler:
    """Loop samples taken inside an operation, in any of its processes.

    Each process appends its samples to its own file in ``directory``, so
    samples taken in worker processes reach the caller.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.collect()

    def wrap(self, fn):
        calls = itertools.count(1)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if next(calls) % EVERY == 0:
                seconds = loop_seconds()
                with open(self.directory / f"{os.getpid()}.txt", "a", encoding="utf-8") as fh:
                    fh.write(f"{seconds!r}\n")
            return fn(*args, **kwargs)

        return wrapper

    def collect(self) -> list[float]:
        """The samples taken since the last call, in no particular order."""
        samples = []
        for path in self.directory.glob("*.txt"):
            samples.extend(float(line) for line in path.read_text(encoding="utf-8").split())
            path.unlink()
        return samples


def scales(samples: list[list[float]]) -> list[float]:
    """Per-operation factor REFERENCE_S / mean loop time, from the samples
    of the operation and of as few operations on each side of it as give
    at least ``_MIN_SAMPLES``."""
    factors = []
    for i in range(len(samples)):
        near = []
        for k in range(len(samples)):
            near = [t for op in samples[max(0, i - k):i + k + 1] for t in op]
            if len(near) >= _MIN_SAMPLES:
                break
        factors.append(REFERENCE_S / statistics.fmean(near))
    return factors
