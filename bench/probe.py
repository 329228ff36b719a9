"""Setup probe: seconds to import rdsmall and finish one warm-up operation.

    python3 bench/probe.py <workload> <seed>

Prints the elapsed seconds and then the median time of the calibration
loop (see calibration.py) taken right after; ``run.py`` starts several
probes and reports their median, scaled to reference speed, as ``setup_s``.
"""

import statistics
import sys
from time import perf_counter

start = perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.WORKLOADS[sys.argv[1]].warm_up(int(sys.argv[2]))
elapsed = perf_counter() - start

import calibration  # noqa: E402

print(elapsed, statistics.median(calibration.loop_seconds() for _ in range(9)))
