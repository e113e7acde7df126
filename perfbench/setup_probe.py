"""Time one cold start of a workload; print its wall and calibration seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

The timed span is what a user waits for before the first operation can
run: importing the package and every driver the benchmark calls, then
building the workload's first world or scenario. The calibration kernel
runs right after, so ``run.py`` can scale the wall time to the reference
CPU. ``run.py`` starts this script several times per run, each in a
fresh interpreter, and reports the median as ``setup_s``.
"""

import statistics
import sys
import time

start = time.perf_counter()

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
workload.first_build(workload.inputs(int(sys.argv[2]))[0])
wall = time.perf_counter() - start

from run import calibrate  # noqa: E402

print(wall, statistics.median(calibrate() for _ in range(5)))
