"""Sample the speed of one CPU while the benchmark runs.

    python3 perfbench/speed.py SAMPLES.txt PERIOD_S CPU

Pinned to CPU, every PERIOD_S seconds, time a fixed kernel (small numpy
calls in a Python loop, the mix the package's exact-moment code runs) by
this thread's CPU time, and append ``<perf_counter at its end> <kernel
seconds>`` to SAMPLES.txt.  Runs until terminated.

The benchmark's host shares its cores with other machines: the speed of the
same code drifts by about 20% over tens of seconds, independently on each
CPU.  ``run.py`` keeps one sampler on every CPU and scales wall times by the
speeds they see (see README.md).  Thread CPU time leaves out waiting for the
CPU, so a busy workload does not read as a slow machine.  ``perf_counter``
is CLOCK_MONOTONIC, shared by every process on Linux.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

_X = np.linspace(0.1, 5.0, 1024)


def kernel() -> float:
    acc = 0.0
    for _ in range(750):
        acc += float(np.sum(np.exp(3.0 * np.log(_X) - _X - 1.791759469228055)))
    return acc


def main(path: str, period: float, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    kernel()
    with open(path, "w", buffering=1) as out:
        while True:
            start = time.thread_time()
            kernel()
            out.write(f"{time.perf_counter()!r} {time.thread_time() - start!r}\n")
            time.sleep(period)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), int(sys.argv[3]))
