"""Wall times scaled to a reference machine speed.

On a shared machine, other tenants slow every process by up to 2x for
seconds to minutes at a time.  The benchmark therefore times a fixed
reference right before and right after each measurement, and reports the
measurement scaled by the reference's undisturbed time over its mean time:
the time the measurement would have taken on the undisturbed machine.  Raw
wall times are printed beside the scaled ones.  The references belong to
the benchmark, so no change to the program moves them.

There are two references, because the slowdown is not the same for all
code.  Ops run inside a worker are compared with a kernel of exact-rational
arithmetic, run in the worker (``kernel_ns``).  Measurements of a fresh
interpreter (an op of ``cli_fixtures``, and every set-up) are dominated by
process start and imports, which the kernel does not track; they are
compared with a fresh ``python -c pass`` (``start_ns``).
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

#: Kernel time with the machine undisturbed: the fastest of 4493
#: ``kernel_ns()`` calls run back to back for 40 s on a 2-vCPU Xeon VM at
#: 2.1 GHz under Python 3.11.7 (their median was 4.5 ms).
REF_KERNEL_NS = 2_480_000
#: ``python -c pass`` with the machine undisturbed: the fastest of 569
#: ``start_ns()`` calls over 300 s on the same VM, pinned to one CPU.
REF_START_NS = 37_460_000


def _kernel_once() -> int:
    start = time.perf_counter_ns()
    row = [Fraction(i, 7) for i in range(1, 40)]
    acc = Fraction(0)
    for r in range(1, 25):
        scale = Fraction(r, 3)
        acc += sum(v * scale for v in row)
    return time.perf_counter_ns() - start


def kernel_ns() -> int:
    """The faster of two back-to-back kernel runs, so a single interrupt does not count."""
    return min(_kernel_once(), _kernel_once())


def start_ns(env: dict) -> int:
    """Wall time of a fresh ``python -c pass`` with environment ``env``."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter_ns() - start


def scaled_ns(wall_ns: float, before: int, after: int, reference_ns: int = REF_KERNEL_NS) -> float:
    """``wall_ns`` at the reference speed, from the reference times that bracket it."""
    return wall_ns * reference_ns / ((before + after) / 2)
