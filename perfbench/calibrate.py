"""Host-speed calibration.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent within seconds, for CPU time as much as for wall time.  To keep
that drift out of the timings, a fixed pure-Python kernel is timed next to
the work (before and after every task, around every set-up probe), and each
timing is scaled by ``REFERENCE_S / kernel time``: it reads as the seconds
the work would take on a host where the kernel takes ``REFERENCE_S``.

The kernel does the same kind of work as the package (exact ``Fraction``
arithmetic on growing integers, Python-level loops) but uses nothing from
it, so a change to the package never moves the kernel.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# A typical median kernel time on the 2-vCPU host the benchmark was defined
# on (Python 3.11.7), where it ranged from 0.0029 s to 0.0047 s within an
# hour.  Changing it rescales every timing of the benchmark.
REFERENCE_S = 0.004
REPS = 12


def kernel(n: int = 36) -> Fraction:
    """Last coefficient of ``1 / (1 - x/3 - x^2/5 - ...)`` to order ``n``."""
    den = [Fraction(1)] + [Fraction(-1, 2 * i + 1) for i in range(1, n)]
    inv = [Fraction(1)]
    for m in range(1, n):
        inv.append(-sum(den[i] * inv[m - i] for i in range(1, m + 1)))
    return inv[-1]


def sample(reps: int = REPS) -> float:
    """Median time of ``reps`` kernel runs, in seconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
