"""Machine-speed gauge: scale wall times to a fixed reference speed.

The benchmark shares a small virtual machine with other tenants, and its
CPU speed is not constant: a fixed pure-Python loop alternates between two
speeds about 1.6x apart, for stretches of seconds to minutes (measured on
the 2-vCPU machine this benchmark was tuned on: the same 0.4 s mine read
0.23-0.45 s within 90 seconds, and 10-second medians of one operation
spread 22% across windows).  Left alone, that drift is larger than the
changes the benchmark exists to detect.

So every timed operation is accompanied by runs of :func:`kernel`, a fixed
piece of interpreter work that does not touch the program under test.  A
wall time ``t`` measured while the kernel takes ``k`` seconds is reported
as ``t * REFERENCE_S / k``: the time the operation would have taken at the
speed where the kernel takes ``REFERENCE_S``.  On the same 10-second
windows, scaling by a kernel of this kind cut the spread of the median
from 22% to 8%; across five seeds of mine-instances, the batch time read
0.93-1.29 s raw and 0.84-0.87 s scaled.  A change to the program cannot
move the kernel, so a faster program still reads faster.  Raw wall times
are kept next to every scaled one in the results file.
"""

from __future__ import annotations

import statistics
import time

#: Kernel time, in seconds, that scaled times are expressed at.
REFERENCE_S = 0.004


def kernel() -> int:
    """A fixed slice of interpreter work: dict updates, list appends, a sort."""
    counts: dict[int, int] = {}
    items: list[int] = []
    for i in range(15000):
        key = (i * 7919) % 613
        counts[key] = counts.get(key, 0) + 1
        items.append(key ^ i)
    items.sort()
    return len(counts) + items[len(items) // 2]


def kernel_seconds(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel runs."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


class Gauge:
    """Kernel timings taken between operations, and the scale they imply.

    Call :meth:`sample` right before each timed operation and once after
    the last one; operation ``k`` then lies between samples ``k`` and
    ``k + 1``.  A single kernel run jitters by a few percent, while the
    machine's speed holds for seconds, so :meth:`factor` takes the median of
    the samples within ``WINDOW`` operations on either side.
    """

    #: Operations on either side whose kernel samples set one scale.
    WINDOW = 3

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, repeats: int = 1) -> float:
        """Time the kernel now; returns the factor ``REFERENCE_S / kernel``."""
        seconds = kernel_seconds(repeats)
        self.samples.append(seconds)
        return REFERENCE_S / seconds

    def factor(self, k: int, window: int = WINDOW) -> float:
        """Scale of the operation between samples ``k`` and ``k + 1``."""
        low = max(0, k - window)
        return REFERENCE_S / statistics.median(self.samples[low : k + window + 2])
