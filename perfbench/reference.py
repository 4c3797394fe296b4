"""A fixed reference kernel, timed before every timed iteration and set-up.

The shared two-core host this benchmark was written on runs all code up to
about 1.6 times slower for stretches of seconds to minutes, so the median
wall time of a 30-second run spreads by 15-25% between runs of the same
code. The kernel does the same kinds of work as maskdg (Python-level loops,
small numpy operations, matrix products and a dense eigh) and slows with
it, so an iteration's wall time divided by the kernel's, timed just before
it, stays much steadier. In one process per workload, with this kernel
and the host in its noisy state, the spread (Q3 - Q1) / median of 30-second
medians fell from 0.14 to 0.03 for dg_2x2 and from 0.06 to 0.05 for
citation_eval. Python-level work alone tracked dg_2x2 but made
citation_eval worse (0.09), and eigh alone the reverse.

The benchmark reports times at nominal speed: wall seconds times
NOMINAL_SECONDS over the kernel's seconds, which is the time the work would
take on a host where the kernel takes NOMINAL_SECONDS. The kernel is part
of the benchmark, not of the program, so a change to maskdg moves a time at
nominal speed exactly as it moves the wall time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Timed runs of the kernel before each iteration; the fastest is kept, since
# host noise only ever adds time.
REPEATS = 2
# A round figure near the kernel's wall time on the 2-vCPU host this was
# written on (OpenBLAS, one thread); it only sets the scale of the times.
NOMINAL_SECONDS = 0.030


def at_nominal_speed(seconds: float, reference_seconds: float) -> float:
    """Wall seconds measured when the kernel took `reference_seconds`, as
    seconds at nominal speed."""
    return seconds * NOMINAL_SECONDS / reference_seconds


class Reference:
    """Interpreter work, small numpy operations and medium matrix products,
    then two dense 300 x 300 eigh calls, in about equal time. The small
    arrays stay under 128 KiB: temporaries of about a megabyte come from
    mmap or the heap depending on the allocator's history, and a kernel made
    of them doubled or halved its time from one timing to the next, which
    the program's time did not follow."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(64, 64))
        self.x = rng.normal(size=64)
        self.b = rng.normal(size=(200, 64))
        self.m = rng.normal(size=(300, 300))

    def run(self) -> float:
        total = 0.0
        counts = {}
        for i in range(25_000):
            key = i % 97
            counts[key] = counts.get(key, 0.0) + i * 0.5
            total += counts[key]
        for _ in range(650):
            y = np.tanh(self.a @ self.x)
            total += float(y.sum()) + float(np.exp(-y * y).max())
        for _ in range(125):
            total += float(np.tanh(self.b @ self.a).sum())
        for _ in range(2):
            total += float(np.linalg.eigh(self.m @ self.m.T)[0].sum())
        return total

    def seconds(self) -> float:
        """Wall seconds of one run of the kernel: the fastest of REPEATS."""
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            self.run()
            times.append(perf_counter() - start)
        return min(times)
