"""Host-speed calibration: a fixed exact-arithmetic kernel timed between ops.

On a shared host the same code can run up to twice as slowly for tens of
seconds while the process keeps its CPU (its CPU time grows with its wall
time), so a raw wall time measures the neighbours as much as the program.
The benchmark therefore times this kernel, which uses only the standard
library and never changes with polyban, before the first op of a batch and
after every op, and rescales each op's latency to the kernel's reference
speed:

    normalized = raw * REFERENCE_S / kernel_s

where kernel_s is the mean of the kernel times taken just before and just
after the op.  A faster polyban still reads as faster; a slower host does
not.  Raw times are reported beside the normalized ones.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# The kernel's time on an idle 2.1 GHz Xeon vCPU with CPython 3.11, so that
# normalized times read as seconds on that machine when it is quiet.
REFERENCE_S = 0.002
REPEATS = 3

_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)] for _ in range(9)]


def _eliminate() -> list:
    """Gauss-Jordan elimination of a fixed 9x9 rational matrix."""
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def kernel_s() -> float:
    """The fastest of a few kernel runs: the host's current speed."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        _eliminate()
        best = min(best, perf_counter() - start)
    return best
