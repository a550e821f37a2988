"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on share their cores, and their speed
drifts: a fixed pure-Python loop has been seen to take anywhere from 20 ms
to 37 ms within a few minutes.  CPU time drifts with wall time, so it is not
time stolen by the hypervisor, and a longer run does not average it away.

Each request is therefore timed between two runs of a fixed calibration
kernel, and the reported timings are in *reference seconds*: wall seconds
scaled to a machine on which one kernel takes ``REFERENCE_S``.  The kernel mixes what the
program does (breadth-first search over Python lists, ``Fraction``
arithmetic, small numpy reductions) but calls none of its code, so a change
to the program cannot move the calibration.  Raw wall timings are printed
next to the reported ones.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_S = 1.0e-3
"""Kernel time that defines one reference second; about the median kernel
time on the 2-core, 2.1 GHz Xeon virtual machine the benchmark was built on."""

_N = 80
_rng = random.Random(7)
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _v in range(1, _N):
    _u = _rng.randrange(_v)
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)
_MATRIX = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % 13


def _kernel() -> Fraction:
    total = Fraction(0)
    for source in range(0, _N, 8):
        level = [-1] * _N
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        total += Fraction(sum(level), source + 1)
    for _ in range(8):
        np.minimum(_MATRIX[:, None, :8], _MATRIX[None, :, :8]).sum()
    return total


def measure(repeats: int = 3) -> float:
    """Fastest of ``repeats`` kernel runs, in wall seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def reference_seconds(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` in reference seconds, by the calibrations that bracket it.

    On this benchmark's requests, the mean of the calibrations taken just
    before and just after a request left less spread between its repeats
    than a median over the calibrations of the neighbouring requests.
    """
    return wall_s * REFERENCE_S * 2 / (before_s + after_s)
