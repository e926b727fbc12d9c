"""Host-speed calibration, timed between the benchmark's operations.

The benchmark shares a host whose speed swings by up to 2x within seconds
and stays slow for minutes at a time (see README.md, "Noise").  Each timed
operation is bracketed by two calibrations, and its time is scaled by REF_S
over their mean: the time the operation would have taken with the host at
the speed where a calibration reads REF_S.

A calibration is the geometric mean of two probes, neither of which touches
herdsim, so that a change to herdsim cannot move them:

    kernel  a fixed pure-Python loop over small named tuples and float math,
            the kind of work herdsim's engine does
    spawn   a `python -c pass` child, the start-up every CLI child pays

On the host the figures come from, the kernel alone tracks in-process
run() but over-corrects the CLI children, and the spawn alone the reverse;
their geometric mean tracks both (README.md, "Noise").
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

# A calibration on an idle 2-core Xeon VM (Python 3.11): kernel 15.5 ms,
# spawn 45 ms.  Fixed, so that scaled times compare across runs and commits.
REF_S = 0.026
KERNEL_REPEATS = 3
SPAWN_REPEATS = 2
ITERATIONS = 12000


class _P(NamedTuple):
    x: float
    y: float

    def __add__(self, other):
        return _P(self.x + other.x, self.y + other.y)

    def __mul__(self, s):
        return _P(self.x * s, self.y * s)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def _kernel(n: int) -> _P:
    points = [_P(math.cos(i), math.sin(i)) for i in range(32)]
    acc = _P(0.0, 0.0)
    for k in range(n):
        p = points[k & 31]
        acc = acc + p * (math.atan2(p.y, p.x) / (p.norm() + 1e-9))
    return acc


def kernel_s() -> float:
    """The kernel's fastest time of KERNEL_REPEATS, in seconds."""
    best = math.inf
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        _kernel(ITERATIONS)
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate(spawn: Callable[[], float]) -> float:
    """One calibration, in seconds.  `spawn` runs `python -c pass` the way
    the benchmark runs its CLI children and returns its wall time."""
    spawn_s = min(spawn() for _ in range(SPAWN_REPEATS))
    return math.sqrt(kernel_s() * spawn_s)
