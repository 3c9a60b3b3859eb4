"""The machine's speed during a run, from a fixed calibration kernel.

On a shared 2-core box the same code runs 5-40 % slower for seconds,
minutes or hours at a time, whatever the program does.  A timing taken
then says more about the neighbours than about the program, and no
regression bound can be held against it.  So every run times a fixed
kernel — a mix of numpy array passes and interpreter bytecode, like the
workloads themselves — in short pieces placed between the blocks of the
measured window and between the phases of set-up, and reports its
timings **at reference speed**: divided by the speed factor of the
stretch they were taken in, the lower-quartile piece time there over
``REFERENCE_PIECE_S``.  A change to the program cannot move the kernel;
a slow stretch of the machine moves kernel and program together and
cancels.  The factor is reported as ``driver.speed_factor``, and the
timings as measured are printed beside the normalized ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: Median piece time on the reference box when it is quiet.  A constant:
#: changing it rescales every timing of every workload by the same factor.
REFERENCE_PIECE_S = 0.0357

_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(30_000)
_INDEX = _RNG.integers(0, 30_000, 30_000)
_WEIGHTS = _RNG.random(30_000)


def piece() -> float:
    """Seconds one calibration piece takes right now (~36 ms)."""
    began = time.perf_counter()
    for _ in range(100):
        prefix = np.cumsum(_VALUES)
        # A plain reduction, not a BLAS dot: BLAS worker threads spin
        # after a call and would make the next lines 10x slower.
        float(((prefix[_INDEX] - prefix[_INDEX // 2]) * _WEIGHTS).sum())
        total = 0
        for i in range(2_000):
            total += i * i % 7
    return time.perf_counter() - began


def quiet_quartile(values, higher_is_better: bool = False) -> float:
    """The value a quarter of the way in from the better end.  The
    machine's other tenants only ever slow a block down, so the better
    blocks are the truer ones; the minimum alone would be one lucky
    sample."""
    ordered = sorted(values, reverse=higher_is_better)
    return ordered[round(0.25 * (len(ordered) - 1))]


class Meter:
    """Calibration pieces with the time each was taken at."""

    def __init__(self, enabled: bool = True):
        #: Off for the self-test: every factor then reads 1.0.
        self.enabled = enabled
        self.times: list[float] = []
        self.pieces: list[float] = []

    def tick(self, count: int = 1) -> None:
        for _ in range(count if self.enabled else 0):
            self.pieces.append(piece())
            self.times.append(time.perf_counter())

    def factor(self, began: float, ended: float, margin: float = 0.5) -> float:
        """Speed factor of the stretch ``[began, ended]`` (> 1 = the
        machine was slower than the reference), from the pieces taken
        inside it or within ``margin`` seconds of it.  Their lower
        quartile, not their median: a burst that hits a piece inflates
        it, a slow stretch inflates all of them, and only the second
        should rescale the measurement."""
        lo = bisect.bisect_left(self.times, began - margin)
        hi = bisect.bisect_right(self.times, ended + margin)
        inside = self.pieces[lo:hi] or self.pieces
        if not inside:   # calibration switched off
            return 1.0
        return quiet_quartile(inside) / REFERENCE_PIECE_S
