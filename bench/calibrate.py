"""Host-speed calibration for timing on a shared machine.

On the 2-vCPU host this benchmark was built on, the instruction rate of a
single thread swings by up to a third over periods from a fraction of a
second to minutes (a fixed pure-Python loop takes anywhere from 150 to 235
ms), and nothing inside the sandbox controls that.  Every timed interval is
therefore bracketed by samples of a fixed piece of reference work, a mix of
interpreter loops and small numpy operations like the workloads, and is
rescaled to the pace at which that work runs in ``REF_UNIT_S`` seconds:

    normalised time = measured time * REF_UNIT_S / (mean reference-unit time around it)

A change to nhsteer cannot alter the reference work, so it still shows in
full; only the host's drift cancels.
"""

from __future__ import annotations

import time

import numpy as np

REF_UNIT_S = 4.0e-4  # one reference unit at the nominal pace of the reference host
UNITS_PER_SAMPLE = 3

_GRID = np.linspace(0.0, 1.0, 257)


def _unit() -> float:
    acc = 0.0
    table = {}
    for i in range(600):
        acc += (i * 7 % 13) * 0.5
        table[i & 63] = acc
    for _ in range(40):
        acc += float(np.cos(_GRID * acc) @ _GRID) * 1e-9
    return acc


def sample() -> float:
    """Seconds per reference unit right now: the fastest of a few units.

    The minimum leaves out a unit slowed by a collector pause or by caches
    the timed operation just evicted.
    """
    best = float("inf")
    for _ in range(UNITS_PER_SAMPLE):
        start = time.perf_counter()
        _unit()
        best = min(best, time.perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Scale that turns a measured interval between two samples into normalised time."""
    return REF_UNIT_S / (0.5 * (before + after))
