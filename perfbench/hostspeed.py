"""Host-speed calibration for the step timings.

The hosts this benchmark runs on drift by 20% and more over tens of seconds
(the same inputs measured a minute apart differ that much), more than the
bounds a regression check can afford.  A fixed piece of pure-Python and
NumPy work that does not touch the program is timed next to the measured
steps of the in-process workloads, and every step time is scaled by
``REFERENCE_S`` over the nearby calibration time: the result is the step time on a host as fast as the one
where the calibration took ``REFERENCE_S``.  The program's own speed does
not enter the calibration, so a faster program still shows as faster.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: Calibration time on the reference host (a 2-CPU x86-64 VM, Python 3.11).
REFERENCE_S = 0.0035

_DATA = np.random.default_rng(0).random(4096)


def calibrate(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds one fixed calibration takes now, as ``clock`` counts them."""
    start = clock()
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    table: dict = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + 1
    for _ in range(40):
        np.sort(_DATA) * 2.0
    return clock() - start


def scale_gaps(gaps: Sequence[float], marks: Sequence[Tuple[int, float]]) -> List[float]:
    """Scale ``gaps`` by the calibrations taken between them.

    ``marks`` holds ``(gap index, seconds)``: a calibration taken just before
    gap ``index``.  Each gap uses the mean of the calibrations on either
    side of it (the nearest one at the ends).
    """
    if not marks:
        raise ValueError("no calibration taken")
    out = []
    m = 0
    for index, gap in enumerate(gaps):
        while m + 1 < len(marks) and marks[m + 1][0] <= index:
            m += 1
        before = marks[m][1]
        after = marks[m + 1][1] if m + 1 < len(marks) else before
        out.append(gap * REFERENCE_S * 2.0 / (before + after))
    return out
