"""A fixed pure-Python workload that measures how fast the machine runs now.

The box the benchmark runs on changes speed by up to half over seconds
to minutes (shared hosts), which moves every timing of a run together.
The runner times :func:`calibration_work` before every phase step and
scales each timing by ``REFERENCE_S`` over the median of the
calibrations around its step: timings are reported in *reference
seconds*, the seconds the work would have taken with the calibration
loop running at ``REFERENCE_S``.  The loop uses the same kinds of
operations as the engine (tuple hashing, set and dict inserts,
probes), so a slow spell slows both alike; it imports nothing from the
engine, so no change to the engine can move it.

Not all work follows the loop in full.  In log-log fits over 20 to 25
runs per workload on the 2-CPU development box, the analytics medians
moved 0.7 to 1.0 times as much as the loop, the live ops and recovery
only 0.3 to 0.7 times as much.  So serving timings (live ops and
recovery) are scaled by the square root of the factor
(``phases.SERVING_SENSITIVITY``), the others by the factor.  When the
machine's speed changed halfway through ten runs, the live metrics
scaled in full spread by up to 0.19 of their median over the ten, and
by at most 0.08 scaled by the square root; recovery by up to 0.14 and
0.09.
"""

from __future__ import annotations

import time

#: Calibration seconds at reference speed (this loop's typical time
#: on the 2-CPU development box).
REFERENCE_S = 0.0075

_EDGES = tuple((node, (node * 7 + step) % 96 + 96 * (node // 96 + 1))
               for node in range(96 * 5) for step in (1, 2))


def calibration_work() -> int:
    """Semi-naive reachability over a fixed six-layer graph."""
    successors: dict[int, list[int]] = {}
    for source, target in _EDGES:
        successors.setdefault(source, []).append(target)
    total = set(_EDGES)
    delta = set(_EDGES)
    while delta:
        produced = set()
        for source, middle in delta:
            for target in successors.get(middle, ()):
                pair = (source, target)
                if pair not in total:
                    produced.add(pair)
        total |= produced
        delta = produced
    return len(total)


def calibrate(repeats: int = 3) -> float:
    """The fastest of *repeats* timings of :func:`calibration_work`."""
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        calibration_work()
        best = min(best, time.perf_counter() - begin)
    return best
