"""Medians and tail percentiles for the benchmark's latency samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it.

    With fewer than 20 samples no tail beyond the median is defensible,
    so the median (50) is returned.
    """
    best = TAIL_CANDIDATES[0]
    for candidate in TAIL_CANDIDATES:
        if count * (100.0 - candidate) / 100.0 >= 10.0 - 1e-9:
            best = candidate
    return best


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``math.inf`` samples sort last)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def tail(samples: Sequence[float], named: float) -> tuple[float, float]:
    """``(percentile used, value)`` for a metric named after *named*.

    The rule caps the percentile at the highest one with ten samples
    beyond it; a run sized too small for the named percentile reports
    the capped one, and says so in its detail output.
    """
    used = min(named, tail_percentile(len(samples)))
    return used, percentile(samples, used)
