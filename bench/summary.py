"""Order statistics and span arithmetic shared by the benchmark's reports."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (NumPy's default method); 0.0 when
    there are no samples, so a layer a workload never reaches reads 0."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_pct(n: int) -> float:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With n samples, percentile p leaves n * (1 - p/100) samples above it,
    so p = 100 * (n - TAIL_BEYOND) / n. Below TAIL_BEYOND + 1 samples no
    percentile qualifies and the tail falls back to the maximum.
    """
    if n <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (n - TAIL_BEYOND) / n


def tail(values: Sequence[float]) -> float:
    return percentile(values, tail_pct(len(values)))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def covered(intervals: Iterable[tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)
