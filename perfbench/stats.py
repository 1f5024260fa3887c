"""Percentiles and the sample-count rule for reported latencies."""

from __future__ import annotations

import math


def _rank(count: int, q: float) -> int:
    # The epsilon keeps float error in q * count (0.9 * 130) from
    # bumping an exact rank up by one.
    return max(1, math.ceil(q * count - 1e-9))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-quantile."""
    return count - _rank(count, q) if count else 0
