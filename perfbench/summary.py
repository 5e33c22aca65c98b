"""Percentile, tail and spread helpers for the benchmark and its steadiness check."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise the next lower candidate is used.
TAIL_BEYOND = 10
TAIL_CANDIDATES = (99, 95, 90)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly beyond the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(n: int, candidates=TAIL_CANDIDATES) -> float | None:
    """Highest candidate percentile with TAIL_BEYOND samples beyond it, or None."""
    for q in candidates:
        if samples_beyond(n, q) >= TAIL_BEYOND:
            return q
    return None


def tail_name(q: float) -> str:
    """Metric-name fragment for a percentile: 99 -> 'p99', 99.9 -> 'p99.9'."""
    return f"p{q:g}"


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median

