"""Summary statistics over transaction latencies and counts.

Kept dependency-free (no numpy) so the core library stays lightweight.
The serving front-end feeds 10^5-10^6 latency samples through
``summarize``, so the sample is sorted exactly once per summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not values:
        return math.nan
    return percentile_sorted(sorted(values), q)


def percentile_sorted(ordered: list[float], q: float) -> float:
    """Percentile of an *already sorted* sample — no copy, no sort.

    Callers that need several percentiles of the same sample sort once
    and index (``summarize`` does); sorting inside ``percentile`` per
    quantile tripled the dominant cost at 10^6 samples.
    """
    if not ordered:
        return math.nan
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} out of range")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a latency sample."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float


def summarize(values: list[float]) -> Summary:
    if not values:
        return Summary(0, math.nan, math.nan, math.nan, math.nan, math.nan)
    ordered = sorted(values)
    return Summary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=percentile_sorted(ordered, 50),
        p95=percentile_sorted(ordered, 95),
        p99=percentile_sorted(ordered, 99),
        maximum=ordered[-1])
