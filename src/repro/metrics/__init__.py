"""Measurement: per-transaction records, summary statistics, tables."""

from repro.metrics.collector import Collector, CollectorInconsistency
from repro.metrics.stats import Summary, percentile, percentile_sorted, summarize
from repro.metrics.tables import Table
from repro.metrics.windows import (
    ServeSample,
    StreamingWindowStats,
    WindowStat,
)

__all__ = [
    "Collector",
    "CollectorInconsistency",
    "ServeSample",
    "StreamingWindowStats",
    "Summary",
    "Table",
    "WindowStat",
    "percentile",
    "percentile_sorted",
    "summarize",
]
