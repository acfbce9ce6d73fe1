"""Measurement: per-transaction records, summary statistics, tables."""

from repro.metrics.collector import Collector, CollectorInconsistency
from repro.metrics.stats import Summary, percentile, percentile_sorted, summarize
from repro.metrics.tables import Table

__all__ = [
    "Collector",
    "CollectorInconsistency",
    "Summary",
    "Table",
    "percentile",
    "percentile_sorted",
    "summarize",
]
