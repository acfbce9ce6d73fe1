"""Structured observability: trace events, metrics, export.

The paper's claims are claims about *instants* — when a Vm came into
existence, when it was accepted, when a transaction decided, when a
site crashed — so this package gives every
:class:`~repro.sim.kernel.Simulator` two always-present companions:

* ``sim.obs`` — a :class:`~repro.obs.bus.TraceBus` publishing the
  events of :mod:`repro.obs.events`, one record type and a table of
  kinds (disabled by default; zero hot-path cost until enabled);
* ``sim.metrics`` — a :class:`~repro.obs.registry.MetricsRegistry` of
  per-site / per-channel counters and latency histograms.

:mod:`repro.obs.export` writes events as canonical JSON lines;
:mod:`repro.obs.timeline` filters and renders them for the
``repro trace`` CLI. See docs/OBSERVABILITY.md.
"""

from repro.obs.bus import DEFAULT_RING_LIMIT, TraceBus
from repro.obs.events import KINDS, TraceEvent
from repro.obs.export import event_to_json
from repro.obs.registry import CounterMetric, HistogramMetric, MetricsRegistry
from repro.obs.timeline import TraceFilter, render_timeline

__all__ = [
    "DEFAULT_RING_LIMIT", "KINDS", "TraceBus", "TraceEvent",
    "TraceFilter", "render_timeline",
    "CounterMetric", "HistogramMetric", "MetricsRegistry", "event_to_json",
]
