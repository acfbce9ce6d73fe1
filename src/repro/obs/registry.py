"""Per-simulation metrics registry: counters, histograms, gauges.

One :class:`MetricsRegistry` hangs off every
:class:`~repro.sim.kernel.Simulator`; components obtain their metric
handles once (at construction or on first use) and bump them directly,
so the hot path is an attribute add — no name lookup per increment.
The registry is the *queryable* side: it indexes every metric by
``(name, labels)`` so experiments, the CLI, and tests read one place
instead of scraping ad-hoc fields scattered over the Vm/network layers
(which are now thin property views over these counters).

Metric families in use:

======================  =======================  =========================
name                    labels                   meaning
======================  =======================  =========================
``net.sent``            —                        physical sends attempted
``net.delivered``       —                        handler invocations
``net.dropped.partition`` —                      partition drops
``net.dropped.loss``    —                        sampled-loss drops
``net.bundle.size``     — (histogram)            payloads per bundle
``link.*``              ``src, dst``             per-link gauges
``vm.created``          ``site``                 Vm create records
``vm.accepted``         ``site``                 Vm accept records
``vm.acks``             ``site``                 explicit acks sent
``vm.acks_suppressed``  ``site``                 acks elided by piggyback
``vm.retransmissions``  ``site, peer``           re-sends of live Vm
``vm.duplicates``       ``site, peer``           receiver-side discards
``vm.delivery``         ``src, dst`` (histogram) create→accept latency
``txn.decision``        ``site, outcome`` (hist) submit→decision latency
``rebal.shipments``     ``site``                 daemon surplus pushes
``rebal.pulls``         ``site``                 daemon deficit pulls
``serve.enqueued``      ``site``                 requests admitted
``serve.dequeued``      ``site``                 requests dispatched
``serve.shed``          ``site, reason``         admission refusals
``serve.lease_expired`` ``site``                 slots reclaimed (wipes)
``serve.wait``          ``site`` (histogram)     enqueue→dispatch wait
``serve.depth``         ``site`` (gauge)         live queue depth
``serve.inflight``      ``site`` (gauge)         live slots in use
======================  =======================  =========================

Histograms keep raw samples and summarize lazily through
:func:`repro.metrics.stats.summarize` (imported at call time to keep
the obs layer importable from the simulation kernel without cycles).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

LabelKey = tuple[tuple[str, str], ...]

#: What a gauge provider yields per gauge: name, labels, reader.
ProvidedGauge = tuple[str, dict[str, Any], Callable[[], Any]]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    """The canonical label tuple: pairs in label-name order.

    Names are distinct (they arrive as keyword arguments), so names
    alone decide the order — and with none, one or two labels, which
    is every family in use, that takes no sort at all."""
    items = tuple([(key, str(value)) for key, value in labels.items()])
    if len(items) < 2:
        return items
    if len(items) == 2:
        return items if items[0][0] < items[1][0] else items[::-1]
    return tuple(sorted(items))


class CounterMetric:
    """A monotonically increasing integer."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class HistogramMetric:
    """Raw-sample histogram with on-demand summary statistics."""

    __slots__ = ("name", "labels", "values")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    def summary(self):
        from repro.metrics.stats import summarize
        return summarize(self.values)


class GaugeMetric:
    """A read-through view of state owned elsewhere (e.g. link counters)."""

    __slots__ = ("name", "labels", "_read")

    def __init__(self, name: str, labels: LabelKey,
                 read: Callable[[], Any]) -> None:
        self.name = name
        self.labels = labels
        self._read = read

    @property
    def value(self) -> Any:
        return self._read()


class MetricsRegistry:
    """Index of every metric in one simulation, by (name, labels)."""

    __slots__ = ("_counters", "_histograms", "_gauges", "_providers",
                 "_marks")

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], CounterMetric] = {}
        self._histograms: dict[tuple[str, LabelKey], HistogramMetric] = {}
        self._gauges: dict[tuple[str, LabelKey], GaugeMetric] = {}
        self._providers: list[Callable[[], Iterable[ProvidedGauge]]] = []
        # Cross-component latency marks (e.g. Vm create at the sender,
        # accept at the receiver): key -> start time.
        self._marks: dict[Any, float] = {}

    # -- registration / lookup --------------------------------------------

    def counter(self, name: str, **labels: Any) -> CounterMetric:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = CounterMetric(name, key[1])
        return metric

    def histogram(self, name: str, **labels: Any) -> HistogramMetric:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = HistogramMetric(name, key[1])
        return metric

    def gauge(self, name: str, read: Callable[[], Any],
              **labels: Any) -> GaugeMetric:
        key = (name, _label_key(labels))
        metric = GaugeMetric(name, key[1], read)
        self._gauges[key] = metric
        return metric

    def gauge_provider(
            self, provider: Callable[[], Iterable[ProvidedGauge]]) -> None:
        """Register a source of gauges that is asked at query time.

        For state that comes into being lazily and in bulk (a network's
        links): one registration per owner, and a ``GaugeMetric`` and
        its reader exist only while a query looks at them — instead of
        three of each per link, live for the whole run. To
        :meth:`gauges` and :meth:`snapshot` a provided gauge is a
        registered one."""
        self._providers.append(provider)

    def close(self) -> None:
        """Let go of what reads other components' state — gauge
        readers and providers — and of the marks nothing will collect.
        Counters and histograms stay readable."""
        self._gauges = {}
        self._providers = []
        self._marks = {}

    # -- cross-component latency marks ------------------------------------

    def mark(self, key: Any, time: float) -> None:
        """Remember when *key*'s lifespan started (first mark wins)."""
        self._marks.setdefault(key, time)

    def elapsed_since_mark(self, key: Any, time: float) -> float | None:
        """Pop *key*'s mark and return the elapsed span (None if unset)."""
        start = self._marks.pop(key, None)
        if start is None:
            return None
        return time - start

    # -- queries -----------------------------------------------------------

    def counters(self, name: str | None = None) -> list[CounterMetric]:
        return [metric for (metric_name, _), metric
                in sorted(self._counters.items())
                if name is None or metric_name == name]

    def histograms(self, name: str | None = None) -> list[HistogramMetric]:
        return [metric for (metric_name, _), metric
                in sorted(self._histograms.items())
                if name is None or metric_name == name]

    def gauges(self, name: str | None = None) -> list[GaugeMetric]:
        found = dict(self._gauges)
        for provider in self._providers:
            for gauge_name, labels, read in provider():
                key = (gauge_name, _label_key(labels))
                found[key] = GaugeMetric(gauge_name, key[1], read)
        return [metric for (metric_name, _), metric
                in sorted(found.items())
                if name is None or metric_name == name]

    def total(self, name: str) -> int:
        """Sum of a counter family across all label sets."""
        return sum(metric.value for metric in self.counters(name))

    def snapshot(self) -> dict[str, Any]:
        """Deterministic dump of every metric (for export / debugging)."""
        data: dict[str, Any] = {"counters": [], "gauges": [],
                                "histograms": []}
        for metric in self.counters():
            data["counters"].append({"name": metric.name,
                                     "labels": dict(metric.labels),
                                     "value": metric.value})
        for metric in self.gauges():
            data["gauges"].append({"name": metric.name,
                                   "labels": dict(metric.labels),
                                   "value": metric.value})
        for metric in self.histograms():
            summary = metric.summary()
            data["histograms"].append({
                "name": metric.name, "labels": dict(metric.labels),
                "count": summary.count, "mean": summary.mean,
                "p50": summary.p50, "p95": summary.p95,
                "p99": summary.p99, "max": summary.maximum})
        return data


__all__ = ["MetricsRegistry", "CounterMetric", "HistogramMetric",
           "GaugeMetric"]
