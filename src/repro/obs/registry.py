"""Per-simulation metrics registry: counters and histograms.

One :class:`MetricsRegistry` hangs off every
:class:`~repro.sim.kernel.Simulator`; components obtain their metric
handles once (at construction or on first use) and bump them directly,
so the hot path is an attribute add — no name lookup per increment.
The registry is the *queryable* side: it indexes every metric by
``(name, labels)`` so experiments, the CLI, and tests read one place
instead of scraping ad-hoc fields scattered over the Vm/network layers.

Metric families in use:

======================  =======================  =========================
name                    labels                   meaning
======================  =======================  =========================
``net.sent``            —                        physical sends attempted
``net.delivered``       —                        handler invocations
``net.dropped.partition`` —                      partition drops
``net.dropped.loss``    —                        sampled-loss drops
``net.bundle.size``     — (histogram)            payloads per bundle
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
======================  =======================  =========================

The three per-pair families (``vm.retransmissions``, ``vm.duplicates``,
``vm.delivery``) get a row for a pair on its first count, not when its
channel opens: a pair that never retransmits, discards or delivers
books nothing, and a family with no row reads 0 through
:meth:`MetricsRegistry.total`.

Histograms keep raw samples, each an 8-byte slot of a float
``array('d')`` — not a float object behind a list slot — so a run that
keeps one sample per op keeps 8 B for it. An integer sample reads back
as a float. Readers summarize them with
:func:`repro.metrics.stats.summarize` (``len``, ``sorted`` and
iteration work on the array as on a list).
"""

from __future__ import annotations

from array import array
from typing import Any

LabelKey = tuple[tuple[str, str], ...]


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


class HistogramMetric:
    """Raw samples of one latency family, as C doubles."""

    __slots__ = ("name", "labels", "values")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.values: array[float] = array("d")

    def observe(self, value: float) -> None:
        self.values.append(value)


class MetricsRegistry:
    """Index of every metric in one simulation, by (name, labels)."""

    __slots__ = ("_counters", "_histograms", "_marks")

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], CounterMetric] = {}
        self._histograms: dict[tuple[str, LabelKey], HistogramMetric] = {}
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

    def close(self) -> None:
        """Let go of the marks nothing will collect. Counters and
        histograms stay readable."""
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

    def total(self, name: str) -> int:
        """Sum of a counter family across all label sets."""
        return sum(metric.value for metric in self.counters(name))


__all__ = ["MetricsRegistry", "CounterMetric", "HistogramMetric"]
