"""Windowed serving statistics: latency/shed/abort rates over time.

The serving front-end measures *client-perceived* latency — enqueue to
decision — which is strictly longer than ``TxnResult.latency`` (dispatch
to decision) whenever requests queue. :class:`ServeSample` records the
three timestamps per request; :class:`StreamingWindowStats` buckets
samples into fixed windows and summarizes each, which is how the
saturation knee is located (p99 vs offered load, docs/SERVING.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.stats import percentile_sorted


@dataclass(frozen=True, slots=True)
class ServeSample:
    """One request's life through the serving front-end.

    Slotted: a front-end retains one per decided request, and a
    ``__dict__`` each is most of what that costs."""

    site: str                    # site the request was queued at
    arrived_at: float            # enqueue time (admission passed)
    dispatched_at: float         # left the queue, entered the system
    finished_at: float           # decision time (commit or abort)
    committed: bool

    @property
    def queue_wait(self) -> float:
        return self.dispatched_at - self.arrived_at

    @property
    def latency(self) -> float:
        """Client-perceived: enqueue to decision."""
        return self.finished_at - self.arrived_at


@dataclass(frozen=True, slots=True)
class WindowStat:
    """Aggregates over one [start, start+width) window."""

    start: float
    offered: int                 # arrivals (admitted + shed) in window
    shed: int
    committed: int
    aborted: int
    p50: float
    p99: float
    mean_wait: float

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def abort_rate(self) -> float:
        decided = self.committed + self.aborted
        return self.aborted / decided if decided else 0.0


class StreamingWindowStats:
    """Samples bucketed by *arrival* time into fixed windows.

    Keying on arrival (not decision) time means a window's latency
    tail reflects the load offered during that window — the quantity
    the knee is defined over.

    Retaining every :class:`ServeSample` is fine at harness scales and
    hopeless at 10^5-10^6 sites. Point the serving front-end's
    ``on_sample``/``on_overload`` sinks here (with ``retain_samples``
    off) and each sample is folded into its arrival window as two
    floats and three counters, then dropped — samples outside
    [start, end) cost nothing at all. A retained list is folded the
    same way, one ``add`` per sample.
    """

    def __init__(self, start: float, end: float, width: float) -> None:
        if width <= 0:
            raise ValueError("window width must be positive")
        self.start = start
        self.end = end
        self.width = width
        count = max(1, int((end - start) / width + 0.5))
        self._latencies: list[list[float]] = [[] for _ in range(count)]
        self._waits: list[list[float]] = [[] for _ in range(count)]
        self._committed = [0] * count
        self._aborted = [0] * count
        self._sheds = [0] * count

    def _index(self, at: float) -> int | None:
        if not self.start <= at < self.end:
            return None
        count = len(self._committed)
        return min(count - 1, int((at - self.start) / self.width))

    def add(self, sample: ServeSample) -> None:
        slot = self._index(sample.arrived_at)
        if slot is None:
            return
        self._latencies[slot].append(sample.latency)
        self._waits[slot].append(sample.queue_wait)
        if sample.committed:
            self._committed[slot] += 1
        else:
            self._aborted[slot] += 1

    def add_shed(self, at: float) -> None:
        slot = self._index(at)
        if slot is not None:
            self._sheds[slot] += 1

    def stats(self) -> list[WindowStat]:
        out = []
        for slot, latencies in enumerate(self._latencies):
            ordered = sorted(latencies)
            waits = self._waits[slot]
            decided = self._committed[slot] + self._aborted[slot]
            out.append(WindowStat(
                start=self.start + slot * self.width,
                offered=decided + self._sheds[slot],
                shed=self._sheds[slot],
                committed=self._committed[slot],
                aborted=self._aborted[slot],
                p50=percentile_sorted(ordered, 50),
                p99=percentile_sorted(ordered, 99),
                mean_wait=sum(waits) / len(waits) if waits else 0.0))
        return out
