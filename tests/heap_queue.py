"""A binary heap of bare events, kept as the ordering *reference*:
``tests/test_queue_properties.py`` replays random schedules against it
and demands identical pop sequences, and the kernel, shard and
lifetime suites substitute it through
``Simulator(queue_factory=HeapEventQueue)`` to pin contracts on both
implementations. It orders by ``Event.__lt__`` directly, so every push
and pop pays ``O(log pending)`` Python-level calls — the cost the
kernel's tuple heap avoids.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.sim.events import COMPACT_MIN_HEAP, Event, _husk


class HeapEventQueue:
    """Min-heap of :class:`Event` with lazy cancellation + compaction."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._cancelled = 0
        self.compactions = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events.

        Counting live events keeps the answer stable across lazy
        discards and heap compaction.
        """
        return len(self._heap) - self._cancelled

    def push(self, time: float, action: Callable[[], Any], priority: int = 0,
             label: str = "") -> Event:
        """Enqueue *action* to run at *time*; return a cancellable handle."""
        event = Event(time, priority, self._seq, action, label, queue=self)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if drained."""
        while self._heap:
            event = heapq.heappop(self._heap)
            event.queue = None
            if not event.cancelled:
                return event
            self._cancelled -= 1
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap).queue = None
            self._cancelled -= 1
        if not self._heap:
            return None
        return self._heap[0].time

    def pop_if_due(self, time: float) -> Event | None:
        """Pop the earliest live event iff it is due by *time*.

        One heap traversal replaces the ``peek_time()``-then-``pop()``
        pair the run-until loop used to make per event: cancelled heads
        are discarded on the way, and a live head scheduled after
        *time* stays queued.
        """
        heap = self._heap
        while heap:
            event = heap[0]
            if event.cancelled:
                heapq.heappop(heap).queue = None
                self._cancelled -= 1
                continue
            if event.time > time:
                return None
            event = heapq.heappop(heap)
            event.queue = None
            return event
        return None

    # -- compaction --------------------------------------------------------

    def _note_cancel(self) -> None:
        """One stored event was cancelled; compact if corpses dominate."""
        self._cancelled += 1
        if (len(self._heap) > COMPACT_MIN_HEAP
                and self._cancelled * 2 > len(self._heap)):
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        O(live) — heapify over the survivors. Order is preserved
        because events compare by ``(time, priority, seq)``, which is
        independent of heap layout.
        """
        survivors = []
        for event in self._heap:
            if event.cancelled:
                event.queue = None
            else:
                survivors.append(event)
        self._heap = survivors
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def clear(self) -> None:
        """Forget every stored event, leaving each a husk (see
        :func:`_husk`): a queue dropped after ``clear()`` and the
        handles its owners still hold form no reference cycle."""
        for event in self._heap:
            _husk(event)
        self._heap.clear()
        self._cancelled = 0
