"""Event objects and the pending-event queue.

Events are ordered by ``(time, priority, seq)``. The monotonically
increasing ``seq`` makes ordering total and stable: two events scheduled
for the same instant fire in scheduling order, which keeps runs
deterministic regardless of queue internals.

The queue is :class:`EventQueue`, one binary heap of ``(time,
priority, seq, event)`` tuples. ``seq`` is unique, so a heap comparison
is a C-level tuple compare that settles on the first three fields and
never reaches the :class:`Event` object: no Python-level ``__lt__``
call on any push or pop. ``tests/test_queue_properties.py`` fuzzes its
pop order against the reference heap of bare events kept beside it
(``tests/heap_queue.py``), so trace fingerprints and every replay
artifact recorded against either still verify.
``Simulator(queue_factory=...)`` is the seam those tests substitute
the reference through.

Cancellation is lazy (a cancelled event stays stored until it reaches
the front), but the queue tracks how many cancelled entries it is
carrying and *compacts* when they dominate: long chaos runs cancel
thousands of timers (retransmission timers stopped by acks, transaction
timeouts disarmed by commits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable

#: Compaction triggers only above this store size (small queues never
#: pay a rebuild) and only when cancelled entries are the majority.
COMPACT_MIN_HEAP = 1024


@dataclass(slots=True)
class Event:
    """A pending callback, comparable by (time, priority, seq).

    ``slots=True`` drops the per-event ``__dict__``: simulations
    allocate one Event per arrival, message hop, and timer tick, so the
    slimmer layout measurably cuts allocation cost in long runs.
    """

    time: float
    priority: int
    seq: int
    #: None once cancelled: a corpse waiting out its slot in the queue
    #: is a husk that keeps nothing it was going to call alive.
    action: Callable[[], Any] | None = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    #: Back-reference to the owning queue while the event sits in its
    #: store (cleared on removal — including lazy discards and
    #: compaction — so a popped handle can never keep a dead queue
    #: alive) — lets cancel() keep the queue's cancelled-entry count
    #: exact without a scan.
    queue: "EventQueue | None" = field(
        compare=False, default=None, repr=False)

    def __lt__(self, other: "Event") -> bool:
        # The kernel's queue never calls this (it compares tuples); the
        # reference heap in tests/heap_queue.py sorts bare events with
        # it. Hand-written instead of dataclass(order=True), which
        # builds two field tuples per comparison.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        self.action = None
        if self.queue is not None:
            self.queue._note_cancel()


def _husk(event: Event) -> None:
    """What ``clear()`` leaves of a stored event: cancelled, calling
    nothing, out of its queue — the state ``cancel()`` followed by a
    lazy discard leaves, without the per-event compaction check."""
    event.cancelled = True
    event.action = None
    event.queue = None


class EventQueue:
    """Min-heap of ``(time, priority, seq, event)`` with lazy
    cancellation + compaction."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._cancelled = 0        # cancelled entries still stored
        self.compactions = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events."""
        return len(self._heap) - self._cancelled

    def push(self, time: float, action: Callable[[], Any], priority: int = 0,
             label: str = "") -> Event:
        """Enqueue *action* to run at *time*; return a cancellable handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, action, label, queue=self)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if drained."""
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            event.queue = None
            if not event.cancelled:
                return event
            self._cancelled -= 1
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[3].cancelled:
                return entry[0]
            heappop(heap)[3].queue = None
            self._cancelled -= 1
        return None

    def pop_if_due(self, time: float) -> Event | None:
        """Pop the earliest live event iff it is due by *time*.

        One heap traversal replaces a ``peek_time()``-then-``pop()``
        pair per event: cancelled heads are discarded on the way, and a
        live head scheduled after *time* stays queued.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if not event.cancelled:
                if entry[0] > time:
                    return None
                heappop(heap)
                event.queue = None
                return event
            heappop(heap)
            event.queue = None
            self._cancelled -= 1
        return None

    # -- compaction --------------------------------------------------------

    def _note_cancel(self) -> None:
        """One stored event was cancelled; compact if corpses dominate."""
        self._cancelled += 1
        size = len(self._heap)
        if size > COMPACT_MIN_HEAP and self._cancelled * 2 > size:
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        O(stored) — one sweep and a heapify over the survivors. Order
        is preserved because entries compare by ``(time, priority,
        seq)``, independent of heap layout. Each dropped corpse's
        back-reference is cleared so popped-and-held handles never pin
        the queue.
        """
        survivors = []
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3].queue = None
            else:
                survivors.append(entry)
        heapify(survivors)
        self._heap = survivors
        self._cancelled = 0
        self.compactions += 1

    def clear(self) -> None:
        """Forget every stored event, leaving each a husk (see
        :func:`_husk`); ``seq`` carries on."""
        for entry in self._heap:
            _husk(entry[3])
        self._heap.clear()
        self._cancelled = 0
