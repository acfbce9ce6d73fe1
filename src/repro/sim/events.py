"""Event objects and the pending-event queue.

Events are ordered by ``(time, priority, seq)``. The monotonically
increasing ``seq`` makes ordering total and stable: two events scheduled
for the same instant fire in scheduling order, which keeps runs
deterministic regardless of queue internals.

The queue is :class:`CalendarEventQueue`, a calendar-queue /
timer-wheel hybrid (``EventQueue`` aliases it). Virtual time is cut
into fixed-width *days*; an event lands in an O(1) unsorted wheel
bucket for its day, a far-future overflow heap, or the small *current
run* — today's events as one descending sorted list — that feeds
``pop``. Most events (link deliveries a few time units out, timers tens
of units out) take the O(1) bucket path and are only ever sorted
against the handful of events sharing their day — not against every
pending retransmission timer in the run, which is what a binary heap's
``O(log pending)`` Python-level ``Event.__lt__`` calls per push and pop
paid.

The calendar structure only changes where an event waits, never when
it pops: the pop order is exactly the ``(time, priority, seq)`` order a
binary heap gives, which ``tests/test_queue_properties.py`` fuzzes
against a reference heap queue kept beside it
(``tests/heap_queue.py``), so trace fingerprints and every replay
artifact recorded against the heap still verify.
``Simulator(queue_factory=...)`` is the seam those tests substitute
the reference through.

Cancellation is lazy (a cancelled event stays stored until it reaches
the front), but the queue tracks how many cancelled entries it is
carrying and *compacts* when they dominate: long chaos runs cancel
thousands of timers (retransmission timers stopped by acks, transaction
timeouts disarmed by commits). In the calendar queue a cancelled wheel
entry costs nothing until its day is reached — corpses never sift
through a heap they were removed from.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable

#: Compaction triggers only above this store size (small queues never
#: pay a rebuild) and only when cancelled entries are the majority.
COMPACT_MIN_HEAP = 1024

#: Width of one calendar day in virtual-time units. Link delays and
#: timer periods in this codebase are O(1)–O(10) units, so a day holds
#: only the events of one delivery "generation".
DEFAULT_DAY_WIDTH = 1.0

#: Days covered by the wheel before events spill to the overflow heap.
DEFAULT_WHEEL_DAYS = 256


@dataclass(slots=True)
class Event:
    """A pending callback, comparable by (time, priority, seq).

    ``slots=True`` drops the per-event ``__dict__``: simulations
    allocate one Event per arrival, message hop, and timer tick, so the
    slimmer layout measurably cuts allocation and comparison cost in
    long runs.
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
    queue: "CalendarEventQueue | None" = field(
        compare=False, default=None, repr=False)

    def __lt__(self, other: "Event") -> bool:
        # Hand-written instead of dataclass(order=True): the generated
        # method builds two field tuples per comparison, and heap
        # sift-up/down makes this the hottest function in long runs.
        # Times almost always differ, so the common path is one load
        # and one float compare per side.
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


#: The pop order as a C-level sort key: the same (time, priority, seq)
#: order ``Event.__lt__`` gives, without a Python call per comparison.
_ORDER = attrgetter("time", "priority", "seq")


def _husk(event: Event) -> None:
    """What ``clear()`` leaves of a stored event: cancelled, calling
    nothing, out of its queue — the state ``cancel()`` followed by a
    lazy discard leaves, without the per-event compaction check."""
    event.cancelled = True
    event.action = None
    event.queue = None


class CalendarEventQueue:
    """Calendar-queue / timer-wheel hybrid with exact heap-order parity.

    Storage tiers, by how far ahead an event's *day*
    (``floor(time / day_width)``) lies:

    * day <= current day — the **current run**, a list kept sorted in
      *descending* ``(time, priority, seq)`` order. ``pop`` only ever
      touches this tier, and because the next event sits at the tail it
      is a comparison-free ``list.pop()`` — where the binary heap paid
      ``~2·log(pending)`` Python-level ``__lt__`` calls sifting down.
    * within ``wheel_days`` days — an **unsorted wheel bucket**;
      push is an O(1) list append with zero comparisons. A bucket
      exists only while it holds events — the first push of a day
      makes it, ``_refill`` consuming the day drops it — and its slot
      is ``None`` otherwise: a short run touches a few dozen of the
      256 days, and a queue is built per simulation (five per system
      under ``shards=4``).
    * beyond the wheel — the **overflow heap** (far-future events are
      rare: recovery backstops, experiment horizons).

    When the current run drains, ``_refill`` advances the calendar to
    the next populated day — the nearest non-empty wheel bucket or the
    overflow head's day, whichever is earlier — and sorts that day's
    survivors as the new current run (one Timsort over the few events
    sharing a day, instead of per-event sifting against every pending
    timer in the simulation). A wheel bucket holds exactly one day's
    events (a later day mapping to the same slot cannot be pushed until
    this day has been consumed — the wheel spans fewer days than one
    lap), so refill never has to sift entries back.

    Order parity with a binary heap is structural: every tier
    orders by the same total comparator, later days only hold strictly
    later times, and pushes into a day the calendar already passed
    binary-insert into the current run where the comparator places
    them.
    """

    def __init__(self, day_width: float = DEFAULT_DAY_WIDTH,
                 wheel_days: int = DEFAULT_WHEEL_DAYS) -> None:
        if day_width <= 0:
            raise ValueError("day_width must be positive")
        if wheel_days < 2:
            raise ValueError("wheel_days must be at least 2")
        self._width = day_width
        self._wheel: list[list[Event] | None] = [None] * wheel_days
        self._wheel_days = wheel_days
        self._wheel_count = 0      # entries (live + cancelled) in buckets
        self._day = 0              # the day the current run covers
        #: Descending (time, priority, seq) — the next event is last.
        self._current: list[Event] = []
        self._overflow: list[Event] = []
        self._seq = 0
        self._cancelled = 0        # cancelled entries still stored
        self._size = 0             # total entries stored (live + cancelled)
        self.compactions = 0
        #: Calendar jumps taken by :meth:`_refill` (observability).
        self.refills = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events."""
        return self._size - self._cancelled

    def push(self, time: float, action: Callable[[], Any], priority: int = 0,
             label: str = "") -> Event:
        """Enqueue *action* to run at *time*; return a cancellable handle."""
        event = Event(time, priority, self._seq, action, label, queue=self)
        self._seq += 1
        self._size += 1
        day = int(time / self._width)
        gap = day - self._day
        if gap <= 0:
            # Today or a day the calendar already passed (possible after
            # an idle-gap jump): binary-insert into the descending
            # current run. The comparator is total (seq breaks every
            # tie), so the slot is unique.
            current = self._current
            lo, hi = 0, len(current)
            while lo < hi:
                mid = (lo + hi) // 2
                if event < current[mid]:
                    lo = mid + 1
                else:
                    hi = mid
            current.insert(lo, event)
        elif gap < self._wheel_days:
            slot = day % self._wheel_days
            bucket = self._wheel[slot]
            if bucket is None:
                self._wheel[slot] = [event]
            else:
                bucket.append(event)
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, event)
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if drained."""
        current = self._current
        while True:
            while current:
                event = current.pop()
                event.queue = None
                self._size -= 1
                if not event.cancelled:
                    return event
                self._cancelled -= 1
            if not self._refill():
                return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        current = self._current
        while True:
            while current and current[-1].cancelled:
                current.pop().queue = None
                self._cancelled -= 1
                self._size -= 1
            if current:
                return current[-1].time
            if not self._refill():
                return None

    def pop_if_due(self, time: float) -> Event | None:
        """Pop the earliest live event iff it is due by *time*."""
        current = self._current
        while True:
            while current:
                event = current[-1]
                if event.cancelled:
                    current.pop().queue = None
                    self._cancelled -= 1
                    self._size -= 1
                    continue
                if event.time > time:
                    return None
                current.pop()
                event.queue = None
                self._size -= 1
                return event
            if not self._refill():
                return None

    def _refill(self) -> bool:
        """Advance the calendar to the next populated day.

        Precondition: the current run is empty. Moves that day's wheel
        bucket — and any overflow entries whose day has come within
        reach — into the current run and sorts it. Returns False when
        nothing is stored anywhere.
        """
        overflow = self._overflow
        while overflow and overflow[0].cancelled:
            # Keep the overflow head live so its day is meaningful.
            heapq.heappop(overflow).queue = None
            self._cancelled -= 1
            self._size -= 1
        wheel_day = None
        if self._wheel_count:
            # The nearest populated bucket is at most one lap away.
            for step in range(1, self._wheel_days + 1):
                if self._wheel[(self._day + step) % self._wheel_days]:
                    wheel_day = self._day + step
                    break
        over_day = (int(overflow[0].time / self._width)
                    if overflow else None)
        if wheel_day is None and over_day is None:
            return False
        if over_day is not None and (wheel_day is None
                                     or over_day < wheel_day):
            target = over_day
        else:
            target = wheel_day
        self._day = target
        self.refills += 1
        current = self._current
        if target == wheel_day:
            slot = target % self._wheel_days
            bucket = self._wheel[slot]
            self._wheel[slot] = None
            self._wheel_count -= len(bucket)
            for event in bucket:
                if event.cancelled:
                    event.queue = None
                    self._cancelled -= 1
                    self._size -= 1
                else:
                    current.append(event)
        end = (target + 1) * self._width
        while overflow and overflow[0].time < end:
            event = heapq.heappop(overflow)
            if event.cancelled:
                event.queue = None
                self._cancelled -= 1
                self._size -= 1
            else:
                current.append(event)
        current.sort(key=_ORDER, reverse=True)
        return True

    # -- compaction --------------------------------------------------------

    def _note_cancel(self) -> None:
        """One stored event was cancelled; compact if corpses dominate."""
        self._cancelled += 1
        if (self._size > COMPACT_MIN_HEAP
                and self._cancelled * 2 > self._size):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry from all three tiers.

        O(stored). Order is preserved because events compare by
        ``(time, priority, seq)``, independent of storage layout. Each
        dropped corpse's back-reference is cleared so popped-and-held
        handles never pin the queue.
        """
        self._current = self._sweep(self._current)  # sweep keeps order
        self._overflow = self._sweep(self._overflow)
        heapq.heapify(self._overflow)
        for index, bucket in enumerate(self._wheel):
            if bucket:
                survivors = self._sweep(bucket)
                self._wheel_count -= len(bucket) - len(survivors)
                self._wheel[index] = survivors or None
        self._cancelled = 0
        self.compactions += 1

    def _sweep(self, events: list[Event]) -> list[Event]:
        survivors = []
        for event in events:
            if event.cancelled:
                event.queue = None
                self._size -= 1
            else:
                survivors.append(event)
        return survivors

    def clear(self) -> None:
        """Forget every stored event, leaving each a husk (see
        :func:`_husk`); the calendar position and ``seq`` carry on."""
        for store in (self._current, self._overflow,
                      *filter(None, self._wheel)):
            for event in store:
                _husk(event)
        self._current.clear()
        self._overflow.clear()
        self._wheel = [None] * self._wheel_days
        self._wheel_count = 0
        self._cancelled = 0
        self._size = 0


#: The kernel's default queue. The calendar hybrid pops in exactly the
#: heap's (time, priority, seq) order, so swapping the default changes
#: no fingerprint, no replay artifact, and no test expectation.
EventQueue = CalendarEventQueue
