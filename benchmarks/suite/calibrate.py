"""A fixed unit of interpreter work, to measure the host with.

The reference host is shared: its speed drifts by 10 - 25 % for
minutes at a time, besides the bursts the per-slice minimum already
survives (see README.md, "A noisy host"). No statistic over one
invocation's runs can see a drift that lasts longer than the
invocation. So every child runs :func:`unit` once before the timed
region and once after each slice of it — a few milliseconds of the
kind of work the program does (heap pushes and pops of small objects,
dict updates, string keys, tuple allocation; no simulation code, so it
cannot change when the program does) — and ``report.py`` divides each
slice's wall by how slow the host was around it, relative to
:data:`REFERENCE_UNIT_S`. ``ops_per_s`` is therefore in *reference-host*
seconds; the raw, un-normalised per-run figures are reported beside it.

Units run between slices, never inside one, and their time is not part
of any wall. They keep no growing state, so the collector's schedule
inside the slices does not depend on how many units have run.
"""

from __future__ import annotations

import heapq
import time

#: One unit on the quiet 2-core reference host (CPython 3.11.7). Only
#: fixes the scale of ``ops_per_s``; changing it rescales every result.
REFERENCE_UNIT_S = 2.80e-3

_STEPS = 800
_RING = 4096


class _Event:
    __slots__ = ("time", "seq", "payload")

    def __init__(self, time: int, seq: int, payload: dict) -> None:
        self.time = time
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Calibrator:
    """Runs units against a small, bounded state."""

    def __init__(self) -> None:
        self._heap: list[_Event] = []
        self._books: dict[str, int] = {}
        self._ring: list[tuple | None] = [None] * _RING
        self._seq = 0
        for _ in range(8):  # fill the heap; warm the code paths
            self.unit()

    def unit(self) -> float:
        """Do one unit of work; returns the host seconds it took."""
        started = time.perf_counter()
        heap, books, ring = self._heap, self._books, self._ring
        seq = self._seq
        for _ in range(_STEPS):
            seq += 1
            heapq.heappush(heap, _Event(
                (seq * 7919) % 1000, seq,
                {"item": seq % 512, "amount": seq & 7}))
            if len(heap) > 300:
                event = heapq.heappop(heap)
                key = f"item{event.payload['item']}"
                books[key] = books.get(key, 0) + event.payload["amount"]
                ring[seq % _RING] = (event.time, key, books[key])
        self._seq = seq
        return time.perf_counter() - started
