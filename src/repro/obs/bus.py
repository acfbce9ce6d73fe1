"""The per-:class:`~repro.sim.kernel.Simulator` trace-event bus.

Components publish :mod:`repro.obs.events` dataclasses through one
shared bus. The contract is *zero cost when disabled*: instrumentation
sites guard on the plain ``enabled`` attribute and only construct the
event object inside the guard::

    obs = self.sim.obs
    if obs.enabled:
        obs.emit(VmCreate(t=self.sim.now, ...))

so a disabled bus costs one attribute load and one branch per
instrumented point and emits nothing (``tests/test_obs.py``); every
benchmark-suite workload runs with it disabled.

When enabled, the bus keeps the most recent *ring_limit* events in a
ring buffer (``events()``/``tail()``), counts everything it ever saw
(``emitted``), and fans each event out to any registered *sinks* —
streaming consumers such as the JSONL exporter in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.obs.events import TraceEvent

#: Default ring-buffer retention when :meth:`TraceBus.enable` is called
#: without an explicit limit.
DEFAULT_RING_LIMIT = 65536

Sink = Callable[[TraceEvent], None]


class TraceBus:
    """Ring-buffered, sink-fanning event bus; disabled by default."""

    __slots__ = ("enabled", "kernel_steps", "emitted", "_ring", "_sinks")

    def __init__(self) -> None:
        self.enabled = False
        #: When True the kernel also publishes a KernelStep per executed
        #: simulator event (heavyweight; used by ordering tests and the
        #: full `repro trace --kernel` view).
        self.kernel_steps = False
        self.emitted = 0
        self._ring: deque[TraceEvent] = deque(maxlen=DEFAULT_RING_LIMIT)
        self._sinks: list[Sink] = []

    # -- lifecycle ---------------------------------------------------------

    def enable(self, ring_limit: int | None = DEFAULT_RING_LIMIT,
               kernel_steps: bool = False) -> None:
        """Start recording. *ring_limit* caps retained events (None =
        unbounded — use only for short runs); older events fall off the
        ring but still count toward :attr:`emitted` and still reach
        sinks, so a streaming export is always complete."""
        if ring_limit is not None and ring_limit < 1:
            raise ValueError("ring_limit must be >= 1 (or None)")
        self.enabled = True
        self.kernel_steps = kernel_steps
        self._ring = deque(self._ring, maxlen=ring_limit)

    def disable(self) -> None:
        self.enabled = False
        self.kernel_steps = False

    def clear(self) -> None:
        """Forget retained events and the emitted count (keep sinks)."""
        self.emitted = 0
        self._ring.clear()

    # -- publishing --------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        """Record one event (callers guard on :attr:`enabled` first)."""
        self.emitted += 1
        self._ring.append(event)
        for sink in self._sinks:
            sink(event)

    # -- consumption -------------------------------------------------------

    @property
    def ring_limit(self) -> int | None:
        return self._ring.maxlen

    @property
    def truncated(self) -> int:
        """Events that have fallen off the ring."""
        return self.emitted - len(self._ring)

    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._ring)

    def tail(self, count: int) -> list[TraceEvent]:
        """The most recent *count* retained events, oldest first."""
        if count <= 0:
            return []
        return list(self._ring)[-count:]

    def add_sink(self, sink: Sink) -> None:
        """Stream every future event to *sink* (order of emission)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Sink) -> None:
        self._sinks.remove(sink)


__all__ = ["TraceBus", "DEFAULT_RING_LIMIT", "Sink"]
