"""The per-:class:`~repro.sim.kernel.Simulator` trace-event bus.

Components publish the events of :mod:`repro.obs.events` through one
shared bus. The contract is *zero cost when disabled*: instrumentation
sites guard on the plain ``enabled`` attribute and only name the
event's fields inside the guard::

    obs = self.sim.obs
    if obs.enabled:
        obs.emit("vm.create", self.sim.now, site=self.site, ...)

so a disabled bus costs one attribute load and one branch per
instrumented point and emits nothing (``tests/test_obs.py``); every
benchmark-suite workload runs with it disabled.

When enabled, the bus keeps the most recent *ring_limit* events in a
ring buffer (``events()``) and counts everything it ever saw
(``emitted``); :mod:`repro.obs.export` turns events into canonical
JSON lines.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.obs.events import KINDS, TraceEvent

#: Default ring-buffer retention when :meth:`TraceBus.enable` is called
#: without an explicit limit.
DEFAULT_RING_LIMIT = 65536


class TraceBus:
    """Ring-buffered event bus; disabled by default."""

    __slots__ = ("enabled", "kernel_steps", "emitted", "_ring")

    def __init__(self) -> None:
        self.enabled = False
        #: When True the kernel also publishes a kernel.step per executed
        #: simulator event (heavyweight; used by ordering tests and the
        #: full `repro trace --kernel` view).
        self.kernel_steps = False
        self.emitted = 0
        self._ring: deque[TraceEvent] = deque(maxlen=DEFAULT_RING_LIMIT)

    # -- lifecycle ---------------------------------------------------------

    def enable(self, ring_limit: int | None = DEFAULT_RING_LIMIT,
               kernel_steps: bool = False) -> None:
        """Start recording. *ring_limit* caps retained events (None =
        unbounded — use only for short runs); older events fall off the
        ring but still count toward :attr:`emitted`."""
        if ring_limit is not None and ring_limit < 1:
            raise ValueError("ring_limit must be >= 1 (or None)")
        self.enabled = True
        self.kernel_steps = kernel_steps
        self._ring = deque(self._ring, maxlen=ring_limit)

    def clear(self) -> None:
        """Forget retained events and the emitted count."""
        self.emitted = 0
        self._ring.clear()

    # -- publishing --------------------------------------------------------

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Record the event of *kind* at *t* (callers guard on
        :attr:`enabled` first). *fields* must name every field
        :data:`~repro.obs.events.KINDS` lists for *kind*, and no other.
        """
        names = KINDS.get(kind)
        if names is None:
            raise ValueError(f"unknown trace event kind {kind!r}")
        try:
            values = tuple([fields[name] for name in names])
        except KeyError as missing:
            raise TypeError(
                f"a {kind} event needs field {missing}") from None
        if len(fields) != len(names):
            extra = sorted(set(fields) - set(names))
            raise TypeError(f"a {kind} event has no field {extra[0]!r}")
        self.emitted += 1
        self._ring.append(TraceEvent(kind, t, values))

    # -- consumption -------------------------------------------------------

    @property
    def truncated(self) -> int:
        """Events that have fallen off the ring."""
        return self.emitted - len(self._ring)

    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._ring)


__all__ = ["TraceBus", "DEFAULT_RING_LIMIT"]
