"""The simulation kernel: a virtual clock driving an event queue."""

from __future__ import annotations

import hashlib
from math import inf, isnan
from typing import Any, Callable

from repro.obs.bus import TraceBus
from repro.obs.registry import MetricsRegistry
from repro.sim.events import Event, EventQueue
from repro.sim.random import RandomStreams


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class LookaheadError(SimulationError):
    """A cross-shard event was scheduled closer than the lookahead bound
    (see :mod:`repro.sim.shard`): the conservative synchronization
    protocol cannot deliver it in time."""


class Simulator:
    """Deterministic discrete-event simulator.

    The kernel owns the virtual clock and the pending-event queue.
    Components schedule work with :meth:`at` (absolute time) or
    :meth:`after` (relative delay); the run loops advance the clock to
    each event's timestamp and invoke its callback.

    A single integer *seed* fans out into independent named RNG streams
    (see :class:`~repro.sim.random.RandomStreams`), so adding randomness
    to one component never perturbs another component's draws.
    """

    def __init__(self, seed: int = 0,
                 queue_factory: Callable[[], Any] | None = None) -> None:
        self._queue = (queue_factory or EventQueue)()
        self._now = 0.0
        self.rng = RandomStreams(seed)
        self._trace: list[tuple[float, str]] | None = None
        self._trace_hash: "hashlib._Hash | None" = None
        self._trace_limit: int | None = None
        self._steps = 0
        # End-of-event hooks (see defer_to_event_end): callbacks that
        # must observe everything the current event did — e.g. the Vm
        # ack coalescer deciding whether an explicit ack is redundant
        # because a transfer to the same peer already left this instant.
        self._executing = False
        self._event_end: list[Callable[[], Any]] = []
        #: Structured observability (docs/OBSERVABILITY.md): the typed
        #: event bus and the metrics registry shared by every component
        #: of this simulation. The bus starts disabled; instrumentation
        #: guards on ``obs.enabled`` so the default cost is one branch.
        self.obs = TraceBus()
        self.metrics = MetricsRegistry()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def steps(self) -> int:
        """Number of events executed so far."""
        return self._steps

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def defer_to_event_end(self, action: Callable[[], Any]) -> bool:
        """Run *action* right after the current event's callback returns.

        Returns True when an event is executing (the action is queued
        and will run at the same virtual instant, before the next event
        pops — later deferrals from inside a deferred action are also
        honored, FIFO). Returns False outside the event loop, in which
        case the caller must fall back to acting immediately.
        """
        if not self._executing:
            return False
        self._event_end.append(action)
        return True

    def _drain_event_end(self) -> None:
        queue = self._event_end
        index = 0
        while index < len(queue):
            queue[index]()
            index += 1
        queue.clear()

    def enable_trace(self, limit: int | None = None) -> None:
        """Record (time, label) for every executed event.

        Every traced event also feeds a running SHA-256 so two runs can
        be compared bit-for-bit without retaining the whole schedule:
        *limit* caps how many (time, label) pairs the :attr:`trace`
        list keeps (None = all), but the fingerprint always covers every
        event executed after tracing was enabled. The chaos engine's
        replay-determinism checks (see :mod:`repro.chaos`) hinge on
        this hook.
        """
        self._trace = []
        self._trace_hash = hashlib.sha256()
        self._trace_limit = limit

    @property
    def trace(self) -> list[tuple[float, str]]:
        if self._trace is None:
            raise SimulationError("tracing is not enabled")
        return self._trace

    def trace_fingerprint(self) -> str:
        """Hex digest over every (time, label) executed while tracing."""
        if self._trace_hash is None:
            raise SimulationError("tracing is not enabled")
        return self._trace_hash.hexdigest()

    def _record(self, time: float, label: str) -> None:
        if self._trace_limit is None or len(self._trace) < self._trace_limit:
            self._trace.append((time, label))
        self._trace_hash.update(f"{time!r}\x1f{label}\x1e".encode())

    def at(self, time: float, action: Callable[[], Any], priority: int = 0,
           label: str = "") -> Event:
        """Schedule *action* at absolute virtual *time*.

        A NaN or infinite time is refused with the past: the queue
        compares times, and NaN compares false both ways."""
        if not self._now <= time < inf:
            raise SimulationError(
                f"cannot schedule at {time}: times must be finite and "
                f"not before now={self._now}")
        return self._queue.push(time, action, priority, label)

    def after(self, delay: float, action: Callable[[], Any], priority: int = 0,
              label: str = "") -> Event:
        """Schedule *action* after a finite, non-negative *delay*."""
        if not 0 <= delay < inf:
            raise SimulationError(
                f"delay {delay} must be finite and non-negative")
        return self._queue.push(self._now + delay, action, priority, label)

    # -- placement hooks (overridden by repro.sim.shard) -------------------
    #
    # On this single-queue kernel every placement hint collapses to the
    # plain schedule calls above, so callers can route unconditionally.
    # The ShardedSimulator overrides them: *site* hints place the event
    # on the shard owning that site's state, and *global* events run at
    # a synchronization barrier where every shard has reached their
    # timestamp. The contract callers must follow for shard-correctness:
    #
    # * events that touch one site's state carry that site (at_site /
    #   after_for_site),
    # * events that touch the whole topology (partitions, heals,
    #   cross-site probes) use at_global,
    # * setup code that arms site-owned timers outside any event wraps
    #   the arming in call_in_site.

    def at_site(self, site: str, time: float, action: Callable[[], Any],
                priority: int = 0, label: str = "") -> Event:
        """Schedule *action* at *time*, placed with *site*'s state."""
        return self.at(time, action, priority, label)

    def after_for_site(self, site: str, delay: float,
                       action: Callable[[], Any], priority: int = 0,
                       label: str = "") -> Event:
        """Schedule *action* after *delay*, placed with *site*'s state.

        Every network delivery comes through here, so it pushes itself
        rather than going through :meth:`after`."""
        if not 0 <= delay < inf:
            raise SimulationError(
                f"delay {delay} must be finite and non-negative")
        return self._queue.push(self._now + delay, action, priority, label)

    def at_global(self, time: float, action: Callable[[], Any],
                  priority: int = 0, label: str = "") -> Event:
        """Schedule a topology-wide *action* at *time*."""
        return self.at(time, action, priority, label)

    def call_in_site(self, site: str, action: Callable[[], Any]) -> Any:
        """Run setup code in *site*'s scheduling context, immediately."""
        return action()

    def shard_of(self, site: str) -> int:
        """The shard owning *site* (single-queue kernel: always 0)."""
        return 0

    def adopt_site(self, site: str) -> int:
        """Admit a site created after construction into the placement
        plan (elastic topology); returns its shard. A no-op here — the
        single-queue kernel places everything on shard 0."""
        return 0

    def close(self) -> None:
        """The simulation's purpose is over: forget what was going to
        run. Every pending event becomes a husk, end-of-event hooks
        and the registry's pending marks are dropped — after which the
        kernel references nothing that references it (DESIGN.md §7).
        Clock, step count, counters, histograms, the trace bus and the
        fingerprint stay readable; call from outside the event loop."""
        self._queue.clear()
        self._event_end.clear()
        self.metrics.close()

    def step(self) -> bool:
        """Execute the next event; return False when the queue is drained."""
        event = self._queue.pop()
        if event is None:
            return False
        self._now = event.time
        self._steps += 1
        if self._trace is not None:
            self._record(event.time, event.label)
        if self.obs.kernel_steps:
            self.obs.emit("kernel.step", event.time, label=event.label)
        self._executing = True
        try:
            event.action()
            if self._event_end:
                self._drain_event_end()
        finally:
            self._executing = False
            self._event_end.clear()
        return True

    def run(self, max_steps: int | None = None) -> None:
        """Run until the queue drains (or at most *max_steps* events)."""
        remaining = max_steps
        while remaining is None or remaining > 0:
            if not self.step():
                return
            if remaining is not None:
                remaining -= 1

    def run_until(self, time: float) -> None:
        """Run all events with timestamp <= *time*, then set clock there.

        ``_executing`` is flipped once for the whole loop, not per
        event: between one action returning (and its end-of-event hooks
        draining) and the next pop, no foreign code runs, so the flag
        is still truthful for defer_to_event_end. A NaN *time* is
        refused: no event is later than it, so none would stop the loop.
        """
        if isnan(time):
            raise SimulationError(f"cannot run until {time}")
        queue = self._queue
        trace = self._trace
        obs = self.obs
        event_end = self._event_end
        self._executing = True
        try:
            while True:
                event = queue.pop_if_due(time)
                if event is None:
                    break
                self._now = event.time
                self._steps += 1
                if trace is not None:
                    self._record(event.time, event.label)
                if obs.kernel_steps:
                    obs.emit("kernel.step", event.time, label=event.label)
                event.action()
                if event_end:
                    self._drain_event_end()
        finally:
            self._executing = False
            event_end.clear()
        self._now = max(self._now, time)
