"""Sharded simulation: N site-group shards under conservative lookahead.

One logical simulation is split into *shards*, each owning a site
group with its own :class:`~repro.sim.events.EventQueue`, virtual
clock, and trace stream. Shards synchronize with the classic
conservative (null-message/barrier) discipline:

* Cross-shard interaction happens **only** through timestamped events
  routed by :meth:`ShardedSimulator.after_for_site` /
  :meth:`~ShardedSimulator.at_site` — in this codebase that means
  through ``Network``/``Outbox`` deliveries, whose delay is bounded
  below by the link's ``delay_lower_bound``.
* That bound is the **lookahead** ``L``: while the global clock stands
  at ``H``, no shard can be sent anything that executes before
  ``H + L``, so every shard may safely execute all its events in the
  window ``[H, H + L]`` without hearing from the others.
* Execution therefore proceeds in *barrier rounds*: each round, every
  shard runs its local queue up to the window horizon; at the barrier
  the cross-shard mailboxes are drained into the destination queues
  (every mailed event's timestamp lands at or beyond the next window)
  and the global clock advances. An idle shard simply has nothing due
  in the window — the barrier itself plays the role of null messages,
  and rounds fast-forward over globally idle gaps.

Determinism contract (tested in ``tests/test_sim_shard.py``):

* Within a shard, events execute in exact ``(time, priority, seq)``
  order — the same total order the single-queue kernel guarantees.
* Mailboxes are drained at each barrier in canonical (source shard,
  send order) order, so destination-side sequence numbers never depend
  on which worker ran which shard first.
* The trace fingerprint is computed **per shard** and combined in
  shard-id order, so it is bit-identical for any worker count: the
  ``workers`` parameter only permutes the order shards execute within
  a round, which per-shard traces cannot observe.

Global actions (partitions, heals, topology-wide probes) do not belong
to any one shard: :meth:`ShardedSimulator.at_global` runs them at a
barrier, after every shard has reached their timestamp and before any
shard passes it — a consistent cut.
"""

from __future__ import annotations

import hashlib
from math import inf, isnan
from typing import Any, Callable, Iterable, Mapping

from repro.obs.bus import TraceBus
from repro.obs.events import KernelStep
from repro.obs.registry import MetricsRegistry
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import LookaheadError, SimulationError, Simulator
from repro.sim.random import RandomStreams

#: Tolerance for float horizon comparisons: a delivery landing exactly
#: on the next window edge is legal (no shard has run past it), so the
#: lookahead guard must only reject genuinely short delays.
_EPS = 1e-9


class ShardPlan:
    """Site-to-shard assignment plus the lookahead bound.

    *lookahead* must lower-bound the virtual-time delay of every
    cross-shard interaction — for DvP systems, the minimum link
    ``delay_lower_bound`` over links that cross shard boundaries.
    """

    def __init__(self, site_shard: Mapping[str, int],
                 lookahead: float) -> None:
        if lookahead <= 0:
            raise ValueError("lookahead must be positive: zero-delay "
                             "cross-shard events cannot be synchronized "
                             "conservatively")
        if not site_shard:
            raise ValueError("at least one site required")
        shards = sorted(set(site_shard.values()))
        if shards != list(range(len(shards))):
            raise ValueError(f"shard ids must be dense 0..N-1, got {shards}")
        self.site_shard = dict(site_shard)
        self.lookahead = float(lookahead)
        self.shards = len(shards)

    @classmethod
    def round_robin(cls, sites: Iterable[str], shards: int,
                    lookahead: float) -> "ShardPlan":
        """Deal *sites* across *shards* in listed order."""
        sites = list(sites)
        if shards < 1:
            raise ValueError("need at least one shard")
        shards = min(shards, len(sites))
        return cls({site: index % shards
                    for index, site in enumerate(sites)}, lookahead)

    def shard_of(self, site: str) -> int:
        try:
            return self.site_shard[site]
        except KeyError:
            raise KeyError(f"site {site!r} not in shard plan") from None

    def add_site(self, site: str) -> int:
        """Assign a late-joining site to a shard (elastic topology).

        Joins continue the round-robin deal, so the assignment depends
        only on the join order — never on which worker lane asked. The
        shard set itself is fixed at construction; a join only extends
        the site → shard mapping.
        """
        if site in self.site_shard:
            raise ValueError(f"site {site!r} already in shard plan")
        shard = len(self.site_shard) % self.shards
        self.site_shard[site] = shard
        return shard


class _Shard:
    """One shard's private kernel state."""

    __slots__ = ("id", "queue", "now", "steps", "event_end", "trace",
                 "trace_hash", "outbox", "rng")

    def __init__(self, shard_id: int, master_rng: RandomStreams,
                 queue_factory: Callable[[], Any]) -> None:
        self.id = shard_id
        self.queue = queue_factory()
        #: Per-shard stream family, sub-seeded from the master (fork
        #: name = "shard:<id>"): a shard's draws depend on nothing any
        #: other shard does.
        self.rng = master_rng.fork(f"shard:{shard_id}")
        self.now = 0.0
        self.steps = 0
        self.event_end: list[Callable[[], Any]] = []
        self.trace: list[tuple[float, str]] | None = None
        self.trace_hash: Any = None
        #: Cross-shard sends made while this shard executes, in send
        #: order: (dst_shard, time, priority, action, label). Drained
        #: at the barrier in shard-id order, so the destination's seq
        #: assignment is independent of the worker schedule.
        self.outbox: list[tuple[int, float, int, Callable[[], Any], str]] = []


class ShardedSimulator(Simulator):
    """Drop-in :class:`Simulator` that executes as N lookahead shards.

    Preserves the public kernel API — ``at``/``after``/``run``/
    ``run_until``/``now``/``steps``/``pending``/``rng``/``obs``/
    ``metrics``/``defer_to_event_end``/``enable_trace``/
    ``trace_fingerprint`` — so ``core``, ``net``, ``chaos`` and the
    harness run unchanged on top of it. Placement follows the routing
    hooks declared on the base kernel: while a shard executes, plain
    ``at``/``after`` stay on that shard (site timers, wipes and lock
    cascades are armed from the site's own events, so site state never
    crosses shards); site-hinted calls route to the owning shard; and
    ``at_global`` runs at a barrier.

    *workers* deterministically lanes shards onto worker slots (shard
    ``i`` → worker ``i % workers``) and executes each round in
    worker-major order: the per-shard schedules are the same for
    every worker count, which is what the determinism tests pin.
    """

    def __init__(self, plan: ShardPlan, seed: int = 0, workers: int = 1,
                 queue_factory: Callable[[], Any] | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        factory = queue_factory or EventQueue
        self._plan = plan
        self._master_rng = RandomStreams(seed)
        self._shards = [_Shard(index, self._master_rng, factory)
                        for index in range(plan.shards)]
        self._order = self._worker_major(plan.shards, workers)
        self.workers = workers
        self._clock = 0.0      # committed global time (last barrier)
        self._horizon = 0.0    # current window's end while a round runs
        self._active: _Shard | None = None
        self._globals = factory()   # dedicated queue for at_global events
        self._global_hash: Any = None
        self.rounds = 0
        # Shared plumbing, mirroring Simulator.__init__.
        self.obs = TraceBus()
        self.metrics = MetricsRegistry()
        self._trace: list[tuple[float, str]] | None = None
        self._trace_limit: int | None = None

    @staticmethod
    def _worker_major(shards: int, workers: int) -> list[int]:
        """Execution order for one round: worker 0's lane, then 1's, …"""
        lanes: list[list[int]] = [[] for _ in range(min(workers, shards))]
        for shard in range(shards):
            lanes[shard % len(lanes)].append(shard)
        return [shard for lane in lanes for shard in lane]

    # -- clock + counters --------------------------------------------------

    @property
    def now(self) -> float:
        """The executing shard's clock, or the committed barrier time."""
        active = self._active
        return active.now if active is not None else self._clock

    @property
    def rng(self) -> RandomStreams:
        """The executing shard's stream family, or the master family.

        Streams fetched during shard execution (link fate draws, site
        policy draws) come sub-seeded per shard; streams fetched at
        setup time come from the master and are shared. Either way a
        stream stays deterministic as long as its *name* is scoped to
        one site or link — which every stream in this codebase is —
        because then only one shard ever draws from it.
        """
        active = self._active
        return active.rng if active is not None else self._master_rng

    @property
    def steps(self) -> int:
        return sum(shard.steps for shard in self._shards)

    @property
    def pending(self) -> int:
        return (sum(len(shard.queue) for shard in self._shards)
                + sum(len(shard.outbox) for shard in self._shards)
                + len(self._globals))

    @property
    def shards(self) -> int:
        return self._plan.shards

    @property
    def lookahead(self) -> float:
        return self._plan.lookahead

    def shard_of(self, site: str) -> int:
        return self._plan.shard_of(site)

    def adopt_site(self, site: str) -> int:
        """Admit a late-joining site: extend the plan's site → shard
        mapping (round-robin continuation). The shard objects are fixed
        at construction, so no queue or trace stream is created — the
        joiner shares an existing shard's clock and fingerprint lane,
        keeping worker-count invariance intact."""
        return self._plan.add_site(site)

    def shard_clock(self, shard: int) -> float:
        return self._shards[shard].now

    # -- scheduling --------------------------------------------------------

    def _home(self) -> _Shard:
        """The shard an un-hinted schedule call lands on."""
        active = self._active
        return active if active is not None else self._shards[0]

    def at(self, time: float, action: Callable[[], Any], priority: int = 0,
           label: str = "") -> Event:
        shard = self._home()
        if not shard.now <= time < inf:
            raise SimulationError(
                f"cannot schedule at {time}: times must be finite and "
                f"not before now={shard.now}")
        return shard.queue.push(time, action, priority, label)

    def after(self, delay: float, action: Callable[[], Any],
              priority: int = 0, label: str = "") -> Event:
        if not 0 <= delay < inf:
            raise SimulationError(
                f"delay {delay} must be finite and non-negative")
        shard = self._home()
        return shard.queue.push(shard.now + delay, action, priority, label)

    def at_site(self, site: str, time: float, action: Callable[[], Any],
                priority: int = 0, label: str = "") -> Event | None:
        """Schedule on the shard owning *site*.

        Cross-shard calls return None: the event materializes on the
        destination shard at the barrier, so there is no handle to
        cancel — and by the lookahead argument the sender cannot
        observe anything about it before it runs anyway.
        """
        target = self._shards[self._plan.shard_of(site)]
        active = self._active
        if active is None:
            # Setup/barrier context: every queue is quiescent, push
            # directly (deterministic — no shard is running).
            if not target.now <= time < inf:
                raise SimulationError(
                    f"cannot schedule at {time} on shard {target.id}: "
                    f"times must be finite and not before "
                    f"now={target.now}")
            return target.queue.push(time, action, priority, label)
        if target is active:
            return self.at(time, action, priority, label)
        if not time < inf:
            raise SimulationError(
                f"cannot schedule at {time}: times must be finite")
        if time + _EPS < self._horizon:
            raise LookaheadError(
                f"cross-shard event for site {site!r} at t={time} lands "
                f"inside the current window (horizon {self._horizon}); "
                f"lookahead={self._plan.lookahead} does not cover it")
        active.outbox.append((target.id, time, priority, action, label))
        return None

    def after_for_site(self, site: str, delay: float,
                       action: Callable[[], Any], priority: int = 0,
                       label: str = "") -> Event | None:
        if not 0 <= delay < inf:
            raise SimulationError(
                f"delay {delay} must be finite and non-negative")
        return self.at_site(site, self.now + delay, action, priority, label)

    def at_global(self, time: float, action: Callable[[], Any],
                  priority: int = 0, label: str = "") -> Event:
        """Schedule *action* at a barrier at *time*.

        The action runs after every shard has executed all events with
        timestamp <= *time* and before any shard executes one beyond it
        — a consistent global cut. From inside a shard event it may
        only target times at or beyond the current window's horizon;
        the cut for earlier times has already been crossed.
        """
        if self._active is not None and time + _EPS < self._horizon:
            raise LookaheadError(
                f"global event at t={time} scheduled from inside the "
                f"window ending at {self._horizon}: other shards may "
                f"already have run past it")
        if not self._clock <= time < inf:
            raise SimulationError(
                f"cannot schedule global event at {time}: times must be "
                f"finite and not before barrier time {self._clock}")
        return self._globals.push(time, action, priority, label)

    def call_in_site(self, site: str, action: Callable[[], Any]) -> Any:
        """Run *action* with *site*'s shard as scheduling context.

        Outside any event this establishes the context (setup code
        arming site-owned timers); inside an event on the owning shard
        it is a no-op wrapper (so façade methods like ``crash`` can use
        it unconditionally). Calling it from a *different* shard's
        event is a placement bug and raises.
        """
        target = self._shards[self._plan.shard_of(site)]
        active = self._active
        if active is target:
            return action()
        if active is not None:
            raise SimulationError(
                f"call_in_site({site!r}) from an event on shard "
                f"{active.id}, but the site lives on shard {target.id}; "
                "cross-shard effects must travel as timestamped events "
                "(at_site/after_for_site)")
        self._active = target
        try:
            return action()
        finally:
            self._active = None

    def close(self) -> None:
        """Simulator.close() over every shard's queue, hooks and unsent
        mail, and the barrier queue."""
        for shard in self._shards:
            shard.queue.clear()
            shard.event_end.clear()
            shard.outbox.clear()
        self._globals.clear()
        self.metrics.close()

    # -- defer-to-event-end ------------------------------------------------

    def defer_to_event_end(self, action: Callable[[], Any]) -> bool:
        active = self._active
        if active is None:
            return False
        active.event_end.append(action)
        return True

    # -- tracing -----------------------------------------------------------

    def enable_trace(self, limit: int | None = None) -> None:
        self._trace = []
        self._trace_limit = limit
        for shard in self._shards:
            shard.trace = []
            shard.trace_hash = hashlib.sha256()
        self._global_hash = hashlib.sha256()

    @property
    def trace(self) -> list[tuple[float, str]]:
        """Executed (time, label) pairs, concatenated in shard order.

        Shards interleave in wall time, so unlike the single-queue
        kernel this list is not globally time-sorted; within one shard
        it is. The fingerprint, not this list, is the replay contract.
        """
        if self._trace is None:
            raise SimulationError("tracing is not enabled")
        merged: list[tuple[float, str]] = []
        for shard in self._shards:
            merged.extend(shard.trace or [])
        if self._trace_limit is not None:
            merged = merged[:self._trace_limit]
        return merged

    def trace_fingerprint(self) -> str:
        """Per-shard SHA-256 digests combined in canonical shard order.

        Identical for every ``workers`` value by construction: each
        shard's stream hashes only its own events, and the combination
        order is the shard id, not the execution order.
        """
        if self._global_hash is None:
            raise SimulationError("tracing is not enabled")
        combined = hashlib.sha256()
        for shard in self._shards:
            combined.update(f"shard:{shard.id}:".encode())
            combined.update(shard.trace_hash.hexdigest().encode())
            combined.update(b"\n")
        combined.update(b"global:")
        combined.update(self._global_hash.hexdigest().encode())
        return combined.hexdigest()

    def _record_shard(self, shard: _Shard, time: float, label: str) -> None:
        if self._trace_limit is None or \
                len(shard.trace) < self._trace_limit:
            shard.trace.append((time, label))
        shard.trace_hash.update(f"{time!r}\x1f{label}\x1e".encode())

    # -- execution ---------------------------------------------------------

    def _next_timestamp(self) -> float | None:
        """Earliest pending timestamp anywhere (queues, mail, globals)."""
        times = [t for t in (shard.queue.peek_time()
                             for shard in self._shards) if t is not None]
        for shard in self._shards:
            times.extend(entry[1] for entry in shard.outbox)
        global_next = self._globals.peek_time()
        if global_next is not None:
            times.append(global_next)
        return min(times) if times else None

    def _run_shard_until(self, shard: _Shard, horizon: float,
                         max_steps: int | None = None) -> int:
        """Mirror of Simulator.run_until for one shard; returns steps."""
        queue = shard.queue
        traced = shard.trace_hash is not None
        obs = self.obs
        event_end = shard.event_end
        executed = 0
        self._active = shard
        try:
            while max_steps is None or executed < max_steps:
                event = queue.pop_if_due(horizon)
                if event is None:
                    break
                shard.now = event.time
                shard.steps += 1
                executed += 1
                if traced:
                    self._record_shard(shard, event.time, event.label)
                if obs.kernel_steps:
                    obs.emit(KernelStep(t=event.time, label=event.label))
                event.action()
                if event_end:
                    index = 0
                    while index < len(event_end):
                        event_end[index]()
                        index += 1
                    event_end.clear()
        finally:
            self._active = None
            event_end.clear()
        shard.now = max(shard.now, horizon)
        return executed

    def _deliver_mail(self) -> None:
        """Barrier: drain outboxes in shard-id order (canonical)."""
        for shard in self._shards:
            if not shard.outbox:
                continue
            for dst, time, priority, action, label in shard.outbox:
                self._shards[dst].queue.push(time, action, priority, label)
            shard.outbox.clear()

    def _run_globals_due(self, time: float) -> None:
        """Execute due global events at the barrier (all shards at cut)."""
        queue = self._globals
        while True:
            event = queue.pop_if_due(time)
            if event is None:
                return
            self._clock = max(self._clock, event.time)
            if self._global_hash is not None:
                self._global_hash.update(
                    f"{event.time!r}\x1f{event.label}\x1e".encode())
            if self.obs.kernel_steps:
                self.obs.emit(KernelStep(t=event.time, label=event.label))
            event.action()

    def _run_round(self, horizon: float) -> None:
        self._horizon = horizon
        self.rounds += 1
        shards = self._shards
        for index in self._order:
            self._run_shard_until(shards[index], horizon)
        self._deliver_mail()
        self._clock = horizon
        self._run_globals_due(horizon)
        # Global events may themselves send cross-site messages (a
        # migration ship, a probe-triggered retransmit). Those sends
        # land at or beyond the committed clock, which no shard has run
        # past, so they can be delivered immediately — leaving them in
        # the outbox would let the next round's window advance over
        # their timestamps before the following barrier drained them.
        self._deliver_mail()

    def _next_horizon(self, next_time: float) -> float:
        """One lookahead window past the idle gap, clipped at a cut."""
        horizon = max(self._clock, next_time) + self._plan.lookahead
        global_next = self._globals.peek_time()
        if global_next is not None:
            # A barrier event clips the window: every shard stops
            # exactly at the cut, the action runs, and the next round
            # resumes from it.
            horizon = min(horizon, global_next)
        return horizon

    def run_until(self, time: float) -> None:
        """Run all events with timestamp <= *time* in barrier rounds;
        a NaN *time* is refused, as on the single-queue kernel."""
        if isnan(time):
            raise SimulationError(f"cannot run until {time}")
        while True:
            next_time = self._next_timestamp()
            if next_time is None or next_time > time:
                break
            self._run_round(min(self._next_horizon(next_time), time))
        self._clock = max(self._clock, time)
        self._horizon = self._clock
        for shard in self._shards:
            shard.now = max(shard.now, time)

    def run(self, max_steps: int | None = None) -> None:
        """Run in barrier rounds until every queue drains.

        *max_steps* is a runaway guard checked between rounds (a round
        in progress completes), so totals can overshoot by up to one
        window's events; keeping the check at round granularity keeps
        execution schedule-independent.
        """
        start_steps = self.steps
        while True:
            if max_steps is not None and \
                    self.steps - start_steps >= max_steps:
                return
            next_time = self._next_timestamp()
            if next_time is None:
                return
            self._run_round(self._next_horizon(next_time))

    def step(self) -> bool:
        """Execute the earliest single event (a degenerate round).

        Provided for API completeness (debuggers, fine-grained tests);
        real runs use the round loops, which this interoperates with.
        """
        next_time = self._next_timestamp()
        if next_time is None:
            return False
        self._horizon = next_time
        for shard in self._shards:
            peek = shard.queue.peek_time()
            if peek is not None and peek <= next_time:
                if self._run_shard_until(shard, next_time, max_steps=1):
                    self._deliver_mail()
                    self._clock = max(self._clock, next_time)
                    return True
        # Only mail or global events remain at next_time: commit a
        # zero-width round to surface them, then retry.
        self._deliver_mail()
        self._run_globals_due(next_time)
        self._clock = max(self._clock, next_time)
        return self.step() if self._next_timestamp() is not None else True
