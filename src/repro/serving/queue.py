"""Per-site bounded request queue with load leveling.

Each site fronts its DvP site with one FIFO queue and a fixed number
of *service slots* (``max_inflight``): at most that many transactions
are inside the system per site at once, the rest wait in the queue.
That is queue-based load leveling — bursts are absorbed by the queue
instead of piling concurrent transactions (and lock contention) onto
the site. Admission control puts a lid on the queue: past saturation
an unbounded queue grows without limit and every client pays the
whole backlog in latency, so a request arriving at a queue already
``max_depth`` deep is *shed* with a typed :class:`Overload` the client
can tell from an abort — it never entered the system, nothing needs
undoing (docs/SERVING.md).

Every queue mutation happens on the owning site's shard (arrivals run
there, and a transaction's decision callback fires at its submit
site), so the sharded kernel's worker-invariance holds without locks.
A lease reclaims slots whose transaction vanished in a crash: the
decision callback will never fire for a wiped transaction, and
without the lease the slot would leak and the queue would stall.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.site import SiteDown
from repro.core.transactions import TransactionSpec, TxnResult
from repro.sim.timers import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.frontend import ServingFrontend


@dataclass(frozen=True)
class Overload:
    """A shed request: refused by admission control, never submitted.

    ``reason`` is one of ``"depth"`` (queue at max_depth),
    ``"site-down"`` (dispatch hit a crashed site), or ``"shutdown"``
    (front-end quiesced with the request still queued).
    """

    site: str
    at: float
    reason: str
    depth: int = 0


@dataclass(frozen=True, slots=True)
class ServeSample:
    """One request's life through the serving front-end: client-
    perceived latency (enqueue to decision) is strictly longer than
    ``TxnResult.latency`` (dispatch to decision) whenever it queued.

    A front-end keeps these as columns, one row per decided request,
    and builds the samples when ``ServingFrontend.samples`` is read."""

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


@dataclass(slots=True)
class _Request:
    """One admitted request: queued, then — dispatched — the occupant
    of a service slot until it is decided or its lease runs out."""

    queue: "SiteQueue"
    spec: TransactionSpec
    origin: str
    enqueued_at: float
    on_done: Callable[[TxnResult], None] | None
    dispatched_at: float = 0.0
    #: Armed by _dispatch once the request has outlived its call.
    lease: Timer | None = None
    released: bool = False

    def decided(self, result: TxnResult) -> None:
        queue = self.queue
        frontend = queue.frontend
        frontend._site.append(queue.site)
        frontend._arrived_at.append(self.enqueued_at)
        frontend._dispatched_at.append(self.dispatched_at)
        frontend._finished_at.append(queue.sim.now)
        frontend._committed.append(result.committed)
        if self.on_done is not None:
            self.on_done(result)
        self.release()

    def expired(self) -> None:
        # The transaction vanished (crash wiped it before a decision):
        # reclaim the slot so the queue keeps moving.
        self.queue._lease_expired.inc()
        self.release()

    def release(self) -> None:
        if self.released:
            return
        self.released = True
        queue = self.queue
        if self.lease is not None:
            # close, not cancel: request <-> lease is a reference cycle.
            self.lease.close()
            queue._leases.discard(self.lease)
        queue.inflight -= 1
        queue._pump()


class SiteQueue:
    """Bounded FIFO + service slots in front of one site."""

    def __init__(self, frontend: "ServingFrontend", site: str) -> None:
        self.frontend = frontend
        self.site = site
        self.sim = frontend.sim
        config = frontend.config
        #: None = unbounded queue.
        self.max_depth = config.max_depth
        self.slots = config.max_inflight
        self.lease = frontend.lease
        self._queue: deque[_Request] = deque()
        self.inflight = 0
        self._pumping = False
        #: The armed leases, one per occupied slot; close() closes them.
        self._leases: set[Timer] = set()
        self.accepting = True
        metrics = self.sim.metrics
        self._enqueued = metrics.counter("serve.enqueued", site=site)
        self._dequeued = metrics.counter("serve.dequeued", site=site)
        self._wait_hist = metrics.histogram("serve.wait", site=site)
        self._lease_expired = metrics.counter("serve.lease_expired",
                                              site=site)

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def load(self) -> int:
        """Queued + in service: the routing/board load signal."""
        return len(self._queue) + self.inflight

    # -- admission ----------------------------------------------------------

    def offer(self, spec: TransactionSpec, origin: str,
              on_done: Callable[[TxnResult], None] | None = None
              ) -> Overload | None:
        """Admit (None) or shed (the Overload) one routed request."""
        now = self.sim.now
        if not self.accepting:
            return self._shed(origin, "shutdown", now)
        if self.max_depth is not None and len(self._queue) >= self.max_depth:
            return self._shed(origin, "depth", now)
        self._queue.append(_Request(self, spec, origin, now, on_done))
        self._enqueued.inc()
        obs = self.sim.obs
        if obs.enabled:
            obs.emit("serve.enqueue", now, site=self.site, origin=origin,
                     depth=len(self._queue))
        self._pump()
        return None

    def _shed(self, origin: str, reason: str, now: float) -> Overload:
        overload = Overload(site=self.site, at=now, reason=reason,
                            depth=len(self._queue))
        self.frontend.record_shed(overload, origin)
        return overload

    # -- dispatch -----------------------------------------------------------

    def _pump(self) -> None:
        # A request that decides inside submit() releases its slot from
        # within _dispatch, and release() pumps again: that nested call
        # only returns, and this loop dispatches the next request — a
        # backlog drains in one frame, not one frame per request.
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._queue and self.inflight < self.slots:
                self._dispatch(self._queue.popleft())
        finally:
            self._pumping = False

    def _dispatch(self, entry: _Request) -> None:
        now = entry.dispatched_at = self.sim.now
        self.inflight += 1
        self._dequeued.inc()
        self._wait_hist.observe(now - entry.enqueued_at)
        obs = self.sim.obs
        if obs.enabled:
            obs.emit("serve.dequeue", now, site=self.site,
                     waited=now - entry.enqueued_at, inflight=self.inflight)
        try:
            self.frontend.system.submit(self.site, entry.spec, entry.decided)
        except SiteDown:
            self.inflight -= 1
            self._shed(entry.origin, "site-down", now)
            return
        # A local commit or a view-served read decides inside submit
        # and has released the slot already: only a request that
        # outlives its dispatch call gets a lease.
        if not entry.released:
            entry.lease = Timer(self.sim, entry.expired,
                                label=f"serve:lease:{self.site}",
                                site=self.site)
            entry.lease.start(self.lease)
            self._leases.add(entry.lease)
        self.frontend.note_dispatch()

    # -- shutdown -----------------------------------------------------------

    def close(self) -> None:
        """The front-end is closing: forget the backlog and the
        front-end, and close the occupied slots' leases — request <->
        lease is a cycle that release() will now never break."""
        for lease in self._leases:
            lease.close()
        self._leases = set()
        self._queue = deque()
        self.frontend = None

    def quiesce(self) -> int:
        """Stop admitting and shed everything still queued."""
        self.accepting = False
        drained = 0
        while self._queue:
            entry = self._queue.popleft()
            self._shed(entry.origin, "shutdown", self.sim.now)
            drained += 1
        return drained
