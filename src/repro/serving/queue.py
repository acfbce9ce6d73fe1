"""Per-site bounded request queue with load leveling.

Each site fronts its DvP site with one FIFO queue and a fixed number
of *service slots* (``max_inflight``): at most that many transactions
are inside the system per site at once, the rest wait in the queue.
That is queue-based load leveling — bursts are absorbed by the queue
instead of piling concurrent transactions (and lock contention) onto
the site — and it gives admission control a meaningful signal: queue
depth times the EWMA service time estimates the wait a new request
would face.

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
from repro.metrics.windows import ServeSample
from repro.obs.events import ServeDequeue, ServeEnqueue, ServeShed
from repro.serving.admission import AdmissionPolicy, Overload
from repro.sim.timers import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.frontend import ServingFrontend


@dataclass
class _Queued:
    spec: TransactionSpec
    origin: str
    enqueued_at: float
    on_done: Callable[[TxnResult], None] | None


class SiteQueue:
    """Bounded FIFO + service slots in front of one site."""

    def __init__(self, frontend: "ServingFrontend", site: str) -> None:
        self.frontend = frontend
        self.site = site
        self.sim = frontend.sim
        config = frontend.config
        self.policy = AdmissionPolicy(config.max_depth, config.max_wait)
        self.slots = config.max_inflight
        self.lease = frontend.lease
        self._queue: deque[_Queued] = deque()
        self.inflight = 0
        #: The armed leases, one per occupied slot; close() closes them.
        self._leases: set[Timer] = set()
        #: EWMA of dispatch->decision time; seeds the wait estimate
        #: before the first completion.
        self.service_est = config.service_estimate
        self._alpha = config.ewma_alpha
        self.accepting = True
        metrics = self.sim.metrics
        self._enqueued = metrics.counter("serve.enqueued", site=site)
        self._dequeued = metrics.counter("serve.dequeued", site=site)
        self._wait_hist = metrics.histogram("serve.wait", site=site)
        self._lease_expired = metrics.counter("serve.lease_expired",
                                              site=site)
        metrics.gauge("serve.depth", lambda: len(self._queue), site=site)
        metrics.gauge("serve.inflight", lambda: self.inflight, site=site)

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def load(self) -> int:
        """Queued + in service: the routing/board load signal."""
        return len(self._queue) + self.inflight

    def estimated_wait(self) -> float:
        """Time a new arrival would wait before its dispatch."""
        if self.slots <= 0:
            return 0.0
        return len(self._queue) * self.service_est / self.slots

    # -- admission ----------------------------------------------------------

    def offer(self, spec: TransactionSpec, origin: str,
              on_done: Callable[[TxnResult], None] | None = None
              ) -> Overload | None:
        """Admit (None) or shed (the Overload) one routed request."""
        now = self.sim.now
        if not self.accepting:
            return self._shed(origin, "shutdown", now)
        estimated = self.estimated_wait()
        reason = self.policy.refuse_reason(len(self._queue), estimated)
        if reason is not None:
            return self._shed(origin, reason, now, estimated)
        self._queue.append(_Queued(spec, origin, now, on_done))
        self._enqueued.inc()
        obs = self.sim.obs
        if obs.enabled:
            obs.emit(ServeEnqueue(t=now, site=self.site, origin=origin,
                                  depth=len(self._queue)))
        self._pump()
        return None

    def _shed(self, origin: str, reason: str, now: float,
              estimated_wait: float = 0.0) -> Overload:
        overload = Overload(site=self.site, at=now, reason=reason,
                            depth=len(self._queue),
                            estimated_wait=estimated_wait)
        self.frontend.record_shed(overload, origin)
        return overload

    # -- dispatch -----------------------------------------------------------

    def _pump(self) -> None:
        while self._queue and self.inflight < self.slots:
            self._dispatch(self._queue.popleft())

    def _dispatch(self, entry: _Queued) -> None:
        now = self.sim.now
        self.inflight += 1
        self._dequeued.inc()
        self._wait_hist.observe(now - entry.enqueued_at)
        obs = self.sim.obs
        if obs.enabled:
            obs.emit(ServeDequeue(t=now, site=self.site,
                                  waited=now - entry.enqueued_at,
                                  inflight=self.inflight))
        released = False

        def release() -> None:
            nonlocal released
            if released:
                return
            released = True
            # close, not cancel: release <-> lease is a reference
            # cycle, and the slot's closures should die with the slot.
            lease.close()
            self._leases.discard(lease)
            self.inflight -= 1
            self._pump()

        def on_lease_expired() -> None:
            # The transaction vanished (crash wiped it before a
            # decision): reclaim the slot so the queue keeps moving.
            self._lease_expired.inc()
            release()

        def on_decided(result: TxnResult) -> None:
            self.service_est += self._alpha * (
                (self.sim.now - now) - self.service_est)
            self.frontend.record_sample(ServeSample(
                site=self.site, arrived_at=entry.enqueued_at,
                dispatched_at=now, finished_at=self.sim.now,
                committed=result.committed))
            if entry.on_done is not None:
                entry.on_done(result)
            release()

        lease = Timer(self.sim, on_lease_expired,
                      label=f"serve:lease:{self.site}", site=self.site)
        try:
            self.frontend.system.submit(self.site, entry.spec, on_decided)
        except SiteDown:
            released = True
            lease.close()  # never armed, but release <-> lease is a cycle
            self.inflight -= 1
            self._shed(entry.origin, "site-down", now)
            return
        # A fast local commit can decide synchronously inside submit;
        # arming the lease afterwards would leak a timer for a slot
        # that was already released.
        if self.lease is not None and not released:
            lease.start(self.lease)
            self._leases.add(lease)
        self.frontend.note_dispatch()

    # -- shutdown -----------------------------------------------------------

    def close(self) -> None:
        """The front-end is closing: forget the backlog and the
        front-end, and close the occupied slots' leases — release <->
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
