"""The serving front-end: router + per-site queues ahead of the system.

``ServingFrontend`` implements the same ``submit(site, spec, on_done)``
protocol as :class:`~repro.core.system.DvPSystem`, so the workload
driver (and the chaos engine) can point at it unchanged. A submitted
request is routed to a target site, forwarded there (paying the route
delay when it crosses sites), and offered to that site's bounded
queue; admission control may shed it with a typed
:class:`~repro.serving.queue.Overload` instead.

Determinism on the sharded kernel: routing draws use per-origin
streams, cross-site forwards are scheduled the kernel's lookahead
ahead (exactly like network sends), and the least-queue board
refreshes only at global barriers — see docs/SERVING.md.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import inf
from typing import Callable

from repro.core.system import DvPSystem
from repro.core.transactions import TransactionSpec, TxnResult
from repro.metrics.collector import Collector
from repro.serving.queue import Overload, ServeSample, SiteQueue
from repro.serving.router import ROUTERS, DepthBoard, make_router


@dataclass
class ServingConfig:
    """Front-end policy knobs (docs/SERVING.md)."""

    router: str = "least-queue"
    #: Service slots per site: concurrent transactions inside the
    #: system. The load-leveling lever.
    max_inflight: int = 4
    #: Admission bound on queued requests per site; None = unbounded.
    max_depth: int | None = 64
    #: Depth-board refresh period (global barriers).
    board_period: float = 5.0

    def __post_init__(self) -> None:
        if self.router not in ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}; choose from {ROUTERS}")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None)")
        if not 0 < self.board_period < inf:
            raise ValueError("board_period must be positive and finite")


class ServingFrontend:
    """Routes, queues, and admission-controls requests for a system."""

    def __init__(self, system: DvPSystem,
                 config: ServingConfig | None = None,
                 collector: Collector | None = None) -> None:
        self.system = system
        self.sim = system.sim
        self.config = config or ServingConfig()
        self.collector = collector or Collector()
        #: Cross-site forwarding delay: the kernel's lookahead (0 on
        #: the single-queue kernel), the least delay a cross-shard hop
        #: can legally have.
        self.route_delay = getattr(self.sim, "lookahead", 0.0)
        #: Slot lease: the transaction's timeout plus one board period
        #: of grace.
        self.lease = system.config.txn_timeout + self.config.board_period
        self.queues = {site: SiteQueue(self, site)
                       for site in system.sites}
        self.board = DepthBoard(self.queues)
        self.router = make_router(
            self.config.router, self.sim, list(system.sites),
            self.board, system.directory,
            # Live lookup, not a frozen set: sites may join later and
            # a crashed site's wiped cache still serves after refill.
            view_capable=lambda name: (
                name in system.sites
                and system.sites[name].views is not None))
        #: Every shed, in decision order (typed Overload results).
        self.overloads: list[Overload] = []
        #: Enqueue->decision life of every decided request, one column
        #: per ServeSample field (``samples`` builds the rows): a list
        #: of site names and arrays, which the collector never walks.
        self._site: list[str] = []
        self._arrived_at = array("d")
        self._dispatched_at = array("d")
        self._finished_at = array("d")
        self._committed = array("b")
        self.dispatched = 0
        self._running = False
        system.attach(self)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin the depth-board refresh chain (global barriers)."""
        if self._running:
            return
        self._running = True
        self.board.refresh()
        self.sim.at_global(self.sim.now + self.config.board_period,
                           self._refresh_board, label="serve:board")

    def stop(self) -> None:
        """Stop the refresh chain (the pending tick becomes a no-op)."""
        self._running = False

    def quiesce(self) -> int:
        """Stop everything: refuse new requests, shed queued backlog.

        In-flight transactions still decide on their own; returns the
        number of queued requests shed. Used at chaos settle so every
        dispatched transaction reaches a decision inside the settle
        window instead of trickling out of deep backlogs.
        """
        self.stop()
        return sum(queue.quiesce() for queue in self.queues.values())

    def close(self) -> None:
        """The system is closing (it calls this: the front-end attached
        itself): stop, have each queue let go of this front-end and of
        its occupied slots, and let go of the system. Samples,
        overloads and counts stay readable."""
        self.stop()
        for queue in self.queues.values():
            queue.close()
        self.system = None

    @property
    def samples(self) -> list[ServeSample]:
        """Every decided request's ServeSample, in decision order."""
        return [ServeSample(site, arrived_at, dispatched_at, finished_at,
                            bool(committed))
                for site, arrived_at, dispatched_at, finished_at, committed
                in zip(self._site, self._arrived_at, self._dispatched_at,
                       self._finished_at, self._committed)]

    def _refresh_board(self) -> None:
        if not self._running:
            return
        self.board.refresh()
        self.sim.at_global(self.sim.now + self.config.board_period,
                           self._refresh_board, label="serve:board")

    # -- the submit protocol -------------------------------------------------

    def submit(self, site: str, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None = None
               ) -> Overload | None:
        """Route and enqueue one request arriving at *site*.

        Returns the :class:`Overload` when the request was shed
        immediately (same-site admission refusal); None otherwise —
        cross-site forwards decide admission after the route delay.
        """
        target = self.router.route(site, spec)
        if target == site:
            return self.queues[target].offer(spec, site, on_done)
        self.sim.at_site(
            target, self.sim.now + self.route_delay,
            lambda: self.queues[target].offer(spec, site, on_done),
            label=f"serve:route:{target}")
        return None

    # -- queue callbacks -----------------------------------------------------

    def record_shed(self, overload: Overload, origin: str) -> None:
        self.overloads.append(overload)
        self.collector.on_shed(at=overload.at)
        self.sim.metrics.counter("serve.shed", site=overload.site,
                                 reason=overload.reason).inc()
        obs = self.sim.obs
        if obs.enabled:
            obs.emit("serve.shed", overload.at, site=overload.site,
                     origin=origin, reason=overload.reason,
                     depth=overload.depth)

    def note_dispatch(self) -> None:
        self.dispatched += 1
