"""The serving front-end: router + per-site queues ahead of the system.

``ServingFrontend`` implements the same ``submit(site, spec, on_done)``
protocol as :class:`~repro.core.system.DvPSystem`, so the workload
driver (and the chaos engine) can point at it unchanged. A submitted
request is routed to a target site, forwarded there (paying the route
delay when it crosses sites), and offered to that site's bounded
queue; admission control may shed it with a typed
:class:`~repro.serving.admission.Overload` instead.

Determinism on the sharded kernel: routing draws use per-origin
streams, cross-site forwards are scheduled ``route_delay >= lookahead``
ahead (exactly like network sends), and the least-queue board
refreshes only at global barriers — see docs/SERVING.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.system import DvPSystem
from repro.core.transactions import TransactionSpec, TxnResult
from repro.metrics.collector import Collector
from repro.metrics.windows import ServeSample
from repro.obs.events import ServeShed
from repro.serving.admission import Overload
from repro.serving.queue import SiteQueue
from repro.serving.router import ROUTERS, DepthBoard, make_router


@dataclass
class ServingConfig:
    """Front-end policy knobs (docs/SERVING.md)."""

    router: str = "least-queue"
    #: Service slots per site: concurrent transactions inside the
    #: system. The load-leveling lever.
    max_inflight: int = 4
    #: Admission bounds; None disables that bound (unbounded queue).
    max_depth: int | None = 64
    max_wait: float | None = None
    #: Forwarding delay for cross-site routing. None = the kernel's
    #: lookahead (0 on the single-queue kernel) — the least delay a
    #: cross-shard hop can legally have.
    route_delay: float | None = None
    #: Depth-board refresh period (global barriers).
    board_period: float = 5.0
    #: Slot lease; None = txn_timeout + one board period of grace.
    lease: float | None = None
    #: Seed for the EWMA service-time estimate before completions.
    service_estimate: float = 1.0
    ewma_alpha: float = 0.2
    #: Keep every ServeSample/Overload in ``frontend.samples`` /
    #: ``frontend.overloads`` (the harness-scale default). Turn off for
    #: 10^5-10^6-site runs and consume the ``on_sample``/``on_overload``
    #: sinks instead (e.g. metrics.windows.StreamingWindowStats) — the
    #: decision stream then costs O(1) memory per request.
    retain_samples: bool = True

    def __post_init__(self) -> None:
        if self.router not in ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}; choose from {ROUTERS}")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.board_period <= 0:
            raise ValueError("board_period must be positive")


class ServingFrontend:
    """Routes, queues, and admission-controls requests for a system."""

    def __init__(self, system: DvPSystem,
                 config: ServingConfig | None = None,
                 collector: Collector | None = None) -> None:
        self.system = system
        self.sim = system.sim
        self.config = config or ServingConfig()
        self.collector = collector or Collector()
        lookahead = getattr(self.sim, "lookahead", 0.0)
        self.route_delay = (self.config.route_delay
                            if self.config.route_delay is not None
                            else lookahead)
        if self.route_delay < lookahead:
            raise ValueError(
                f"route_delay {self.route_delay} below the kernel "
                f"lookahead {lookahead}: cross-shard forwards would "
                "be acausal")
        self.lease = (self.config.lease if self.config.lease is not None
                      else system.config.txn_timeout
                      + self.config.board_period)
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
        #: Empty when ``retain_samples`` is off — use the sinks.
        self.overloads: list[Overload] = []
        #: Enqueue->decision life of every decided request. Empty when
        #: ``retain_samples`` is off — use the sinks.
        self.samples: list[ServeSample] = []
        #: Streaming consumers, called per decision/shed before (and
        #: regardless of) retention. Set before traffic starts.
        self.on_sample: Callable[[ServeSample], None] | None = None
        self.on_overload: Callable[[Overload], None] | None = None
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
        its occupied slots, and let go of the system and the sinks.
        Samples, overloads and counts stay readable."""
        self.stop()
        for queue in self.queues.values():
            queue.close()
        self.system = None
        self.on_sample = self.on_overload = None

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
        if self.on_overload is not None:
            self.on_overload(overload)
        if self.config.retain_samples:
            self.overloads.append(overload)
        self.collector.on_shed(at=overload.at)
        self.sim.metrics.counter("serve.shed", site=overload.site,
                                 reason=overload.reason).inc()
        obs = self.sim.obs
        if obs.enabled:
            obs.emit(ServeShed(t=overload.at, site=overload.site,
                               origin=origin, reason=overload.reason,
                               depth=overload.depth))

    def record_sample(self, sample: ServeSample) -> None:
        if self.on_sample is not None:
            self.on_sample(sample)
        if self.config.retain_samples:
            self.samples.append(sample)

    def note_dispatch(self) -> None:
        self.dispatched += 1
