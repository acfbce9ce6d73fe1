"""Proactive background redistribution.

The base protocol redistributes *on demand*: a site asks for value only
when a transaction is short (Section 3: "requests other sites ... in
the case of being unable to proceed with what is available"). The paper
leaves "the best ways to distribute the data" open (Section 9); this
module implements the proactive complement: a per-site daemon that
periodically moves value toward where it is wanted, as ordinary Rds
transactions (a Vm per push, a ``DataRequest`` per pull).

Two movement modes, selected by the policy
(:mod:`repro.core.redistribution`):

* **push** — a site holding more than ``high_watermark × target`` of an
  item ships surplus above ``target`` to a live, reachable peer chosen
  by the policy (round-robin or demand-weighted);
* **pull** — a site below ``low_watermark × target`` requests the
  deficit from the peer the policy believes richest, exactly as a
  short transaction would (the responder's normal Rds honor path
  answers it; no new message kinds exist).

Rebalancing never changes any item's value — it only moves fragments —
so it composes with every other mechanism: the conservation auditor,
recovery, and both CC schemes see nothing unusual. Every push is a
locked, logged ``[actions, messages]`` force; every pull lands as a
peer's ordinary ``VmCreateRecord``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING

from repro.core.messages import TRANSFER_MODE, DataRequest
from repro.core.redistribution import (
    REBALANCE_POLICIES,
    DemandTracker,
    make_rebalance_policy,
)
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.site import DvPSite


@dataclass(frozen=True)
class RebalanceConfig:
    """When and how much to move.

    ``target`` defaults to a site's fragment value when the daemon
    first sees the item (the initial quota for items present at start;
    see :meth:`RebalanceDaemon.set_target` for explicit plans). Only
    integer-valued (counter-like) domains are rebalanced; other domains
    are skipped.

    ``max_ship`` caps a single push (None: ship the whole surplus —
    the historical behaviour); with a cap, every policy spends the same
    worst-case shipment budget per period, which is what makes policy
    comparisons fair.
    """

    period: float = 20.0
    high_watermark: float = 2.0
    low_watermark: float = 0.5
    policy: str = "static-rr"
    max_ship: int | None = None

    def __post_init__(self) -> None:
        # Chained compares: NaN fails every one of them.
        if not 0 < self.period < inf:
            raise ValueError("period must be positive and finite")
        if not self.high_watermark >= 1.0:
            raise ValueError("high_watermark must be >= 1")
        if not 0.0 <= self.low_watermark < 1.0:
            raise ValueError("low_watermark must be in [0, 1)")
        if self.policy not in REBALANCE_POLICIES:
            raise ValueError(
                f"unknown rebalance policy {self.policy!r}; "
                f"choose from {sorted(REBALANCE_POLICIES)}")
        if self.max_ship is not None and self.max_ship < 1:
            raise ValueError("max_ship must be >= 1 (or None)")


class RebalanceDaemon:
    """Periodic redistribution planner for one site."""

    def __init__(self, site: "DvPSite",
                 config: RebalanceConfig | None = None) -> None:
        self.site = site
        if site.demand is None:
            # The planner is the ledger's one reader: its site starts
            # feeding one now.
            site.demand = DemandTracker(site.sim)
        self.config = config or RebalanceConfig()
        self.policy = make_rebalance_policy(self.config.policy)
        self.targets: dict[str, int] = {}
        self.shipments = 0
        self.pulls = 0
        self.skipped_locked = 0
        self._timer = PeriodicTimer(site.sim, self.config.period,
                                    self.tick,
                                    label=f"rebalance:{site.name}")
        self._obs = site.sim.obs
        self._c_ship = site.sim.metrics.counter("rebal.shipments",
                                                site=site.name)
        self._c_pull = site.sim.metrics.counter("rebal.pulls",
                                                site=site.name)

    def start(self) -> None:
        """Capture current fragments as targets and begin ticking."""
        for item in self.site.fragments.items():
            value = self.site.fragments.value(item)
            if isinstance(value, int):
                self.targets[item] = value
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def close(self) -> None:
        """Stop for good: the timer's action is this daemon's bound
        method (DESIGN.md §7). Counters and targets stay readable."""
        self._timer.close()

    @property
    def running(self) -> bool:
        return self._timer.running

    def set_target(self, item: str, target: int) -> None:
        """Install an explicit per-item target level (a quota plan)."""
        if target < 0:
            raise ValueError("target must be >= 0")
        self.targets[item] = target

    def tick(self) -> None:
        """One pass over every known item: push surplus, pull deficit.

        Items registered after the daemon started are adopted here,
        with their first-seen value as the default target — a snapshot
        taken once at start would silently exempt them forever.
        """
        if not self.site.alive or self.site.decommissioned:
            # A decommissioned site's value is being drained by the
            # migration controller; planning against it would fight it.
            return
        for item in list(self.site.fragments.items()):
            value = self.site.fragments.value(item)
            if not isinstance(value, int):
                continue
            target = self.targets.get(item)
            if target is None:
                target = value
                self.targets[item] = target
            if self.policy.pushes:
                self._maybe_ship(item, target)
            if self.policy.pulls:
                self._maybe_pull(item, target)

    # -- live-topology view ----------------------------------------------

    def _live_peers(self, item: str) -> list[str]:
        """Peers worth planning toward: the item's directory owners
        that are up and reachable right now.

        Shipping to a crashed or partitioned-away peer is legal but
        useless — the Vm strands in flight while the local fragment has
        already been drained. The liveness registry is planning-only
        input (the transport still never reports failures). Placement
        comes from the site's directory (``peers_for``), so under a
        non-"all" partitioner the planner moves value only among the
        item's owners; under "all" this is exactly the old full peer
        list.
        """
        site = self.site
        return [peer for peer in site.peers_for(item)
                if site.network.is_up(peer)
                and site.network.reachable(site.name, peer)]

    # -- push -------------------------------------------------------------

    def _maybe_ship(self, item: str, target: int) -> None:
        site = self.site
        value = site.fragments.value(item)
        threshold = max(target, 1) * self.config.high_watermark
        if value <= threshold:
            return
        surplus = value - target
        if self.config.max_ship is not None:
            surplus = min(surplus, self.config.max_ship)
        candidates = self._live_peers(item)
        if not candidates:
            return
        peer = self.policy.push_target(site.demand, item, candidates)
        if peer is None:
            return
        # Ship as an Rds transaction (DvPSite.ship). Peer selection
        # above was a pure peek: the cursor advances only via
        # on_shipped, after the create record is forced, so a failed
        # acquisition cannot burn a peer's turn.
        owner = f"rebalance:{site.name}:{self.shipments}"
        if site.ship(owner, item, ((peer, surplus),), "rebal.ship",
                     policy=self.policy.name) is None:
            self.skipped_locked += 1
            return
        self.shipments += 1
        self._c_ship.value += 1
        self.policy.on_shipped(peer)

    # -- pull -------------------------------------------------------------

    def _maybe_pull(self, item: str, target: int) -> None:
        site = self.site
        if target < 1:
            return
        value = site.fragments.value(item)
        if value >= self.config.low_watermark * target:
            return
        need = target - value
        if need <= 0:
            return
        candidates = self._live_peers(item)
        if not candidates:
            return
        peer = self.policy.pull_source(site.demand, item, candidates)
        if peer is None:
            return
        # An ordinary fire-and-forget DataRequest: the peer's normal
        # Rds honor path (lock, [actions, messages] force, Vm) answers
        # it, so conservation and recovery see nothing new. No reply is
        # guaranteed — the next tick re-evaluates from scratch.
        self.pulls += 1
        self._c_pull.value += 1
        request = DataRequest(
            txn_id=f"rebalance-pull:{site.name}:{self.pulls}",
            origin=site.name, mode=TRANSFER_MODE, wants=((item, need),),
            ts=site.clock.next())
        site.send_request(peer, request)
        self.policy.on_pulled(peer)
        if self._obs.enabled:
            self._obs.emit("rebal.pull", site.sim.now, site=site.name,
                           src=peer, item=item, amount=need,
                           policy=self.policy.name)


def install_rebalancing(system, config: RebalanceConfig | None = None
                        ) -> dict[str, RebalanceDaemon]:
    """Attach and start a daemon at every site of a DvPSystem.

    Each daemon is built and armed in its site's scheduling context so
    its periodic tick lives on the site's shard when the simulation is
    sharded (a no-op on the single-queue kernel). The daemons are
    attached to the system, so ``system.close()`` closes them. Each
    builds its site's demand ledger, which hears only what happens
    after: install before the first arrival.
    """
    daemons = {}
    for name, site in system.sites.items():
        def build(site=site):
            daemon = RebalanceDaemon(site, config)
            daemon.start()
            return daemon
        daemons[name] = system.sim.call_in_site(name, build)
        system.attach(daemons[name])
    return daemons
