"""Materialized Π(b) views with bounded staleness (docs/READS.md).

The paper concedes that reading an item's full value N is expensive:
the exact protocol drains every remote fragment and every in-flight Vm
to the reader (O(n) messages, plus read-freeze collateral aborts —
e07). This module adds the read-scaling tier:

* The authority tier is the conservation auditor's books: N =
  Σ fragments + Σ live Vm, both sums kept incrementally by
  ``ConservationAuditor`` (and cross-checked against brute-force scans
  by ``verify_full``), so an item's N at any instant is two lookups.
* :class:`ViewService` — the write-behind refresh loop. At global
  barriers (a consistent cut, so the totals are worker-invariant) it
  snapshots those books into :class:`~repro.reads.messages.ViewEntry`
  values and pushes one batched
  :class:`~repro.reads.messages.ViewRefresh` per publisher to every
  destination over the ordinary network — riding the PR 5 outbox
  bundling, suffering real loss/partition/crash. Each item is
  published by its directory primary owner, so a dead or partitioned
  owner degrades its items' views realistically (caches go stale,
  readers fall back).
* :class:`SiteViewCache` — the per-site read-through tier. Serves a
  :class:`~repro.reads.messages.ViewCertificate` when it holds an
  entry that is fresh enough (staleness <= the reader's bound, and
  <= the TTL) and minted under the current directory epoch (PR 7
  fencing: reshard/migration can never serve values from a dead
  topology). Anything else is a miss and the reader escalates to the
  classic fan-out; the miss is then repaired read-through from the
  authority tier.

Safety note (why a lost refresh can never lie): refreshes only move
*older* snapshots around. Admission re-checks staleness against the
reader's bound at serve time, so the failure mode of every fault is
"staler than hoped → fall back to fan-out", never "wrong value". The
chaos ViewOracle (repro.chaos.oracles) proves exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Any, Iterable

from repro.reads.messages import ViewCertificate, ViewEntry, ViewRefresh

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.partition import Directory
    from repro.core.system import DvPSystem
    from repro.sim.kernel import Simulator

#: Test-only fault injection mirroring ``fragments._TEST_LEAK`` (see
#: docs/CHAOS.md): a deliberately planted certificate bug the chaos
#: explorer's ViewOracle must catch and the shrinker must minimize.
#:
#: ``"view-staleness"`` — the publisher stamps each refresh with a
#: fresh ``as_of`` but keeps re-publishing the *first* snapshot's
#: values: the certificate claims "this was N at time t" when it was
#: not. Any write landing between refreshes followed by a view-served
#: read violates the certificate. Never set in production code paths.
_VIEW_LEAK: str | None = None

VIEW_LEAK_MODES = (None, "view-staleness")


def set_view_leak(mode: str | None) -> None:
    """Arm/disarm the planted certificate bug (test harnesses only)."""
    global _VIEW_LEAK
    if mode not in VIEW_LEAK_MODES:
        raise ValueError(
            f"unknown view leak mode {mode!r}; try {VIEW_LEAK_MODES}")
    _VIEW_LEAK = mode


def view_leak() -> str | None:
    return _VIEW_LEAK


@dataclass
class ViewConfig:
    """Knobs for the view maintenance and cache tiers."""

    #: Global-barrier period between write-behind refresh rounds.
    refresh_period: float = 5.0
    #: Cache entries older than this are misses regardless of the
    #: reader's bound; None = 2 × refresh_period (one missed round of
    #: grace before the cache declares itself cold).
    ttl: float | None = None

    def __post_init__(self) -> None:
        # Chained compares: NaN fails every one of them.
        if not 0 < self.refresh_period < inf:
            raise ValueError("refresh_period must be positive and finite")
        if self.ttl is not None and not 0 < self.ttl < inf:
            raise ValueError("ttl must be positive and finite (or None)")

    @property
    def resolved_ttl(self) -> float:
        return (self.ttl if self.ttl is not None
                else 2.0 * self.refresh_period)


class SiteViewCache:
    """Read-through per-site cache of view entries.

    Volatile like the lock table: it goes with its site at a crash, and
    the next incarnation starts cold and warms from the next refresh or
    its own fallback reads.
    Serving re-validates staleness, TTL, and the directory epoch at
    admission time — an entry is *never* trusted just because it is
    present.
    """

    def __init__(self, site: str, sim: "Simulator", ttl: float,
                 directory: "Directory") -> None:
        self.site = site
        self.sim = sim
        self.ttl = ttl
        self.directory = directory
        self.entries: dict[str, ViewEntry] = {}
        self._obs = sim.obs
        self.c_hits = sim.metrics.counter("view.hits", site=site)
        self.c_misses = sim.metrics.counter("view.misses", site=site)
        self.h_staleness = sim.metrics.histogram("view.staleness", site=site)

    # -- population ---------------------------------------------------------

    def absorb(self, refresh: ViewRefresh) -> None:
        for entry in refresh.entries:
            self.store(entry)

    def store(self, entry: ViewEntry) -> None:
        """Keep the freshest entry per item (refreshes can reorder)."""
        current = self.entries.get(entry.item)
        if current is None or entry.as_of >= current.as_of:
            self.entries[entry.item] = entry

    # -- admission ----------------------------------------------------------

    def serve(self, item: str, bound: float | None,
              txn: str = "") -> ViewCertificate | None:
        """Certificate for *item* iff the cached entry satisfies
        *bound*, the TTL, and the current epoch; None = miss."""
        now = self.sim.now
        entry = self.entries.get(item)
        reason = ""
        if entry is None:
            reason = "cold"
        elif entry.epoch != self.directory.epoch:
            # PR 7 fencing: the topology changed since this entry was
            # minted; evict so the next refresh re-populates it.
            del self.entries[item]
            reason = "epoch"
        elif now - entry.as_of > self.ttl:
            del self.entries[item]
            reason = "ttl"
        elif bound is not None and now - entry.as_of > bound:
            reason = "bound"
        if reason:
            self.c_misses.inc()
            if self._obs.enabled:
                self._obs.emit("read.view-miss", now, site=self.site,
                               txn=txn, item=item, reason=reason)
            return None
        staleness = now - entry.as_of
        self.c_hits.inc()
        self.h_staleness.observe(staleness)
        if self._obs.enabled:
            self._obs.emit("read.view-serve", now, site=self.site,
                           txn=txn, item=item, staleness=staleness,
                           bound=bound)
        return ViewCertificate(item, entry.value, entry.as_of, now, bound,
                               entry.epoch)


class ViewService:
    """Drives the write-behind refreshes off the auditor's books."""

    def __init__(self, system: "DvPSystem", config: ViewConfig) -> None:
        self.system = system
        self.config = config
        self.sim = system.sim
        #: God's-eye freshest entry per item (the authority tier's
        #: snapshot), used for read-through fills after fallback reads.
        #: Mutated only at global barriers, so shard events may read it
        #: between rounds without order dependence.
        self.latest: dict[str, ViewEntry] = {}
        self.refreshes = 0
        self.refresh_sends = 0
        self._running = True
        self._last_values: dict[str, Any] | None = None
        self.sim.at_global(self.sim.now + config.refresh_period,
                           self._tick, label="view:refresh")

    def stop(self) -> None:
        """Stop the refresh chain (the pending tick becomes a no-op)."""
        self._running = False

    def close(self) -> None:
        """Stop, and let go of the system (which holds this service);
        ``latest`` and the counters stay readable."""
        self.stop()
        self.system = None

    # -- the refresh loop ---------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        self.publish()
        self.sim.at_global(self.sim.now + self.config.refresh_period,
                           self._tick, label="view:refresh")

    def publish(self) -> None:
        """Snapshot every item at this barrier and push the batches.

        Runs at a consistent cut: every event with timestamp <= now has
        executed on every shard, so the auditor's N is exact and
        worker-invariant. Each item's entry is published by its
        directory primary owner; owners known to be down publish
        nothing this round (their items' caches age toward fallback).
        """
        now = self.sim.now
        epoch = self.system.directory.epoch
        domains = self.system._items
        items = sorted(domains)
        if not items:
            return
        auditor = self.system.auditor
        if view_leak() == "view-staleness" and self._last_values is not None:
            # Planted bug: fresh as_of stamps over the first snapshot's
            # values — the certificate lies as soon as value moves.
            values = self._last_values
        else:
            values = {item: domains[item].combine(
                auditor.fragments_total(item), auditor.live_vm_total(item))
                for item in items}
            self._last_values = values
        by_owner: dict[str, list[ViewEntry]] = {}
        for item in items:
            entry = ViewEntry(item=item, value=values[item], as_of=now,
                              epoch=epoch)
            self.latest[item] = entry
            owners = self.system.directory.owners(item)
            if not owners:  # pragma: no cover - directory always owns
                continue
            by_owner.setdefault(owners[0], []).append(entry)
        self.refreshes += 1
        sends = 0
        network = self.system.network
        for owner in sorted(by_owner):
            if not network.is_up(owner):
                continue
            entries = tuple(by_owner[owner])
            publisher = self.system.sites.get(owner)
            if publisher is not None and publisher.views is not None:
                for entry in entries:
                    publisher.views.store(entry)
            # One immutable payload, sent to every destination.
            refresh = ViewRefresh(origin=owner, entries=entries,
                                  published_at=now)
            for dst in sorted(self.system.sites):
                if dst == owner:
                    continue
                network.send(owner, dst, refresh)
                sends += 1
        self.refresh_sends += sends
        if self.sim.obs.enabled:
            self.sim.obs.emit("read.refresh", now,
                              publishers=len(by_owner), items=len(items),
                              sends=sends)

    # -- read-through fills -------------------------------------------------

    def fill_through(self, site: str, items: Iterable[str]) -> None:
        """Repair a cache after a fallback read (read-through tier).

        The reader paid the fan-out; pull the authority tier's freshest
        entries for the items it read so the next bounded-staleness
        read can be served locally. Fills from ``latest`` (exact
        barrier snapshots), never from the fallback's own result — a
        full read may under-report by the in-flight Vm blind spot and
        must not be laundered into a certificate.
        """
        cache = self.system.sites[site].views
        if cache is None:  # pragma: no cover - views always wired
            return
        for item in items:
            entry = self.latest.get(item)
            if entry is not None:
                cache.store(entry)
