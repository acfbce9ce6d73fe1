"""Materialized Π(b) views with bounded staleness (docs/READS.md).

The paper concedes that reading an item's full value N is expensive:
the exact protocol drains every remote fragment and every in-flight Vm
to the reader (O(n) messages, plus read-freeze collateral aborts —
e07). This module adds the read-scaling tier:

* :class:`ViewStore` — the authority tier. It consumes the exact same
  incremental observer feed the PR 1 conservation auditor consumes
  (fragment register/write, Vm create/accept) and maintains one running
  total per item. By the conservation equation N = Σ fragments +
  Σ live Vm, that total IS the item's logical value — the view is
  maintained *for free* off hooks that already exist and that
  ``ConservationAuditor.verify_full`` cross-checks against brute-force
  scans.
* :class:`ViewService` — the write-behind refresh loop. At global
  barriers (a consistent cut, so the totals are worker-invariant) it
  snapshots the store into :class:`~repro.reads.messages.ViewEntry`
  values and pushes one batched
  :class:`~repro.reads.messages.ViewRefresh` per (publisher,
  destination) pair over the ordinary network — riding the PR 5 outbox
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
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.domain import Domain
from repro.obs.events import ReadViewMiss, ReadViewRefresh, ReadViewServe
from repro.reads.messages import ViewCertificate, ViewEntry, ViewRefresh

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.site import DvPSite
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
    #: Push refreshes to every site (the write-behind tier). False
    #: keeps only the authority tier + read-through fills — caches warm
    #: lazily from fallback reads instead of proactively.
    push: bool = True

    def __post_init__(self) -> None:
        if self.refresh_period <= 0:
            raise ValueError("refresh_period must be positive")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError("ttl must be positive (or None)")

    @property
    def resolved_ttl(self) -> float:
        return (self.ttl if self.ttl is not None
                else 2.0 * self.refresh_period)


class ObserverFanout:
    """Tee the site/fragment observer feed to several consumers.

    Sites carry a single ``observer`` slot (historically the
    conservation auditor). With views enabled the slot holds one of
    these, delegating every notification in order — the auditor stays
    first so its books are settled before the view store's.
    """

    def __init__(self, targets: Iterable[Any]) -> None:
        self.targets = list(targets)

    def on_fragment_register(self, site: str, item: str, domain: Domain,
                             value: Any) -> None:
        for target in self.targets:
            target.on_fragment_register(site, item, domain, value)

    def on_fragment_write(self, site: str, item: str, old: Any,
                          new: Any) -> None:
        for target in self.targets:
            target.on_fragment_write(site, item, old, new)

    def on_vm_created(self, sender: str, entry) -> None:
        for target in self.targets:
            target.on_vm_created(sender, entry)

    def on_vm_accepted(self, receiver: str, src: str, entry) -> None:
        for target in self.targets:
            target.on_vm_accepted(receiver, src, entry)


class ViewStore:
    """Authority tier: one exact running total per item.

    Same books as the auditor's, folded into a single N per item:
    registration adds the initial quota, a fragment write adds
    (new − old), a Vm creation adds the in-flight amount, and an
    acceptance retires it (keyed by (sender, receiver, seq) so a
    retransmitted Vm retires exactly once). Redistribution is therefore
    net-neutral and the total moves only when committed transactions
    change value — N(t) at every instant.
    """

    def __init__(self) -> None:
        self._domains: dict[str, Domain] = {}
        self._totals: dict[str, Any] = {}
        self._live_entries: dict[tuple[str, str, int], tuple[str, Any]] = {}

    def items(self) -> list[str]:
        return sorted(self._totals)

    def total(self, item: str) -> Any:
        return self._totals[item]

    # -- the observer feed --------------------------------------------------

    def on_fragment_register(self, site: str, item: str, domain: Domain,
                             value: Any) -> None:
        self._domains.setdefault(item, domain)
        self._totals[item] = domain.combine(
            self._totals.get(item, domain.zero()), value)

    def on_fragment_write(self, site: str, item: str, old: Any,
                          new: Any) -> None:
        domain = self._domains.get(item)
        if domain is None:  # pragma: no cover - item never registered
            return
        self._totals[item] = domain.subtract(
            domain.combine(self._totals[item], new), old)

    def on_vm_created(self, sender: str, entry) -> None:
        domain = self._domains.get(entry.item)
        if domain is None:  # pragma: no cover - item never registered
            return
        key = (sender, entry.dst, entry.channel_seq)
        if key in self._live_entries:  # pragma: no cover - defensive
            return
        self._live_entries[key] = (entry.item, entry.amount)
        self._totals[entry.item] = domain.combine(self._totals[entry.item],
                                                  entry.amount)

    def on_vm_accepted(self, receiver: str, src: str, entry) -> None:
        info = self._live_entries.pop((src, receiver, entry.channel_seq),
                                      None)
        if info is None:  # pragma: no cover - unobserved creation
            return
        item, amount = info
        self._totals[item] = self._domains[item].subtract(
            self._totals[item], amount)


class SiteViewCache:
    """Read-through per-site cache of view entries.

    Volatile like the lock table: a crash wipes it (the site recovers
    cold and warms from the next refresh or its own fallback reads).
    Serving re-validates staleness, TTL, and the directory epoch at
    admission time — an entry is *never* trusted just because it is
    present.
    """

    def __init__(self, site: str, sim: "Simulator", ttl: float,
                 epoch_of: Callable[[], int]) -> None:
        self.site = site
        self.sim = sim
        self.ttl = ttl
        self.epoch_of = epoch_of
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

    def clear(self) -> None:
        self.entries.clear()

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
        elif entry.epoch != self.epoch_of():
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
                self._obs.emit(ReadViewMiss(t=now, site=self.site, txn=txn,
                                            item=item, reason=reason))
            return None
        staleness = now - entry.as_of
        self.c_hits.inc()
        self.h_staleness.observe(staleness)
        if self._obs.enabled:
            self._obs.emit(ReadViewServe(t=now, site=self.site, txn=txn,
                                         item=item, staleness=staleness,
                                         bound=bound))
        return ViewCertificate(item=item, value=entry.value,
                               as_of=entry.as_of, checked_at=now,
                               bound=bound, epoch=entry.epoch)


class ViewService:
    """Owns the authority tier and drives the write-behind refreshes."""

    def __init__(self, system: "DvPSystem", config: ViewConfig) -> None:
        self.system = system
        self.config = config
        self.sim = system.sim
        self.store = ViewStore()
        #: God's-eye freshest entry per item (the authority tier's own
        #: snapshot), used for read-through fills after fallback reads.
        #: Mutated only at global barriers, so shard events may read it
        #: between rounds without order dependence.
        self.latest: dict[str, ViewEntry] = {}
        self.refreshes = 0
        self.refresh_sends = 0
        self._running = True
        self._last_values: dict[str, Any] | None = None
        for site in system.sites.values():
            self.adopt_site(site)
        self.sim.at_global(self.sim.now + config.refresh_period,
                           self._tick, label="view:refresh")

    def adopt_site(self, site: "DvPSite") -> None:
        """Wire the observer fanout and a cold cache into *site*."""
        site.observer = ObserverFanout([self.system.auditor, self.store])
        site.fragments.observer = site.observer
        site.views = SiteViewCache(
            site.name, self.sim, self.config.resolved_ttl,
            lambda: self.system.directory.epoch)

    def stop(self) -> None:
        """Stop the refresh chain (the pending tick becomes a no-op)."""
        self._running = False

    def close(self) -> None:
        """Stop, and let go of the system (which holds this service);
        the store, ``latest`` and the counters stay readable."""
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
        executed on every shard, so ``store.total`` is exact and
        worker-invariant. Each item's entry is published by its
        directory primary owner; owners known to be down publish
        nothing this round (their items' caches age toward fallback).
        """
        now = self.sim.now
        epoch = self.system.directory.epoch
        items = self.store.items()
        if not items:
            return
        if view_leak() == "view-staleness" and self._last_values is not None:
            # Planted bug: fresh as_of stamps over the first snapshot's
            # values — the certificate lies as soon as value moves.
            values = self._last_values
        else:
            values = {item: self.store.total(item) for item in items}
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
            if not self.config.push:
                continue
            for dst in sorted(self.system.sites):
                if dst == owner:
                    continue
                network.send(owner, dst, ViewRefresh(
                    origin=owner, entries=entries, published_at=now))
                sends += 1
        self.refresh_sends += sends
        if self.sim.obs.enabled:
            self.sim.obs.emit(ReadViewRefresh(
                t=now, publishers=len(by_owner),
                items=len(items), sends=sends))

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
