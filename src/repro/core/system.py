"""The DvPSystem façade: build sites, register partitioned items, run.

This is the library's main entry point::

    from repro.core import DvPSystem, SystemConfig, CounterDomain
    from repro.core import TransactionSpec, DecrementOp

    system = DvPSystem(SystemConfig(sites=["W", "X", "Y", "Z"]))
    system.add_item("flightA", CounterDomain(), split={"W": 25, "X": 25,
                                                       "Y": 25, "Z": 25})
    system.submit("W", TransactionSpec(ops=(DecrementOp("flightA", 3),)))
    system.run_for(100)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import inf
from types import MappingProxyType
from typing import Any, Callable, Mapping, Protocol

from repro.core import recovery
from repro.core.cc import make_cc
from repro.core.domain import Domain
from repro.core.fragments import test_leak
from repro.core.invariants import AuditReport, ConservationAuditor
from repro.core.migration import (
    MigrationController,
    ReshardInProgress,
    plan_moves,
)
from repro.core.partition import PARTITIONERS, Directory, make_partitioner
from repro.core.policies import make_policy
from repro.core.redistribution import DemandTracker
from repro.core.site import DvPSite, SiteDown, SiteUp
from repro.core.transactions import (
    Outcome,
    Transaction,
    TransactionSpec,
    TxnResult,
)
from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.net.outbox import BundlingConfig
from repro.net.sync import SynchronousNetwork
from repro.reads.views import SiteViewCache, ViewConfig, ViewService
from repro.sim.kernel import Simulator
from repro.sim.shard import ShardPlan, ShardedSimulator
from repro.storage.log import StableLog
from repro.storage.pages import PageStore


@dataclass
class SystemConfig:
    """Everything needed to build a DvP system."""

    sites: list[str] = field(default_factory=lambda: ["W", "X", "Y", "Z"])
    seed: int = 0
    cc: str = "conc1"
    policy: str = "ask-all"
    policy_kwargs: dict = field(default_factory=dict)
    txn_timeout: float = 30.0
    retransmit_period: float = 5.0
    #: A site checkpoints every this many log appends; 0 = never.
    checkpoint_interval: int = 0
    #: Retry request rounds before the timeout fires (Section 5 mentions
    #: "the requests could be re-tried a few more times" as a variation;
    #: 0 reproduces the paper's pessimistic base protocol).
    request_retries: int = 0
    #: After honoring a read-drain, keep the drained fragment locked for
    #: this long (None = txn_timeout). Reproduction finding: without
    #: this freeze a drained site can be re-funded (local increments,
    #: arriving Vm) before the reader commits, and the committed read
    #: misses that value non-serializably. The freeze realizes the
    #: paper's implicit serial-execution assumption that "all sites
    #: other than the site where the read is performed will have null
    #: values" while the read completes; it is time-bounded, so the
    #: non-blocking property survives.
    read_freeze: float | None = None
    link: LinkConfig = field(default_factory=LinkConfig)
    #: Conc2 requires the order-synchronous network; None = follow cc.
    synchronous: bool | None = None
    sync_delay: float = 1.0
    #: Transport bundling (repro.net.outbox): None = off, the seed
    #: behaviour. The synchronous network ignores it (it models a
    #: lossless ordered broadcast, there is nothing to coalesce).
    bundling: BundlingConfig | None = None
    #: Execute the simulation as this many site-group shards under
    #: conservative lookahead (repro.sim.shard; docs/PARALLEL.md).
    #: 1 = the classic single-queue kernel, byte-for-byte the seed
    #: behaviour. Requires a positive link delay lower bound.
    shards: int = 1
    #: Worker-lane count for the sharded kernel's deterministic
    #: schedule (shard i -> worker i % shard_workers). Any value yields
    #: the same trace fingerprint; it exists so tests can prove that.
    shard_workers: int = 1
    #: Placement function for the partition directory
    #: (repro.core.partition; docs/PARTITIONING.md). "all" = every site
    #: owns every item, byte-for-byte the seed behaviour.
    partitioner: str = "all"
    #: Owner-set size per item (None = all directory sites). Ignored by
    #: the "all" partitioner.
    replicas: int | None = None
    #: Bounded-staleness Π(b) read views (repro.reads; docs/READS.md).
    #: None = off, the classic fan-out-only read path — byte-for-byte
    #: the seed behaviour (old recorded artifacts carry no key and load
    #: with views off, replaying byte-for-byte).
    views: ViewConfig | None = None

    def __post_init__(self) -> None:
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("site names must be unique")
        if not self.sites:
            raise ValueError("at least one site required")
        # Chained compares: NaN fails every one of them.
        if not 0 < self.txn_timeout < inf:
            raise ValueError("txn_timeout must be positive and finite")
        if not 0 < self.retransmit_period < inf:
            raise ValueError("retransmit_period must be positive and finite")
        if not 0 <= self.checkpoint_interval < inf:
            raise ValueError("checkpoint_interval must be >= 0 and finite")
        if not 0 <= self.request_retries < inf:
            raise ValueError("request_retries must be >= 0 and finite")
        if self.read_freeze is not None and not 0 <= self.read_freeze < inf:
            raise ValueError("read_freeze must be >= 0 and finite (or None)")
        if not 0 <= self.sync_delay < inf:
            raise ValueError("sync_delay must be >= 0 and finite")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")
        if self.partitioner not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; "
                f"choose from {sorted(PARTITIONERS)}")
        if self.replicas is not None and self.replicas < 1:
            raise ValueError("replicas must be >= 1 (or None)")


class System(Protocol):
    """What every system here answers — :class:`DvPSystem`, the hybrid
    manager over it, and the baselines it is compared against.

    A declaration, not a layer: nothing inherits from it and nothing
    checks it at run time. It names what fault plans, workload drivers,
    the chaos explorer and the experiments may rely on without knowing
    which protocol they are driving. Item registration is *not* part of
    it — fragments and splits, homes, primaries and quorums really
    differ — so whoever builds a system registers its items.
    """

    sim: Simulator
    network: Network
    #: Per site, at least ``.alive`` (and, where the protocol keeps
    #: one, ``.log``).
    sites: Mapping[str, Any]
    results: list[TxnResult]

    def submit(self, site: str, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None = None
               ) -> Any:
        """Start a transaction at *site*; a down site raises
        :class:`~repro.core.site.SiteDown`."""

    def run_for(self, duration: float) -> None: ...

    def run_until(self, time: float) -> None: ...

    def crash(self, site: str) -> None:
        """Fail-stop *site*: close it (it stays in ``sites``, not
        alive); crashing a down site does nothing."""

    def recover(self, site: str) -> Any:
        """Put a new incarnation of the crashed *site* in ``sites``; a
        live one raises :class:`~repro.core.site.SiteUp`."""

    def total_value(self, items: list[str] | None = None) -> Any:
        """The summed logical value of *items* (default: all)."""

    def blocked(self) -> list[tuple[str, str, float]]:
        """(site, txn, how long so far) for every transaction still
        waiting; empty at quiescence unless somebody is blocked."""

    def close(self) -> None:
        """Whoever built the system is done with it (DESIGN.md §7)."""


class DvPSystem:
    """A complete data-value-partitioned distributed database."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        use_sync = (self.config.synchronous
                    if self.config.synchronous is not None
                    else self.config.cc == "conc2")
        if self.config.shards > 1:
            # Lookahead = the least delay any cross-site message can
            # have. Injecting a link fault (or reconfiguring a link)
            # with a smaller base delay later raises LookaheadError at
            # the offending send — loud, never silently acausal.
            lookahead = (self.config.sync_delay if use_sync
                         else self.config.link.delay_lower_bound)
            if lookahead <= 0:
                raise ValueError(
                    "shards > 1 requires a positive link delay lower "
                    "bound (LinkConfig.base_delay) to derive the "
                    "conservative lookahead")
            plan = ShardPlan.round_robin(
                self.config.sites, self.config.shards, lookahead)
            self.sim: Simulator = ShardedSimulator(
                plan, self.config.seed,
                workers=self.config.shard_workers)
        else:
            self.sim = Simulator(self.config.seed)
        if use_sync:
            self.network: Network = SynchronousNetwork(
                self.sim, delay=self.config.sync_delay)
        else:
            self.network = Network(self.sim, self.config.link,
                                   bundling=self.config.bundling)
        self.cc = make_cc(self.config.cc)
        self.policy = make_policy(self.config.policy,
                                  **self.config.policy_kwargs)
        self.results: list[TxnResult] = []
        self.directory = Directory(
            make_partitioner(self.config.partitioner),
            self.config.sites, replicas=self.config.replicas)
        self._items: dict[str, Domain] = {}
        self._migration: MigrationController | None = None
        self.migrations: list[MigrationController] = []
        #: Components built around this system that :meth:`close` must
        #: close with it (see :meth:`attach`).
        self._attached: list[Any] = []
        #: Called with each recovered site: whoever holds a site object
        #: beyond :attr:`sites` and the network re-points it here, once
        #: per recovery (the hybrid manager's delivery interposer, the
        #: rebalance daemons).
        self.on_recover: list[Callable[[DvPSite], None]] = []
        self.auditor = ConservationAuditor(self)
        self.sites: dict[str, DvPSite] = {}
        for name in self.config.sites:
            self._new_site(name)
        #: Item → the read-only ``{item: live Vm total}`` that single-
        #: item reads share as their ``inflight_at_commit``.
        self._inflight: dict[str, Mapping[str, Any]] = {}
        #: Bounded-staleness view service (docs/READS.md); it
        #: publishes off the auditor's books.
        self.views: ViewService | None = None
        if self.config.views is not None:
            self.views = ViewService(self, self.config.views)

    def _new_site(self, name: str,
                  crashed: DvPSite | None = None) -> DvPSite:
        """Build site *name* and wire it into this system: the shared
        config, directory, cc and policy; the auditor as its accounting
        observer; a cold view cache when views are on.

        A new site gets fresh stable storage, the next rank (sites are
        never dropped from :attr:`sites`, so its size is the Lamport
        clock's tie-breaker) and the zero fragment of every known item
        (conservation-neutral). Given the *crashed* incarnation, the
        site is its next one: the same log, pages and rank, the pages
        adopted as they stand, :data:`DvPSite.SURVIVES` carried over,
        and a demand ledger exactly when the crashed one fed one.

        Built in the site's own scheduling context so anything it arms
        lands on its shard (a no-op on the single-queue kernel)."""

        def build() -> DvPSite:
            stable = ((len(self.sites), StableLog(name), PageStore(name))
                      if crashed is None else
                      (crashed.rank, crashed.log, crashed.pages))
            site = DvPSite(name, *stable, self.sim, self.network, self.cc,
                           self.policy, self.config, self.directory,
                           self._record_result, self.auditor)
            if self.config.views is not None:
                site.views = SiteViewCache(
                    name, self.sim, self.config.views.resolved_ttl,
                    self.directory)
            if crashed is None:
                self.network.register(name, site.deliver)
                for item, domain in self._items.items():
                    site.fragments.register(item, domain, domain.zero())
            else:
                for item, domain in self._items.items():
                    site.fragments.adopt(item, domain)
                for attribute in DvPSite.SURVIVES:
                    setattr(site, attribute, getattr(crashed, attribute))
                if crashed.demand is not None:
                    site.demand = DemandTracker(self.sim)
            return site

        self.sites[name] = site = self.sim.call_in_site(name, build)
        return site

    # -- item registration --------------------------------------------------

    def add_item(self, item: str, domain: Domain,
                 split: dict[str, Any] | None = None,
                 total: Any = None) -> None:
        """Register a partitioned item with its initial quotas.

        Either give an explicit *split* (site -> initial fragment) or a
        *total* to divide as evenly as the domain allows (counters
        only) across the item's directory owners. Sites absent from
        the split start with the zero value — every site registers the
        item (zero fragments are combine identities, so non-owners are
        conservation-neutral and can still absorb stray Vm).
        """
        if split is None:
            if total is None:
                raise ValueError("provide either split or total")
            split = self._even_split(domain, total,
                                     self.directory.owners(item))
        for name in split:
            if name not in self.sites:
                raise KeyError(f"unknown site {name!r} in split")
        for name, site in self.sites.items():
            initial = split.get(name, domain.zero())
            site.fragments.register(item, domain, initial)
        self._items[item] = domain
        self.auditor.register_item(item, domain,
                                   domain.pi(split.values()))

    def _even_split(self, domain: Domain, total: Any,
                    names: "tuple[str, ...] | list[str]"
                    ) -> dict[str, Any]:
        if not isinstance(total, int):
            raise ValueError("even split requires an integer total")
        names = list(names)
        base, leftover = divmod(total, len(names))
        return {name: base + (1 if index < leftover else 0)
                for index, name in enumerate(names)}

    # -- elastic topology (docs/PARTITIONING.md) ----------------------------

    @property
    def reshard_in_progress(self) -> bool:
        return self._migration is not None and not self._migration.done

    def _check_reshardable(self) -> None:
        if self.reshard_in_progress:
            raise ReshardInProgress(
                "a topology change is already migrating; wait for it "
                "to drain before requesting another")

    def _emit_epoch(self, reason: str, site: str = "") -> None:
        if self.sim.obs.enabled:
            self.sim.obs.emit(
                "dir.epoch", self.sim.now, epoch=self.directory.epoch,
                reason=reason, site=site, sites=len(self.directory.sites))

    def _snapshot_owners(self) -> dict[str, tuple[str, ...]]:
        return {item: self.directory.owners(item) for item in self._items}

    def _start_migration(self, old: dict[str, tuple[str, ...]],
                         drain: str | None = None) -> MigrationController:
        new = self._snapshot_owners()
        controller = MigrationController(
            self, plan_moves(old, new), self.directory.epoch,
            drain=drain)
        self._migration = controller
        self.migrations.append(controller)
        controller.start()
        return controller

    def _migration_finished(self, controller: MigrationController) -> None:
        if self._migration is controller:
            self._migration = None

    def add_site(self, name: str) -> DvPSite:
        """Join *name* to the running topology.

        The new site starts with zero fragments of every known item
        (conservation-neutral), the directory epoch bumps, and a
        migration controller moves whatever value the new placement
        assigns to the joiner — as ordinary transfer Vm, audited like
        any other redistribution. Call from setup code or a global
        (barrier) event.
        """
        if name in self.sites:
            raise ValueError(f"site {name!r} already exists")
        self._check_reshardable()
        self.sim.adopt_site(name)
        site = self._new_site(name)
        old = self._snapshot_owners()
        self.directory.add_site(name)
        if self.sim.obs.enabled:
            self.sim.obs.emit("site.join", self.sim.now, site=name,
                              epoch=self.directory.epoch)
        self._emit_epoch("add-site", name)
        self._start_migration(old)
        return site

    def remove_site(self, name: str) -> MigrationController:
        """Decommission *name*: remove it from the directory and drain
        its fragments to the surviving owners.

        The site object stays alive and network-registered until every
        Vm it ever sent is acknowledged — removal changes *placement*,
        never destroys state. A crashed site cannot be removed (its
        stable log still holds fragment value); recover it first.
        """
        if name not in self.sites:
            raise KeyError(f"unknown site {name!r}")
        site = self.sites[name]
        if not site.alive:
            raise SiteDown(
                f"site {name!r} is down; its stable fragments must be "
                "recovered before they can be migrated away")
        if name not in self.directory.sites:
            raise ValueError(f"site {name!r} is already decommissioned")
        self._check_reshardable()
        old = self._snapshot_owners()
        # The leaver drains everything it holds, owner or not —
        # plan_moves treats it as an old owner of every item, and the
        # controller's drain rescan catches value arriving later.
        for item in old:
            if name not in old[item]:
                old[item] = old[item] + (name,)
        self.directory.remove_site(name)
        for other in self.sites.values():
            if other is not site and other.demand is not None:
                other.demand.forget_peer(name)
        if self.sim.obs.enabled:
            self.sim.obs.emit("site.decommission", self.sim.now,
                              site=name, epoch=self.directory.epoch)
        self._emit_epoch("remove-site", name)
        return self._start_migration(old, drain=name)

    def reshard(self, replicas: int | None) -> MigrationController:
        """Change the per-item owner-set size and migrate accordingly."""
        self._check_reshardable()
        old = self._snapshot_owners()
        self.directory.set_replicas(replicas)
        self._emit_epoch("reshard")
        return self._start_migration(old)

    # -- transactions -------------------------------------------------------

    def submit(self, site: str, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None = None
               ) -> Transaction | None:
        return self.sites[site].submit(spec, on_done)

    def _record_result(self, result: TxnResult) -> None:
        committed = result.outcome is Outcome.COMMITTED
        reads = result.read_values
        if committed and reads:
            # Sample, at the commit instant, how much of each read item
            # was still in transmission: the read protocol's inherent
            # blind spot (Section 3's N_M). The serializability checker
            # uses this as the permitted under-report bound. The
            # auditor's incremental books make this an O(1) lookup per
            # item instead of a full sender × receiver channel scan.
            live_vm_total = self.auditor.live_vm_total
            if len(reads) == 1:
                # One read-only sample per item, shared by every read
                # until the live total moves (DESIGN.md §7).
                (item,) = reads
                total = live_vm_total(item)
                sample = self._inflight.get(item)
                if sample is None or sample[item] is not total:
                    sample = self._inflight[item] = MappingProxyType(
                        {item: total})
                result.inflight_at_commit = sample
            else:
                result.inflight_at_commit = {
                    item: live_vm_total(item) for item in reads}
        if committed and self.views is not None and result.view_fallbacks:
            # Read-through: a view miss paid the fan-out; repair the
            # reader's cache from the authority tier so the next
            # bounded-staleness read of these items is O(1).
            self.views.fill_through(result.site, result.view_fallbacks)
        self.results.append(result)
        self.auditor.on_result(result)

    # -- running ------------------------------------------------------------

    def run_for(self, duration: float) -> None:
        self.sim.run_until(self.sim.now + duration)

    def run_until(self, time: float) -> None:
        self.sim.run_until(time)

    def drain(self, max_steps: int = 1_000_000) -> None:
        """Run until no events remain (retransmit timers stop when all
        Vm are acknowledged, so quiescent systems do drain).

        Draining is terminal, so the view refresh chain — which would
        otherwise tick forever — is stopped first.
        """
        if self.views is not None:
            self.views.stop()
        self.sim.run(max_steps=max_steps)

    # -- lifetime (DESIGN.md §7) ----------------------------------------------

    def attach(self, component: Any) -> None:
        """Have :meth:`close` call ``component.close()`` first.

        For what is built *around* a system and holds it — a serving
        front-end, rebalance daemons: they attach themselves, so
        whoever built the system closes everything with one call."""
        self._attached.append(component)

    def close(self) -> None:
        """This system's purpose is over: every owner lets go of what
        ties it to the others, so that dropping the system frees it by
        reference counting alone (DESIGN.md §7, the close rule).

        Whoever built the system calls this when they are done with
        it; nothing runs afterwards. What a run *produced* stays
        readable — ``results``, each site's log, pages and counters,
        the registry's counters and histograms, the trace bus — and no
        container a caller may have copied a reference to is emptied.
        Closing twice is a no-op."""
        for component in self._attached:
            component.close()
        self._attached = []
        self.on_recover = []
        for controller in self.migrations:
            controller.close()
        if self.views is not None:
            self.views.close()
        for site in self.sites.values():
            site.close()
        self.network.close()
        self.auditor.close()
        self.sim.close()

    # -- failure injection (Section 7's fail-stop model) ----------------------

    def crash(self, site: str) -> None:
        """Fail-stop *site*: its incarnation closes and only its stable
        storage and :data:`DvPSite.SURVIVES` outlive it. The closed
        object stays in :attr:`sites` while the site is down — dead to
        submissions and deliveries, its last channel state readable
        by the auditor — until :meth:`recover` replaces it. In-flight
        transactions silently disappear: their clients learn nothing,
        which is what remote requesters' timeouts are for."""
        # call_in_site: whatever a crash and a recovery touch belongs
        # to the site's shard, whether this is called from setup code
        # or from an event already running there.
        self.sim.call_in_site(site, partial(self._crash, self.sites[site]))

    def _crash(self, site: DvPSite) -> None:
        if not site.alive:
            return
        site.crash_count += 1
        site.txns_wiped += len(site.active)
        site.crashed_at = self.sim.now
        if self.sim.obs.enabled:
            self.sim.obs.emit("site.crash", self.sim.now, site=site.name,
                              txns_wiped=len(site.active))
        if test_leak() == "crash":
            site.fragments.tear()  # planted bug (docs/CHAOS.md)
        site.close()
        self.network.note_down(site.name)

    def recover(self, site: str) -> recovery.RecoveryReport:
        """Independent recovery (Section 7): build *site*'s next
        incarnation over its stable storage, run ``recover_site`` on it
        (its local log only), and re-point whoever holds the site.
        Only a crashed site recovers: a live one raises
        :class:`SiteUp` and nothing changes."""
        if self.sites[site].alive:
            raise SiteUp(f"site {site!r} is up; only a crashed site "
                         "recovers")
        return self.sim.call_in_site(site, partial(self._recover, site))

    def _recover(self, name: str) -> recovery.RecoveryReport:
        site = self._new_site(name, self.sites[name])
        # Looked up on the module, so whoever wraps it sees each call.
        report = recovery.recover_site(site)
        self.network.replace_handler(name, site.deliver)
        for repoint in self.on_recover:
            repoint(site)
        self.network.note_up(name)
        site.recovery_reports.append(report)
        site.vm.start()
        return report

    # -- observation ------------------------------------------------------------

    def fragment_values(self, item: str) -> dict[str, Any]:
        return {name: site.fragments.value(item)
                for name, site in self.sites.items()
                if site.fragments.knows(item)}

    def audit(self) -> list[AuditReport]:
        return self.auditor.check_all()

    def total_value(self, items: list[str] | None = None) -> Any:
        """Π(fragments) + Π(live Vm) of *items* (default: all), summed
        — off the auditor's books, so O(1) per item."""
        return sum(
            self._items[item].combine(self.auditor.fragments_total(item),
                                      self.auditor.live_vm_total(item))
            for item in (self._items if items is None else items))

    def blocked(self) -> list[tuple[str, str, float]]:
        """Every undecided transaction with its age: each decides
        within its timeout, so none outlives quiescence."""
        return [(name, txn_id, self.sim.now - txn.submitted_at)
                for name, site in self.sites.items()
                for txn_id, txn in site.active.items()]

    def committed(self) -> list[TxnResult]:
        return [result for result in self.results if result.committed]
