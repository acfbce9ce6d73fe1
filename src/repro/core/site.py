"""A DvP site: fragment store + stable log + Vm engine + lock table +
concurrency control + transaction executor + remote-request handler.

Everything a site ever does falls into the paper's two conceptual
transaction classes: *real* transactions (submitted by clients, may
change item values) and *Rds* transactions (honoring remote requests,
accepting virtual messages — change only the distribution). The Rds
work is performed inline by the handlers below, under the same locks
and logging discipline as real transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.cc import ConcurrencyControl
from repro.core.fragments import FragmentStore
from repro.core.locks import LockTable
from repro.core.messages import (
    READ_MODE,
    DataRequest,
    TsAdvisory,
    VmAck,
    VmTransfer,
)
from repro.core.policies import RedistributionPolicy
from repro.core.redistribution import DemandTracker
from repro.core.timestamps import LamportClock
from repro.core.transactions import (
    Outcome,
    Transaction,
    TransactionSpec,
    TxnResult,
)
from repro.core.vm import VmManager
from repro.net.message import Envelope
from repro.net.network import Network
from repro.reads.messages import ViewRefresh
from repro.obs.events import LogForce, SiteCrash
from repro.sim.kernel import Simulator
from repro.storage.checkpoint import CheckpointPolicy
from repro.storage.log import StableLog
from repro.storage.pages import PageStore
from repro.storage.records import (
    CheckpointRecord,
    SetFragment,
    VmAcceptRecord,
    VmCreateRecord,
    VmEntry,
)


@dataclass
class SiteConfig:
    """Per-site protocol knobs."""

    txn_timeout: float = 30.0
    retransmit_period: float = 5.0
    checkpoint_interval: int = 0  # log records between checkpoints; 0 = off
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
    #: Suppress explicit VmAcks already carried by a same-instant data
    #: message's piggyback field (see VmManager). Off by default; the
    #: system façade turns it on together with transport bundling.
    coalesce_acks: bool = False


class SiteDown(RuntimeError):
    """Submission attempted at a crashed site."""


class DvPSite:
    """One failure-prone site in a DvP system."""

    def __init__(self, name: str, rank: int, sim: Simulator,
                 network: Network, cc: ConcurrencyControl,
                 policy: RedistributionPolicy,
                 config: SiteConfig | None = None,
                 on_result: Callable[[TxnResult], None] | None = None) -> None:
        self.name = name
        self.rank = rank
        self.sim = sim
        self.network = network
        self.cc = cc
        self.policy = policy
        self.config = config or SiteConfig()
        self.on_result = on_result

        # Observability handles (docs/OBSERVABILITY.md): the shared
        # event bus plus this site's decision-latency histograms.
        self._obs = sim.obs
        self.h_decision = {
            outcome: sim.metrics.histogram(
                "txn.decision", site=name, outcome=outcome.value)
            for outcome in (Outcome.COMMITTED, Outcome.ABORTED)
        }

        self.log = StableLog(name)
        self.pages = PageStore(name)
        self.fragments = FragmentStore(name, self.pages)
        #: Accounting observer (the system's conservation auditor). Set
        #: by DvPSystem after construction; the notify methods below
        #: look it up late so VmManagers rebuilt by recovery stay wired.
        self.observer = None
        #: Placement router (repro.core.partition.Router). Set by
        #: DvPSystem after construction; None = static topology (every
        #: peer owns every item — the seed behaviour).
        self.router = None
        #: True once the directory dropped this site (System.remove_site).
        #: The site stays alive and registered until its value drains.
        self.decommissioned = False
        #: Bounded-staleness view cache (repro.reads; docs/READS.md).
        #: Wired by the system's ViewService when views are enabled;
        #: None = the classic fan-out-only read path.
        self.views = None
        self.locks = LockTable()
        self.clock = LamportClock(rank)
        #: Decayed demand/wealth ledger feeding the rebalance planner
        #: (repro.core.redistribution). Volatile, like the lock table.
        self.demand = DemandTracker(sim)
        self.vm = self._new_vm_manager()
        self.checkpoint_policy = CheckpointPolicy(
            self.config.checkpoint_interval)

        self.alive = True
        self.active: dict[str, Transaction] = {}
        #: Ids of the active transactions a delivery can change (see
        #: _wake): those awaiting read responders or holding view
        #: certificates. Each adds itself; finish and crash remove.
        self.wakeable: set[str] = set()
        self._peers: tuple[Any, tuple[str, ...]] = (None, ())  # key, peers
        self.crash_count = 0
        #: Transactions whose volatile state a crash destroyed — their
        #: clients never hear back. The chaos progress oracle uses this
        #: to prove every undecided submission is attributable to a
        #: crash (and not to a transaction blocking on a dead peer).
        self.txns_wiped = 0
        #: [start, end] virtual-time windows this site spent dead (end
        #: is None while still down). Fault plans and oracles read it.
        self.downtime: list[list[float | None]] = []
        self.recovery_reports: list["RecoveryReport"] = []
        self.requests_honored = 0
        self.requests_ignored = 0
        self._txn_counter = 0
        self._rds_counter = 0
        self._records_since_checkpoint = 0
        self._checkpoint_scheduled = False

        network.register(name, self.deliver)

    def _new_vm_manager(self) -> VmManager:
        return VmManager(
            self.name, self.sim,
            send=lambda dst, payload: self.network.send(self.name, dst,
                                                        payload),
            accept=self._accept_vm,
            clock_ts=self.clock.next,
            retransmit_period=self.config.retransmit_period,
            on_created=self._notify_vm_created,
            on_accepted=self._notify_vm_accepted,
            coalesce_acks=self.config.coalesce_acks)

    def _notify_vm_created(self, entry) -> None:
        if self.observer is not None:
            self.observer.on_vm_created(self.name, entry)

    def _notify_vm_accepted(self, src: str, entry) -> None:
        # A peer that sends value demonstrably has it — wealth evidence
        # for the pull policy's "richest reachable peer" estimate.
        self.demand.note_supply(src, entry.item, entry.amount)
        if self.observer is not None:
            self.observer.on_vm_accepted(self.name, src, entry)

    # -- topology ---------------------------------------------------------

    def peers(self) -> tuple[str, ...]:
        """Every other site (all sites hold fragments of all items);
        cached until network membership or the directory epoch moves."""
        key = (self.network.membership, self.current_epoch())
        if self._peers[0] != key:
            self._peers = (key, tuple(site for site in self.network.sites
                                      if site != self.name))
        return self._peers[1]

    def current_epoch(self) -> int:
        """The directory epoch placement is currently resolved against."""
        if self.router is None:
            return 0
        return self.router.directory.epoch

    def peers_for(self, item: str, epoch_hint: int | None = None
                  ) -> tuple[str, ...]:
        """Peers worth asking for *item*'s value: its directory owners.

        Falls back to :meth:`peers` with no router (static topology)
        or when this site is the item's only owner — a transaction
        short of value may still find it at a non-owner holding strays
        (reads always fan to everyone, so nothing is unreachable).
        """
        if self.router is None:
            return self.peers()
        owners, _epoch = self.router.route(item, epoch_hint)
        targets = tuple(site for site in owners if site != self.name)
        return targets or self.peers()

    # -- client API -------------------------------------------------------

    def next_txn_id(self) -> str:
        self._txn_counter += 1
        return f"{self.name}#{self._txn_counter}"

    def submit(self, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None = None
               ) -> Transaction:
        """Initiate a transaction at this site (Section 5's sequence)."""
        if not self.alive:
            raise SiteDown(f"site {self.name} is down")
        txn = Transaction(self, spec, on_done)
        self.active[txn.id] = txn
        txn.start()
        return txn

    def transaction_finished(self, txn: Transaction) -> None:
        """Step 7 aftermath: drop it from the active set, poke waiters."""
        self.active.pop(txn.id, None)
        self.wakeable.discard(txn.id)
        self.after_lock_release()

    def after_lock_release(self) -> None:
        """Locks freed: pending Vm may now be acceptable."""
        if self.alive:
            self.vm.poke()

    # -- logging ----------------------------------------------------------

    def log_append(self, record: Any) -> int:
        """Force a record; take a checkpoint when the policy says so.

        The checkpoint itself is deferred to a fresh event: callers
        apply a record's actions immediately after appending it, and a
        checkpoint taken in between would let recovery skip a
        committed-but-unapplied action (the checkpoint sits after the
        commit record, so the redo scan would never revisit it).
        """
        lsn = self.log.append(record)
        if self._obs.enabled:
            self._obs.emit(LogForce(t=self.sim.now, site=self.name,
                                    record=type(record).__name__, lsn=lsn))
        self._records_since_checkpoint += 1
        if self.checkpoint_policy.due(self._records_since_checkpoint) \
                and not self._checkpoint_scheduled:
            self._checkpoint_scheduled = True
            self.sim.after(0.0, self._deferred_checkpoint,
                           label=f"checkpoint:{self.name}")
        return lsn

    def _deferred_checkpoint(self) -> None:
        self._checkpoint_scheduled = False
        if self.alive:
            self.write_checkpoint()

    def write_checkpoint(self) -> int:
        """Append a fuzzy checkpoint of fragments and channel state."""
        if __debug__:
            # Periodic drift check: the VmManager's O(1) live-Vm
            # counters must agree with the full channel scan the
            # checkpoint is about to take anyway.
            self.vm.check_accounting()
        snapshot = sorted(self.fragments.snapshot().items(),
                          key=lambda kv: kv[0])
        record = CheckpointRecord(
            fragments=tuple(snapshot),
            fragment_timestamps=tuple(
                (item, self.fragments.timestamp(item))
                for item, _value in snapshot),
            outgoing_unacked=tuple(
                entry for channel in self.vm.outgoing.values()
                for entry in channel.unacked()),
            incoming_cumulative=tuple(
                (src, channel.cumulative_accepted)
                for src, channel in sorted(self.vm.incoming.items())),
            next_channel_seq=tuple(
                (dst, channel.next_seq)
                for dst, channel in sorted(self.vm.outgoing.items())),
            extra=(("clock", self.clock.counter),))
        lsn = self.log.append(record)
        self._records_since_checkpoint = 0
        return lsn

    def apply_actions(self, actions: Iterable[SetFragment],
                      lsn: int) -> None:
        """Write logged actions through to the stable pages."""
        for action in actions:
            self.fragments.write(action.item, action.value, lsn)
            self.fragments.stamp_if_newer(action.item, action.ts)

    def create_vm(self, owner: str, item: str, remainder: Any, ts: int,
                  entries: tuple[VmEntry, ...]) -> None:
        """Force ``[database-actions, message-sequence]`` as ONE record
        (*item*'s fragment becomes *remainder*, *entries* come into
        existence), apply it, transmit. The caller holds *item*'s lock."""
        actions = (SetFragment(item, remainder, ts=ts),)
        lsn = self.log_append(VmCreateRecord(
            txn_id=owner, actions=actions, messages=entries))
        self.apply_actions(actions, lsn)
        self.vm.register_created(entries)

    # -- message plumbing ---------------------------------------------------

    def deliver(self, envelope: Envelope) -> None:
        """Network delivery handler; a dead site hears nothing."""
        if not self.alive:
            return
        payload = envelope.payload
        if isinstance(payload, DataRequest):
            self.clock.observe(payload.ts)
            self.handle_request(payload)
        elif isinstance(payload, VmTransfer):
            self.clock.observe(payload.ts)
            self.vm.on_transfer(payload)
            if self.wakeable:
                self._wake()
        elif isinstance(payload, VmAck):
            self.clock.observe(payload.ts)
            self.vm.on_ack(payload)
            if self.wakeable:
                self._wake()
        elif isinstance(payload, TsAdvisory):
            self.clock.observe(payload.ts)
        elif isinstance(payload, ViewRefresh):
            # No Lamport coupling: refreshes carry barrier snapshots,
            # not protocol state — a viewless site just drops them.
            if self.views is not None:
                self.views.absorb(payload)

    def send_request(self, dst: str, request: DataRequest) -> None:
        """Fire-and-forget: requests carry no delivery guarantee."""
        self.network.send(self.name, dst, request)

    def _wake(self) -> None:
        """Recheck the transactions this delivery can change: a read
        waits on acks clearing this site's own outstanding Vm, a view
        certificate ages with the clock. Every other transaction turns
        only on value it absorbs — and on_vm_absorbed rechecks that."""
        wakeable = self.wakeable
        for txn in [txn for txn in self.active.values()
                    if txn.id in wakeable]:
            txn.recheck()

    # -- remote request handling (Rds transactions) --------------------------

    def handle_request(self, request: DataRequest) -> None:
        """Decide whether to honor a remote request (Section 5).

        Any reason suffices to ignore a request — the requester relies
        only on its timeout. Honoring runs as an Rds transaction under
        the site's own locks and logging.
        """
        if not self.fragments.knows(request.item):
            self.requests_ignored += 1
            return
        if request.mode != READ_MODE and request.need is not None:
            # Whatever we decide below, the request itself is a demand
            # signal: *origin* wants value of this item. The rebalance
            # planner pushes toward recently-demanding peers.
            self.demand.note_remote_demand(request.origin, request.item,
                                           request.need)
        self._rds_counter += 1
        owner = f"rds:{self.name}:{self._rds_counter}"
        if self.cc.waits_for_locks:
            granted = self.locks.acquire_all_or_wait(
                owner, {request.item},
                lambda: self._honor_locked(owner, request))
            if granted:
                self._honor_locked(owner, request)
            return
        if not self.locks.is_free(request.item):
            self.requests_ignored += 1
            return
        if not self.cc.may_honor(self, request.ts, request.item):
            self.requests_ignored += 1
            self.network.send(self.name, request.origin, TsAdvisory(
                self.fragments.timestamp(request.item)))
            return
        if not self.locks.try_acquire_all(owner, {request.item}):
            self.requests_ignored += 1
            return
        self._honor_locked(owner, request)

    def _honor_locked(self, owner: str, request: DataRequest) -> None:
        """Create and dispatch the response Vm while holding the lock.

        Transfer grants release the lock immediately. Read drains keep
        the fragment locked for the configured freeze window so the
        reading transaction observes a stable "all other fragments are
        null" state (see SiteConfig.read_freeze).
        """
        freeze = False
        try:
            item = request.item
            domain = self.fragments.domain(item)
            available = self.fragments.value(item)
            if request.mode == READ_MODE:
                # A site still owing value elsewhere cannot claim its
                # fragment is complete — refuse (Section 5's rule).
                if self.vm.has_outstanding(item):
                    self.requests_ignored += 1
                    return
                granted, remainder = available, domain.zero()
                kind = "read-drain"
                freeze = True
            else:
                granted = self.policy.grant(domain, available, request.need)
                if domain.is_zero(granted):
                    self.requests_ignored += 1
                    return
                remainder = domain.subtract(available, granted)
                kind = "transfer"
            stamp_ts = self.cc.stamp_for_rds(self, request.ts, item)
            entry = self.vm.allocate_entry(request.origin, item, granted,
                                           kind, request.txn_id)
            self.create_vm(owner, item, remainder, stamp_ts, (entry,))
            self.requests_honored += 1
        finally:
            if freeze:
                window = (self.config.read_freeze
                          if self.config.read_freeze is not None
                          else self.config.txn_timeout)
                self.sim.after(window,
                               lambda: self._release_freeze(owner),
                               label=f"read-freeze:{owner}")
            else:
                self.locks.release_all(owner)
                self.after_lock_release()

    def _release_freeze(self, owner: str) -> None:
        if not self.alive:
            return
        self.locks.release_all(owner)
        self.after_lock_release()

    # -- Vm acceptance (Rds transactions) ------------------------------------

    def _accept_vm(self, entry, src: str) -> bool:
        """Complete a Vm's lifespan: log [database-actions], absorb.

        Returns False (leave pending) only when the fragment is locked
        by an owner that is not an active transaction of this site —
        i.e. a transient Rds lock; active transactions always absorb
        into their own locked fragments (Section 5's refinement).
        """
        item = entry.item
        if not self.fragments.knows(item):
            return False
        new_value = self.fragments.domain(item).combine(
            self.fragments.value(item), entry.amount)
        holder = self.locks.holder(item)
        txn = self.active.get(holder)
        if holder is not None and txn is None:
            return False
        ts = txn.ts if txn is not None else self.clock.next()
        actions = (SetFragment(item, new_value, ts=ts),)
        lsn = self.log_append(VmAcceptRecord(
            src=src, channel_seq=entry.channel_seq, actions=actions,
            txn_id=entry.txn_id))
        self.apply_actions(actions, lsn)
        if txn is not None:
            txn.on_vm_absorbed(entry, src)
        return True

    # -- failure injection -----------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: all volatile state vanishes; stable storage stays.

        In-flight transactions silently disappear (their clients learn
        nothing — exactly the scenario remote requesters' timeouts are
        for). The stale pre-crash VmManager object is retained until
        recovery so the god's-eye auditor can still read channel state.
        """
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        if self._obs.enabled:
            self._obs.emit(SiteCrash(t=self.sim.now, site=self.name,
                                     txns_wiped=len(self.active)))
        self.txns_wiped += len(self.active)
        self.downtime.append([self.sim.now, None])
        self.vm.stop()
        for txn in self.active.values():
            txn.close()  # not cancel: the wiped graph must die
        self.active.clear()
        self.wakeable.clear()
        self.locks.clear()
        self.fragments.reset_timestamps()
        self.clock.reset()
        self.demand.reset()
        if self.views is not None:
            # The cache is volatile: recover cold, warm from refreshes.
            self.views.clear()
        self.network.note_down(self.name)

    def recover(self) -> "RecoveryReport":
        """Independent recovery (Section 7): local log only."""
        from repro.core.recovery import recover_site
        report = recover_site(self)
        self.alive = True
        self.network.note_up(self.name)
        if self.downtime and self.downtime[-1][1] is None:
            self.downtime[-1][1] = self.sim.now
        self.recovery_reports.append(report)
        self.vm.start()
        return report

    def close(self) -> None:
        """The system is closing (``DvPSystem.close``): let go of what
        points back at this site or out at the system. The Vm manager
        and the undecided transactions' timers hold this site's bound
        methods, lock waiters hold its closures, and the observer,
        ``on_result``, router and view cache lead to the system that
        holds the site. Stable storage, channel state and every
        counter stay readable."""
        self.vm.close()
        for txn in self.active.values():
            txn.close()
        self.active = {}
        self.wakeable = set()
        self.locks.clear()
        self.observer = self.fragments.observer = None
        self.on_result = self.router = self.views = None

    def skew_fire_timers(self) -> None:
        """Model a clock-skew jump: every armed local timer fires NOW.

        The protocol's safety cannot depend on how long a timeout
        actually waits — timeouts are purely local decisions. Firing
        the Vm retransmission tick early just re-sends live Vm
        (receivers deduplicate); firing a transaction's timeout early
        is a legal pessimistic abort (or a legal early retry round).
        Chaos plans use this to explore skewed-clock schedules.
        """
        if not self.alive:
            return
        self.vm.tick_now()
        for txn in list(self.active.values()):
            txn.skew_timeout()
