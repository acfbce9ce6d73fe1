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

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core.cc import ConcurrencyControl
from repro.core.fragments import FragmentStore, test_leak
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
    EMPTY,
    Outcome,
    Transaction,
    TransactionSpec,
    TxnResult,
)
from repro.core.vm import VmManager
from repro.net.message import Envelope
from repro.net.network import Network
from repro.reads.messages import ViewRefresh
from repro.sim.kernel import Simulator
from repro.storage.log import StableLog
from repro.storage.pages import PageStore
from repro.storage.records import (
    CheckpointRecord,
    SetFragment,
    VmAcceptRecord,
    VmCreateRecord,
    VmEntry,
)

if TYPE_CHECKING:
    from repro.core.invariants import ConservationAuditor
    from repro.core.partition import Directory
    from repro.core.recovery import RecoveryReport
    from repro.core.system import SystemConfig


class SiteDown(RuntimeError):
    """Submission attempted at a crashed site."""


class SiteUp(RuntimeError):
    """Recovery asked of a site that has not crashed."""


class DvPSite:
    """One incarnation of a failure-prone site in a DvP system.

    ``DvPSystem._new_site`` builds and wires every one: a new site with
    fresh stable storage, or, at a recovery, the next incarnation of a
    crashed one over its log and pages. A crash closes the incarnation
    (:meth:`close`); of its state only the stable storage, the rank and
    the attributes :data:`SURVIVES` names outlive it."""

    #: What the system carries from a crashed incarnation to the next
    #: beside its log, pages and rank: its counts of the site — crashes,
    #: the transactions they wiped, the last crash instant, recovery
    #: reports, request verdicts — and the id counters, so that no
    #: transaction or Rds id repeats. Everything else is built fresh.
    SURVIVES = ("crash_count", "txns_wiped", "crashed_at",
                "recovery_reports", "requests_honored", "requests_ignored",
                "_txn_counter", "_rds_counter")

    def __init__(self, name: str, rank: int, log: StableLog,
                 pages: PageStore, sim: Simulator, network: Network,
                 cc: ConcurrencyControl, policy: RedistributionPolicy,
                 config: SystemConfig, directory: Directory,
                 on_result: Callable[[TxnResult], None],
                 observer: ConservationAuditor) -> None:
        self.name = name
        self.rank = rank
        self.sim = sim
        self.network = network
        self.cc = cc
        self.policy = policy
        #: The system's config, shared by all its sites.
        self.config = config
        #: The system's partition directory: placement and its epoch.
        self.directory = directory
        self.on_result = on_result

        # Observability handles (docs/OBSERVABILITY.md): the shared
        # event bus plus this site's decision-latency histograms.
        self._obs = sim.obs
        self.h_decision = {
            outcome: sim.metrics.histogram(
                "txn.decision", site=name, outcome=outcome.value)
            for outcome in (Outcome.COMMITTED, Outcome.ABORTED)
        }

        self.log = log
        self.pages = pages
        #: Its pages and Vm manager tell *observer*, the system's
        #: conservation auditor, of every value change.
        self.fragments = FragmentStore(name, pages, observer)
        #: Bounded-staleness view cache (repro.reads; docs/READS.md).
        #: Wired by the system when views are enabled; None = the
        #: classic fan-out-only read path.
        self.views = None
        self.locks = LockTable()
        self.clock = LamportClock(rank)
        #: Decayed demand/wealth ledger feeding the rebalance planner
        #: (repro.core.redistribution). Volatile, like the lock table.
        #: None until a RebalanceDaemon, its one reader, builds it: a
        #: site without a planner feeds no ledger.
        self.demand: DemandTracker | None = None
        self.vm = VmManager(
            name, sim,
            send=partial(network.send, name),
            accept=self._accept_vm,
            clock_ts=self.clock.next,
            retransmit_period=config.retransmit_period,
            on_created=partial(observer.on_vm_created, name),
            on_accepted=partial(observer.on_vm_accepted, name),
            # Bundling coalesces the explicit acks a same-instant
            # piggyback already carries.
            coalesce_acks=config.bundling is not None,
            on_absorbed=self._vm_absorbed)

        self.alive = True
        self.active: dict[str, Transaction] = {}
        #: Ids of the active transactions a delivery can change (see
        #: _wake): those awaiting read responders or holding view
        #: certificates. Each adds itself; finish and close remove.
        self.wakeable: set[str] = set()
        self._peers: tuple[Any, tuple[str, ...]] = (None, ())  # key, peers
        self._records_since_checkpoint = 0
        self._checkpoint_scheduled = False
        # SURVIVES, as a new site starts them.
        self.crash_count = 0
        #: Transactions whose volatile state a crash destroyed — their
        #: clients never hear back. The chaos progress oracle uses this
        #: to prove every undecided submission is attributable to a
        #: crash (and not to a transaction blocking on a dead peer).
        self.txns_wiped = 0
        #: Virtual time of the last crash (None: never crashed); the
        #: recovery report's ``crashed_at``.
        self.crashed_at: float | None = None
        self.recovery_reports: list[RecoveryReport] = []
        self.requests_honored = 0
        self.requests_ignored = 0
        self._txn_counter = 0
        self._rds_counter = 0

    # -- topology ---------------------------------------------------------

    def peers(self) -> tuple[str, ...]:
        """Every other site (all sites hold fragments of all items);
        cached until network membership or the directory epoch moves."""
        key = (self.network.membership, self.directory.epoch)
        if self._peers[0] != key:
            self._peers = (key, tuple(site for site in self.network.sites
                                      if site != self.name))
        return self._peers[1]

    def peers_for(self, item: str) -> tuple[str, ...]:
        """Peers worth asking for *item*'s value: its directory owners.

        Falls back to :meth:`peers` when this site is the item's only
        owner — a transaction short of value may still find it at a
        non-owner holding strays (reads always fan to everyone, so
        nothing is unreachable).
        """
        targets = tuple(site for site in self.directory.owners(item)
                        if site != self.name)
        return targets or self.peers()

    # -- client API -------------------------------------------------------

    def next_txn_id(self) -> str:
        self._txn_counter += 1
        return f"{self.name}#{self._txn_counter}"

    def submit(self, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None = None
               ) -> Transaction | None:
        """Initiate a transaction at this site (Section 5's sequence).

        A spec's view items meet the view cache here, once each. A pure
        view read without work whose every item certifies is decided
        before this returns and builds no Transaction: it returns None
        (docs/READS.md, the certificate-first path). Anything else runs
        as the returned Transaction."""
        if not self.alive:
            raise SiteDown(f"site {self.name} is down")
        txn_id = self.next_txn_id()
        ts = self.clock.next()
        if self._obs.enabled:
            self._obs.emit("txn.submit", self.sim.now, site=self.name,
                           txn=txn_id, label=spec.label)
        certs, missed = EMPTY, ()
        if spec._view_bounds:
            certs, missed = self._certify(spec, txn_id)
            # Work holds the locks by definition (step 4): only a read
            # without it may skip acquisition.
            if not missed and not spec.work and spec.pure_view:
                self._commit_certified(spec, on_done, txn_id, certs)
                return None
        txn = Transaction(self, spec, on_done, txn_id, ts, certs, missed)
        self.active[txn_id] = txn
        txn.start()
        return txn

    def _certify(self, spec: TransactionSpec, txn_id: str
                 ) -> tuple[dict[str, Any], list[str]]:
        """Ask the view cache once for each of a spec's view items, in
        sorted order: the certificates it serves and the items it
        misses (every item, with views off)."""
        views = self.views
        certs: dict[str, Any] = {}
        missed: list[str] = []
        for item, bound in sorted(spec._view_bounds.items()):
            cert = (views.serve(item, bound, txn_id) if views is not None
                    else None)
            if cert is None:
                missed.append(item)
            else:
                certs[item] = cert
        return certs, missed

    def _commit_certified(self, spec: TransactionSpec,
                          on_done: Callable[[TxnResult], None] | None,
                          txn_id: str, certs: dict[str, Any]) -> None:
        """Commit a read whose every item certified: no locks, no
        timer, no messages, nothing to apply or log. Its certificate
        rows are those of the entries that just certified it, shared by
        every read an entry certifies under the same bound, and so is a
        single-item read's value mapping (DESIGN.md §7)."""
        now = self.sim.now
        entries = self.views.entries
        if len(certs) == 1:
            ((item, cert),) = certs.items()
            entry = entries[item]
            read_values = entry.reads
            rows = entry.rows(cert.bound)
        else:
            read_values = {item: certs[item].value
                           for item in spec._view_bounds}
            rows = tuple([entries[item].rows(cert.bound)[0]
                          for item, cert in certs.items()])
        self.decided(TxnResult(
            txn_id, spec.label, Outcome.COMMITTED, "ok", self.name, now,
            now, read_values, (), 0, EMPTY, rows, ()), on_done)

    def decided(self, result: TxnResult,
                on_done: Callable[[TxnResult], None] | None) -> None:
        """Step 7 aftermath of every decision made here, with or without
        a Transaction: observe and report it, release its locks, drop
        it from the active set, poke the pending Vm, then tell the
        submitter."""
        txn_id, outcome, now = (result.txn_id, result.outcome,
                                result.finished_at)
        self.h_decision[outcome].observe(now - result.submitted_at)
        if self._obs.enabled:
            if outcome is Outcome.COMMITTED:
                self._obs.emit("txn.commit", now, site=self.name,
                               txn=txn_id)
            else:
                self._obs.emit("txn.abort", now, site=self.name,
                               txn=txn_id, reason=result.reason)
        if self.on_result is not None:
            self.on_result(result)
        # Only now let the locks go: a release can grant a Conc2 waiter
        # that commits inside it, and its result must not reach the
        # books ahead of this one (DESIGN.md §6, finding 9).
        self.locks.release_all(txn_id)
        self.active.pop(txn_id, None)
        self.wakeable.discard(txn_id)
        self.after_lock_release()
        if on_done is not None:
            on_done(result)

    def after_lock_release(self) -> None:
        """Locks freed: pending Vm may now be acceptable."""
        if self.alive:
            self.vm.poke()

    # -- logging ----------------------------------------------------------

    def log_append(self, record: Any) -> int:
        """Force a record; take a checkpoint every
        ``config.checkpoint_interval`` appends (0 = never). Section 7:
        checkpointing cuts the redo scan "in the usual manner" —
        recovery replays only the suffix after the last checkpoint.

        The checkpoint itself is deferred to a fresh event: callers
        apply a record's actions immediately after appending it, and a
        checkpoint taken in between would let recovery skip a
        committed-but-unapplied action (the checkpoint sits after the
        commit record, so the redo scan would never revisit it).
        """
        lsn = self.log.append(record)
        if self._obs.enabled:
            self._obs.emit("site.log-force", self.sim.now, site=self.name,
                           record=type(record).__name__, lsn=lsn)
        self._records_since_checkpoint += 1
        interval = self.config.checkpoint_interval
        if interval and self._records_since_checkpoint >= interval \
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
        unacked, accepted, next_seqs = self.vm.snapshot()
        record = CheckpointRecord(
            fragments=tuple(snapshot),
            fragment_timestamps=tuple(
                (item, self.fragments.timestamp(item))
                for item, _value in snapshot),
            outgoing_unacked=unacked, incoming_cumulative=accepted,
            next_channel_seq=next_seqs,
            extra=(("clock", self.clock.counter),))
        lsn = self.log.append(record)
        self._records_since_checkpoint = 0
        return lsn

    def apply_actions(self, actions: Iterable[SetFragment],
                      lsn: int) -> None:
        """Write logged actions through to the stable pages."""
        for action in actions:
            self.fragments.write(action.item, action.value, lsn, action.ts)

    def create_vm(self, owner: str, actions: tuple[SetFragment, ...],
                  entries: tuple[VmEntry, ...]) -> None:
        """Force ``[database-actions, message-sequence]`` as ONE record
        (the *actions*' fragments take their new values, *entries* come
        into existence), apply it, transmit. The caller holds the
        actions' locks."""
        lsn = self.log_append(VmCreateRecord(
            txn_id=owner, actions=actions, messages=entries))
        self.apply_actions(actions, lsn)
        self.vm.register_created(entries)

    def ship(self, owner: str, item: str,
             shares: Sequence[tuple[str, Any]],
             announce: str | None = None, **detail: Any
             ) -> tuple[VmEntry, ...] | None:
        """Move *shares* of *item* — ``(dst, amount)`` pairs — out of
        this site as one Rds transaction: lock the fragment, stamp,
        force one create record that subtracts them, release.

        Returns the created entries, or None (nothing done) when the
        site is down or the fragment is locked. *announce*, a trace event kind, is emitted
        per share with its ``site``, ``dst``, ``item``, ``amount`` and
        the *detail* fields once the record is forced and before the
        release lets anything else run. Migration, rebalancing and
        deconsolidation all ship here.
        """
        if not self.alive or not self.locks.try_acquire_all(owner, (item,)):
            return None
        try:
            ts = self.clock.next()
            domain = self.fragments.domain(item)
            remainder = domain.subtract(
                self.fragments.value(item),
                domain.pi(amount for _dst, amount in shares))
            entries = tuple(
                self.vm.allocate_entry(dst, item, amount, "transfer", owner)
                for dst, amount in shares)
            self.create_vm(owner, (SetFragment(item, remainder, ts),),
                           entries)
            if announce is not None and self._obs.enabled:
                for dst, amount in shares:
                    self._obs.emit(announce, self.sim.now, site=self.name,
                                   dst=dst, item=item, amount=amount,
                                   **detail)
        finally:
            self.locks.release_all(owner)
            self.after_lock_release()
        return entries

    # -- message plumbing ---------------------------------------------------

    def deliver(self, envelope: Envelope) -> None:
        """Network delivery handler; a dead site hears nothing."""
        if not self.alive:
            return
        payload = envelope.payload
        kind = type(payload)
        if kind is VmTransfer:
            self.clock.observe(payload.ts)
            self.vm.on_transfer(payload)
            if self.wakeable:
                self._wake()
        elif kind is DataRequest:
            self.clock.observe(payload.ts)
            self.handle_request(payload)
        elif kind is VmAck:
            self.clock.observe(payload.ts)
            self.vm.on_ack(payload)
            if self.wakeable:
                self._wake()
        elif kind is TsAdvisory:
            self.clock.observe(payload.ts)
        elif kind is ViewRefresh:
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
        """Decide which of a remote request's items to honor (Section 5).

        Each named item is judged on its own: known here, lock free,
        admitted by the CC scheme, a non-zero grant. Any reason suffices
        to ignore an item — the requester relies only on its timeout.
        The honorable items are answered together as ONE Rds
        transaction under the site's own locks and logging: one create
        record, one real message. A timestamp refusal sends at most one
        TsAdvisory, carrying the largest refused stamp.
        """
        fragments = self.fragments
        wants: dict[str, Any] = {}
        for item, need in request.wants:
            # An item named twice is granted once: both would read the
            # same fragment, and granting it twice would create value.
            if item in wants or not fragments.knows(item):
                self.requests_ignored += 1
                continue
            wants[item] = need
        if not wants:
            return
        if request.mode != READ_MODE and self.demand is not None:
            # Whatever we decide below, the request itself is a demand
            # signal: *origin* wants value of these items. The rebalance
            # planner pushes toward recently-demanding peers.
            for item, need in wants.items():
                if need is not None:
                    self.demand.note_remote_demand(request.origin, item,
                                                   need)
        self._rds_counter += 1
        owner = f"rds:{self.name}:{self._rds_counter}"
        if self.cc.waits_for_locks:
            granted = self.locks.acquire_all_or_wait(
                owner, wants, lambda: self._honor_locked(owner, request,
                                                         wants))
            if granted:
                self._honor_locked(owner, request, wants)
            return
        locks, cc = self.locks, self.cc
        honorable: dict[str, Any] = {}
        refused_ts = None
        for item, need in wants.items():
            if not locks.is_free(item):
                self.requests_ignored += 1
            elif not cc.may_honor(self, request.ts, item):
                self.requests_ignored += 1
                stamp = fragments.timestamp(item)
                if refused_ts is None or stamp > refused_ts:
                    refused_ts = stamp
            else:
                honorable[item] = need
        if refused_ts is not None:
            self.network.send(self.name, request.origin,
                              TsAdvisory(refused_ts))
        if honorable:
            # Every item was just found free: nothing can fail this.
            locks.try_acquire_all(owner, honorable)
            self._honor_locked(owner, request, honorable)

    def _honor_locked(self, owner: str, request: DataRequest,
                      wants: dict[str, Any]) -> None:
        """Create and dispatch the response Vm while holding the locks.

        Transfer grants release the locks immediately. Read drains keep
        the fragments locked for the configured freeze window so the
        reading transaction observes a stable "all other fragments are
        null" state (see SystemConfig.read_freeze).
        """
        freeze = False
        try:
            read = request.mode == READ_MODE
            kind = "read-drain" if read else "transfer"
            fragments, vm = self.fragments, self.vm
            actions: list[SetFragment] = []
            entries: list[VmEntry] = []
            named = wants.items()
            if test_leak() == "duplicate-grant":
                # Planted bug (docs/CHAOS.md): every naming is granted.
                named = [want for want in request.wants if want[0] in wants]
            for item, need in named:
                domain = fragments.domain(item)
                available = fragments.value(item)
                if read:
                    # A site still owing value elsewhere cannot claim its
                    # fragment is complete — refuse (Section 5's rule).
                    if vm.has_outstanding(item):
                        self.requests_ignored += 1
                        continue
                    granted, remainder = available, domain.zero()
                else:
                    granted = self.policy.grant(domain, available, need)
                    if domain.is_zero(granted):
                        self.requests_ignored += 1
                        continue
                    remainder = domain.subtract(available, granted)
                actions.append(SetFragment(item, remainder, request.ts))
                entries.append(vm.allocate_entry(
                    request.origin, item, granted, kind, request.txn_id))
            if entries:
                self.create_vm(owner, tuple(actions), tuple(entries))
                self.requests_honored += len(entries)
                freeze = read
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

    def _accept_vm(self, run: tuple[VmEntry, ...], src: str) -> int:
        """Complete the lifespans of a run of Vm — the in-order entries
        of one real message: force ONE record of their
        [database-actions], apply it, and return how many it covers.

        The run stops at the first entry whose fragment is locked by an
        owner that is not an active transaction of this site — i.e. a
        transient Rds lock — and that entry and the rest stay pending;
        active transactions always absorb into their own locked
        fragments (Section 5's refinement).
        """
        fragments, holders, active = (self.fragments, self.locks.holders,
                                      self.active)
        actions: list[SetFragment] = []
        values: dict[str, Any] = {}
        for entry in run:
            item = entry.item
            domain = fragments.domains.get(item)
            if domain is None:
                break
            new_value = domain.combine(
                values[item] if item in values else fragments.value(item),
                entry.amount)
            holder = holders.get(item)
            txn = active.get(holder)
            if holder is not None and txn is None:
                break
            values[item] = new_value
            ts = txn.ts if txn is not None else self.clock.next()
            actions.append(SetFragment(item, new_value, ts))
        if not actions:
            return 0
        head = run[0]
        record = VmAcceptRecord(
            src=src, first_seq=head.channel_seq,
            last_seq=run[len(actions) - 1].channel_seq,
            actions=tuple(actions), txn_id=head.txn_id)
        self.apply_actions(actions, self.log_append(record))
        return len(actions)

    def _vm_absorbed(self, src: str, entry: VmEntry) -> None:
        """An accepted entry's value is in its fragment: tell the
        transaction holding that fragment, if any."""
        if self.demand is not None:
            # A peer that sends value demonstrably has it — wealth
            # evidence for the pull policy's "richest reachable peer".
            self.demand.note_supply(src, entry.item, entry.amount)
        txn = self.active.get(self.locks.holders.get(entry.item))
        if txn is not None:
            txn.on_vm_absorbed(entry, src)

    # -- lifetime -------------------------------------------------------------

    def close(self) -> None:
        """This incarnation is over: the site crashed (``DvPSystem.crash``)
        or the system is closing (``DvPSystem.close``). It hears and
        decides nothing more, and lets go of what points back at it or
        out at the system: the Vm manager and the undecided
        transactions' timers hold its bound methods, lock waiters hold
        its closures, and ``on_result`` leads to the system that holds
        it; the view cache goes with them. Stable storage, channel
        state and every counter stay readable, and the pages stay
        wired to the auditor: they outlive the incarnation."""
        self.alive = False
        self.vm.close()
        for txn in self.active.values():
            txn.close()  # not cancel: the undecided graph must die
        self.active = {}
        self.wakeable = set()
        self.locks.clear()
        self.on_result = self.views = None

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
