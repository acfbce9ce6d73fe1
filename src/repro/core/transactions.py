"""Transaction processing (Section 5).

Every transaction executes at exactly one site, in the paper's two
phases: *redistribution* (gather enough value locally; nothing changes
value) then *local commit* (force one log record; apply; release). A
timeout during redistribution aborts the transaction — and because
nothing changed value before the commit record, an aborted transaction
is just a redistribution (Rds) transaction: there are no rollbacks and
no distributed cleanup, which is precisely what makes the protocol
non-blocking.

Operations are expressed with partitionable operators only;
:class:`ReadFullOp` implements the expensive "read in the traditional
sense" (drain every fragment and every Vm to the reading site).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import inf
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.fragments import test_leak
from repro.core.messages import READ_MODE, TRANSFER_MODE, DataRequest
from repro.core.operators import BoundedDecrement, PartitionableOperator
from repro.reads.messages import ViewCertificate
from repro.sim.timers import Timer
from repro.storage.records import SetFragment, VmCreateRecord, VmEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.site import DvPSite


class UnsupportedSpec(ValueError):
    """A submit target refused a spec whose *shape* it cannot serve.

    Baselines with narrower scope than DvP (single-item quorum,
    increment/decrement-only 2PC, ...) raise this instead of a bare
    ValueError/TypeError so workload drivers can tell "this target
    doesn't serve that shape" (the customer walks away) apart from a
    genuine programming error, which must propagate.
    """


class Outcome(enum.Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"


class _State(enum.Enum):
    NEW = "new"
    WAITING_LOCKS = "waiting-locks"
    GATHERING = "gathering"
    COMPUTING = "computing"
    FINISHED = "finished"


#: The ONE empty mapping behind every mapping field nobody filled
#: (TxnResult's, a spec's view bounds). Immutable, so a stray write
#: raises instead of aliasing every holder.
EMPTY: Mapping[str, Any] = MappingProxyType({})


# -- operations --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IncrementOp:
    """Add *amount* to *item* (cancel seats, deposit money, restock)."""

    item: str
    amount: Any


@dataclass(frozen=True, slots=True)
class DecrementOp:
    """Remove *amount* from *item* if possible (reserve, withdraw, sell)."""

    item: str
    amount: Any


@dataclass(frozen=True, slots=True)
class TransferOp:
    """Move *amount* from one item to another (change flight A -> B)."""

    src_item: str
    dst_item: str
    amount: Any


@dataclass(frozen=True, slots=True)
class ApplyOp:
    """Apply an arbitrary partitionable operator to *item*."""

    item: str
    operator: PartitionableOperator


@dataclass(frozen=True, slots=True)
class ReadFullOp:
    """Read the item's full value N = Π(Π⁻¹(d)) — requires draining
    every remote fragment (and all in-flight Vm) to this site."""

    item: str


@dataclass(frozen=True, slots=True)
class ReadLocalOp:
    """Read only the local fragment (the site's own quota).

    Free of network traffic. In ordinary DvP operation this is a lower
    bound on the item's value; when an item has been consolidated to
    this site (see repro.hybrid) the fragment IS the value, so this is
    the cheap exact read centralized mode buys."""

    item: str


@dataclass(frozen=True, slots=True)
class ReadViewOp:
    """Read the item's value from a materialized Π(b) view, accepting
    up to *bound* of staleness (docs/READS.md).

    O(1) messages when the site's view cache holds an entry whose
    staleness certificate satisfies the bound; otherwise the read
    escalates to the classic :class:`ReadFullOp` fan-out (and the
    fallback's result warms the cache read-through). ``bound=None``
    accepts any entry within the cache TTL. With views disabled
    system-wide, every view read is a fan-out — the op shape is always
    safe to submit.
    """

    item: str
    bound: float | None = None


Op = (IncrementOp | DecrementOp | TransferOp | ApplyOp | ReadFullOp
      | ReadLocalOp | ReadViewOp)


@dataclass(frozen=True, slots=True)
class TransactionSpec:
    """What a transaction does; ops execute in order at commit.

    ``work`` models the local computation of Section 5 step 4 ("the
    requisite computation is done"): virtual time spent holding the
    locks between sufficiency and the commit record. It is what makes
    lock contention measurable in the hot-spot experiments; it is
    finite and not negative.
    """

    ops: tuple[Op, ...]
    label: str = ""
    work: float = 0.0
    # Derived, not fields a caller sets: slots of their own, outside
    # ``==``, ``hash`` and ``repr``.
    _takes: bool = field(init=False, repr=False, compare=False)
    _full_reads: tuple[str, ...] = field(init=False, repr=False,
                                         compare=False)
    _view_bounds: Mapping[str, float | None] = field(
        init=False, repr=False, compare=False)
    _updates: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _items: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.work < inf:
            # NaN too: it fails both compares. An infinite computation
            # would hold its locks for good.
            raise ValueError(
                f"work {self.work!r} must be finite and >= 0")
        # A spec is frozen, so its item sets are derived here, once,
        # and every later use — by this spec's methods and by each
        # Transaction running it — reads them back. They are tuples of
        # distinct items in op order, and the empty and the identical
        # ones are shared: a workload holds one spec per request, and
        # a slotted one carries no ``__dict__``.
        # ``_takes``: does any op take value (only those have needs)?
        full = dict.fromkeys(op.item for op in self.ops
                             if isinstance(op, ReadFullOp))
        bounds: dict[str, float | None] = {}
        updates: dict[str, None] = {}
        for op in self.ops:
            if isinstance(op, ReadViewOp):
                if op.bound is not None and not 0 <= op.bound:
                    # NaN too: "staleness > nan" is never true, so a
                    # NaN bound would admit every entry.
                    raise ValueError(
                        f"view bound {op.bound!r} on {op.item!r} must be "
                        ">= 0 (or None)")
                if op.item in full:
                    continue  # the exact read serves both ops' values
                prior = bounds.get(op.item)
                if op.item not in bounds:
                    bounds[op.item] = op.bound
                elif op.bound is not None and (prior is None
                                               or op.bound < prior):
                    bounds[op.item] = op.bound
            elif isinstance(op, TransferOp):
                updates[op.src_item] = updates[op.dst_item] = None
            elif isinstance(op, (IncrementOp, DecrementOp, ApplyOp,
                                 ReadLocalOp)):
                updates[op.item] = None
        overlap = [item for item in updates
                   if item in full or item in bounds]
        if overlap:
            raise ValueError(
                f"items {sorted(overlap)} are both read (full or view) "
                "and updated; split into two transactions")
        derive = object.__setattr__  # frozen: not fields, derived state
        derive(self, "_takes", any(
            isinstance(op, (DecrementOp, TransferOp, ApplyOp))
            for op in self.ops))
        derive(self, "_full_reads", tuple(full))
        derive(self, "_view_bounds", bounds or EMPTY)
        derive(self, "_updates", tuple(updates))
        derive(self, "_items", (*full, *bounds, *updates)
               if full or bounds else self._updates)

    @property
    def pure_view(self) -> bool:
        """Is every op a view read (and there is at least one)? Such a
        spec may be certified from a view cache alone (docs/READS.md)."""
        return bool(self._view_bounds) and not self._updates \
            and not self._full_reads

    def items(self) -> set[str]:
        """A(t): every item the transaction accesses."""
        return set(self._items)

    def update_items(self) -> set[str]:
        return set(self._updates)

    def needs(self, domain_of) -> dict[str, Any]:
        """Per-item value the local fragment must cover before commit."""
        needed: dict[str, Any] = {}
        for op in self.ops:
            if isinstance(op, DecrementOp):
                item, amount = op.item, op.amount
            elif isinstance(op, TransferOp):
                item, amount = op.src_item, op.amount
            elif isinstance(op, ApplyOp):
                item = op.item
                try:
                    sign, amount = op.operator.delta(domain_of(item))
                except NotImplementedError:
                    continue
                if sign >= 0:
                    continue
            else:
                continue
            domain = domain_of(item)
            needed[item] = domain.combine(needed.get(item, domain.zero()),
                                          amount)
        return needed


def _named_per_op(wants: tuple[tuple[str, Any], ...],
                  ops: tuple[Op, ...]) -> tuple[tuple[str, Any], ...]:
    """The planted bug ``fragments.set_test_leak("duplicate-grant")``
    (docs/CHAOS.md): a request names each item once per transfer op
    drawing on it, instead of once."""
    return tuple(want for want in wants for _ in range(max(1, sum(
        isinstance(op, TransferOp) and op.src_item == want[0]
        for op in ops))))


def _empty() -> Mapping[str, Any]:
    return EMPTY


def _text(mapping: Mapping[str, Any]) -> str:
    """A result's mapping field as its repr shows it: a shared read-only
    mapping prints as the dict it stands for; ``EMPTY`` and a dict as
    themselves."""
    if mapping is EMPTY or type(mapping) is not MappingProxyType:
        return repr(mapping)
    return repr(dict(mapping))


@dataclass(slots=True, repr=False)
class TxnResult:
    """Reported to the submitter's callback when the transaction ends.

    A run keeps every result, so one is a single slotted object whose
    unused fields cost nothing (DESIGN.md §7): to fill a mapping field,
    assign a new dict, or a read-only mapping minted once and shared
    (a view entry's ``reads``, the system's single-item in-flight
    sample) — never write into the default. The repr prints a shared
    mapping as the dict it stands for.
    """

    txn_id: str
    label: str
    outcome: Outcome
    reason: str
    site: str
    submitted_at: float
    finished_at: float
    read_values: Mapping[str, Any] = field(default_factory=_empty)
    #: Every semantic delta as one flat row of atoms, ``(item, sign,
    #: amount, item, sign, amount, ...)``: one tuple the collector
    #: untracks, not a tuple of triples. Read it as ``semantic_deltas``.
    delta_row: tuple = ()
    requests_sent: int = 0
    #: Value of each read item that was inside live Vm at the commit
    #: instant (sampled by the system's god's-eye auditor). The paper's
    #: read protocol can miss exactly this much: a committed read
    #: returns Π(everything) minus what was still in transmission
    #: (Section 3's N_M term) — see harness.serial for the check.
    inflight_at_commit: Mapping[str, Any] = field(default_factory=_empty)
    #: One row per view-served read, in serve order: an exact tuple of
    #: atoms, so the collector untracks it (a ViewCertificate is a
    #: tuple subclass, which it never would). A read decided in the
    #: instant it was certified holds its view entry's shared row,
    #: whose ``checked_at`` is None and means ``finished_at``; any other
    #: holds ``tuple(cert)``. Read it as ``view_reads``.
    view_rows: tuple[tuple, ...] = ()
    #: View items whose certificate could not be produced — served by
    #: the classic fan-out instead (the read-through tier repairs the
    #: cache from these, see DvPSystem._record_result).
    view_fallbacks: tuple[str, ...] = ()

    @property
    def committed(self) -> bool:
        """For readers of results; the system's own per-result paths
        test ``outcome`` once each instead."""
        return self.outcome is Outcome.COMMITTED

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at

    @property
    def semantic_deltas(self) -> tuple[tuple[str, int, Any], ...]:
        """``(item, sign, amount)`` per delta, in op order, built from
        the flat row on access."""
        atoms = iter(self.delta_row)
        return tuple(zip(atoms, atoms, atoms))

    @property
    def view_reads(self) -> Mapping[str, ViewCertificate]:
        """Item → ViewCertificate for every view-served read
        (docs/READS.md), built from the rows on access. The chaos
        ViewOracle replays the committed timeline against each
        certificate: its value must be the item's exact logical value
        at ``as_of`` and its accepted staleness must respect its bound."""
        if not self.view_rows:
            return EMPTY
        certs = {}
        for item, value, as_of, checked_at, bound, epoch in self.view_rows:
            certs[item] = ViewCertificate(
                item, value, as_of,
                self.finished_at if checked_at is None else checked_at,
                bound, epoch)
        return certs

    def __repr__(self) -> str:
        # The dataclass repr with the rows shown as ``view_reads`` and a
        # shared mapping as the dict it stands for: digests of results
        # hash this text.
        return (f"{type(self).__qualname__}(txn_id={self.txn_id!r}, "
                f"label={self.label!r}, outcome={self.outcome!r}, "
                f"reason={self.reason!r}, site={self.site!r}, "
                f"submitted_at={self.submitted_at!r}, "
                f"finished_at={self.finished_at!r}, "
                f"read_values={_text(self.read_values)}, "
                f"semantic_deltas={self.semantic_deltas!r}, "
                f"requests_sent={self.requests_sent!r}, "
                f"inflight_at_commit={_text(self.inflight_at_commit)}, "
                f"view_reads={self.view_reads!r}, "
                f"view_fallbacks={self.view_fallbacks!r})")


class Transaction:
    """Runtime state machine for one transaction at its home site.

    Machinery is built when it is first needed (DESIGN.md §7): the
    timeout timer only for a transaction that waits, the read and view
    containers only for a spec that reads — every other transaction
    shares the immutable :data:`EMPTY`.
    """

    __slots__ = ("site", "spec", "on_done", "id", "ts", "epoch", "state",
                 "submitted_at", "requests_sent", "result", "_timer",
                 "_rounds_left", "_read_responders", "_view_certs",
                 "_view_fallbacks", "_needs")

    def __init__(self, site: "DvPSite", spec: TransactionSpec,
                 on_done: Callable[[TxnResult], None] | None,
                 txn_id: str, ts: Any, certs: dict[str, ViewCertificate],
                 missed: list[str]) -> None:
        self.site = site
        self.spec = spec
        self.on_done = on_done
        #: Drawn by the site, which announced the transaction under it.
        self.id = txn_id
        self.ts = ts
        #: Directory epoch this transaction resolved placement against.
        #: The migration controller's fence waits for transactions with
        #: older epochs to drain before moving fragments.
        self.epoch = site.directory.epoch
        self.state = _State.NEW
        self.submitted_at = site.sim.now
        self.requests_sent = 0
        self.result: TxnResult | None = None
        #: The timeout; None until the transaction has to wait (_arm).
        self._timer: Timer | None = None
        if spec._full_reads or spec._view_bounds:
            #: Read item → the peers that have drained it to this site:
            #: the exact reads and the escalated view items.
            self._read_responders = {item: set() for item in
                                     (*spec._full_reads, *missed)}
            #: The certificates the site's cache served at submit; the
            #: items it *missed* start escalated.
            self._view_certs = certs
            self._view_fallbacks = missed
        else:
            self._read_responders = EMPTY
            self._view_certs, self._view_fallbacks = EMPTY, ()
        self._needs = (spec.needs(site.fragments.domain) if spec._takes
                       else EMPTY)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Step 1: obtain local locks atomically (per the CC scheme).

        The view items met the cache at submit: the certificates are
        kept (each commit attempt revalidates them), and the missed
        items ride the request wave — Conc2's at initiation, Conc1's
        at the grant (docs/READS.md)."""
        site = self.site
        obs = site._obs
        if self._read_responders or self._view_certs:
            # A read waits on acks too; a certificate ages (_wake).
            site.wakeable.add(self.id)
        cc = site.cc
        items = self.spec._items
        if cc.waits_for_locks:
            # Conc2: all requests broadcast together at initiation.
            covered = self._send_requests()
            self.state = _State.WAITING_LOCKS
            granted = site.locks.acquire_all_or_wait(
                self.id, items, self._locks_granted)
            if granted:
                # Granted in this call: nothing has moved value since the
                # wave computed its deficits, so its answer stands.
                self._locks_granted(covered)
            elif obs.enabled:
                obs.emit("txn.lock-wait", site.sim.now, site=site.name,
                         txn=self.id)
        elif not cc.may_lock_local(site, self.ts, items):
            self._abort("timestamp-refused")
        elif not site.locks.try_acquire_all(self.id, items):
            self._abort("locked")
        else:
            cc.on_lock_granted(site, self.ts, items)
            self._locks_granted()
        if self._timer is None and (self.state is _State.WAITING_LOCKS
                                    or self.state is _State.GATHERING):
            # Handing control back undecided, having sent nothing (a
            # lock queue; a policy that picked nobody to ask).
            self._arm()

    def _arm(self) -> None:
        """(Re-)arm the timeout for one round, building it on first use:
        this transaction has to wait.

        Within ``start()`` that is before its first request leaves
        (_ask) or, when it sends none, as the call returns undecided —
        nothing else such a call does pushes a kernel event, so the
        timeout is ahead of every event its call pushes, exactly as
        when every transaction armed on entry (DESIGN.md §7)."""
        config = self.site.config
        if self._timer is None:
            # Section 5's variation: "the requests could be re-tried a
            # few more times". The budget is split into equal rounds.
            self._rounds_left = config.request_retries
            self._timer = Timer(self.site.sim, self._on_timeout,
                                label=f"txn-timeout:{self.id}")
        self._timer.start(config.txn_timeout / (config.request_retries + 1))

    def close(self) -> None:
        """The site forgets this transaction undecided (a crash, the
        system closing): Transaction <-> Timer must not outlive it."""
        if self._timer is not None:
            self._timer.close()

    def _locks_granted(self, covered: bool = False) -> None:
        """*covered*: the Conc2 wave of this very instant found no
        deficit and asks no drain (a grant from the lock queue re-tests:
        value may have moved while it waited)."""
        site = self.site
        if self.state is _State.FINISHED:
            # Timed out while waiting in the lock queue; locks were
            # granted after cancellation — give them straight back.
            site.locks.release_all(self.id)
            site.after_lock_release()
            return
        cc = site.cc
        if cc.waits_for_locks:
            cc.on_lock_granted(site, self.ts, self.spec._items)
        if site._obs.enabled:
            site._obs.emit("txn.locks-granted", site.sim.now,
                           site=site.name, txn=self.id)
        self.state = _State.GATHERING
        # Adequacy first (Section 5; docs/PROTOCOL.md, "A local
        # transaction"): a covered Conc1 transaction sends no wave, and
        # a short one's wave leaves once, untested again in this
        # instant — nothing can have answered it yet.
        self._try_commit(covered)
        if self.state is not _State.GATHERING:
            return
        if not cc.waits_for_locks:
            self._send_requests()
        # Still gathering: if there is a deficit but nobody was (or can
        # be) asked, the transaction can never become sufficient — the
        # pessimistic rule aborts it immediately rather than at timeout.
        if self.requests_sent == 0 and not site.peers():
            self._abort("insufficient-no-peers")

    # -- redistribution phase -------------------------------------------------

    def _send_requests(self) -> bool:
        """Step 2: request value for every inadequate item — one request
        per peer, naming every item that peer is asked for. True when
        it found no deficit and asks no drain."""
        if not self._needs and not self._read_responders:
            return True
        site = self.site
        sent_before = self.requests_sent
        if self._read_responders:
            self._request_reads(sorted(self._read_responders))
        fragments = site.fragments
        rng = None
        asks: dict[str, dict[str, Any]] = {}
        for item, need in sorted(self._needs.items()):
            domain = fragments.domain(item)
            deficit = domain.deficit(fragments.value(item), need)
            if domain.is_zero(deficit):
                continue
            if site.demand is not None:
                # Feed the rebalance planner: this site's clients want
                # more of *item* than its fragment holds.
                site.demand.note_shortfall(item, deficit)
            rng = rng or site.sim.rng.stream(f"policy:{site.name}")
            # Transfer requests target the item's directory owners
            # (identical to *peers* under the "all" partitioner); reads
            # above always fan to everyone, since any site may hold
            # stray value.
            targets = site.peers_for(item)
            for peer, ask in site.policy.targets(
                    site.name, targets, deficit, domain, rng):
                wants = asks.setdefault(peer, {})
                # A peer picked twice for one item is asked once, for
                # the sum: the responder grants each item once.
                wants[item] = (domain.combine(wants[item], ask)
                               if item in wants else ask)
        for peer, wants in asks.items():
            named = tuple(wants.items())
            if test_leak() == "duplicate-grant":
                named = _named_per_op(named, self.spec.ops)
            self._ask(peer, TRANSFER_MODE, named)
        self._note_requests(sent_before)
        # rng is drawn at the first nonzero deficit.
        return not self._read_responders and rng is None

    def _note_requests(self, sent_before: int) -> None:
        if self.site._obs.enabled and self.requests_sent > sent_before:
            self.site._obs.emit(
                "txn.redistribute", self.site.sim.now, site=self.site.name,
                txn=self.id, requests=self.requests_sent - sent_before)

    def _ask(self, peer: str, mode: str,
             wants: tuple[tuple[str, Any], ...]) -> None:
        """Send one request; the first one arms the timeout."""
        if self._timer is None:
            self._arm()
        self.site.send_request(peer, DataRequest(
            self.id, self.site.name, mode, wants, self.ts))
        self.requests_sent += 1

    def on_vm_absorbed(self, entry: VmEntry, src: str) -> None:
        """A Vm was accepted into a fragment this transaction holds."""
        if self.state is not _State.GATHERING:
            return
        if entry.kind == "read-drain" and entry.txn_id == self.id \
                and entry.item in self._read_responders:
            # Only drains answering THIS transaction's requests count: a
            # stale drain addressed to an earlier (aborted) read is
            # still absorbed as value, but proves nothing about the
            # responder's CURRENT fragment.
            self._read_responders[entry.item].add(src)
        self._try_commit()

    def recheck(self) -> None:
        """Re-evaluate sufficiency (e.g. an outgoing Vm got acked)."""
        if self.state is _State.GATHERING:
            self._try_commit()

    # -- bounded-staleness view reads (docs/READS.md) ------------------------

    def _request_reads(self, items: Iterable[str]) -> None:
        """Ask every peer to drain its fragments of *items* (sorted) to
        this site: one request per peer."""
        wants = tuple([(item, None) for item in items])
        for peer in self.site.peers():
            self._ask(peer, READ_MODE, wants)

    def _revalidate_views(self) -> None:
        """Certificates admit at the commit attempt, not at submit: time
        spent waiting or gathering ages them, and a reshard invalidates
        their epoch. A failed re-check asks the cache once more, under
        the certificate's own bound; a miss there is the one late
        escalation, fanned out alone."""
        site = self.site
        now, epoch = site.sim.now, site.directory.epoch
        certs = self._view_certs
        for item in sorted(certs):
            cert = certs[item]
            if cert.epoch == epoch and (cert.bound is None
                                        or now - cert.as_of <= cert.bound):
                continue
            fresh = site.views.serve(item, cert.bound, self.id)
            if fresh is not None:
                certs[item] = fresh
                continue
            del certs[item]
            self._read_responders[item] = set()
            self._view_fallbacks.append(item)
            sent_before = self.requests_sent
            self._request_reads((item,))
            self._note_requests(sent_before)

    def _sufficient(self) -> bool:
        fragments = self.site.fragments
        for item, need in self._needs.items():
            if not fragments.domain(item).covers(fragments.value(item),
                                                 need):
                return False
        if not self._read_responders:
            return True
        peers = self.site.peers()
        for item, responders in self._read_responders.items():
            if not responders.issuperset(peers):
                return False
            # The reading site itself must owe nothing: an outstanding
            # outgoing Vm is value missing from Π of what it can see.
            if self.site.vm.has_outstanding(item):
                return False
        return True

    # -- commit phase -----------------------------------------------------------

    def _try_commit(self, covered: bool = False) -> None:
        if self.state is not _State.GATHERING:
            return
        if self._view_certs:
            self._revalidate_views()
        # A certificate revalidated in the instant it was served stands,
        # so a covered wave's answer needs no second test.
        if not (covered or self._sufficient()):
            return
        if self.spec.work > 0:
            # Redistribution is complete; computation cannot time out
            # (it is bounded local work), so the timer is disarmed —
            # or, sufficient on arrival, never armed at all.
            self.state = _State.COMPUTING
            if self._timer is not None:
                self._timer.cancel()
            self.site.sim.after(self.spec.work, self._commit,
                                label=f"txn-work:{self.id}")
            return
        self._commit()

    def _commit(self) -> None:
        """Steps 4-7: compute, force the commit record, apply, release."""
        if self.state not in (_State.GATHERING, _State.COMPUTING):
            return
        site = self.site
        if not site.alive or self.id not in site.active:
            # The site crashed while the computation was scheduled (and
            # possibly recovered since); the transaction never reached
            # its commit record, so it simply never happened.
            return
        fragments = site.fragments
        certs = self._view_certs
        # Every item the ops touch, read once: the value before, and
        # the value after the ops so far. (A certified view read takes
        # its value from the certificate, not from the fragment.)
        stored = {item: fragments.value(item)
                  for item in self.spec._items if item not in certs}
        working = dict(stored)
        read_values: dict[str, Any] = {}
        # TxnResult.delta_row: (item, sign, amount) per delta, flat.
        deltas: list[Any] = []
        for op in self.spec.ops:
            kind = type(op)
            if kind is IncrementOp:
                working[op.item] = fragments.domain(op.item).combine(
                    working[op.item], op.amount)
                deltas += (op.item, +1, op.amount)
            elif kind is DecrementOp:
                if not self._take(op.item, op.amount, working):
                    return
                deltas += (op.item, -1, op.amount)
            elif kind is TransferOp:
                if not self._take(op.src_item, op.amount, working):
                    return
                working[op.dst_item] = fragments.domain(op.dst_item).combine(
                    working[op.dst_item], op.amount)
                deltas += (op.src_item, -1, op.amount,
                           op.dst_item, +1, op.amount)
            elif kind is ApplyOp:
                domain = fragments.domain(op.item)
                application = op.operator.apply(domain, working[op.item])
                if not application.effective:
                    self._abort("ineffective-operator")
                    return
                working[op.item] = application.value
                try:
                    sign, magnitude = op.operator.delta(domain)
                    deltas += (op.item, sign, magnitude)
                except NotImplementedError:
                    pass
            elif kind is ReadViewOp and op.item in certs:
                read_values[op.item] = certs[op.item].value
            else:
                # ReadFullOp, ReadLocalOp, or a view read that escalated
                # (or is shadowed by a ReadFullOp): the (drained)
                # fragment holds the exact value.
                read_values[op.item] = working[op.item]

        rows = sorted(working.items()) if len(working) > 1 else working.items()
        actions = tuple([SetFragment(item, value, self.ts)
                         for item, value in rows if value != stored[item]])
        if actions:
            # Step 5: the forced commit record IS the commit point: a
            # create record that creates no Vm.
            lsn = site.log_append(VmCreateRecord(self.id, actions))
            # Step 6: make the changes and record that they were made.
            site.apply_actions(actions, lsn)
        self._finish(Outcome.COMMITTED, "ok", read_values or EMPTY,
                     tuple(deltas))

    def _take(self, item: str, amount: Any, working: dict[str, Any]) -> bool:
        """Apply a bounded decrement — the operator's own rule, without
        building the operator and its ``Application`` for every op."""
        remainder = BoundedDecrement.remainder(
            self.site.fragments.domain(item), working[item], amount)
        if remainder is None:
            self._abort("ineffective-decrement")
            return False
        working[item] = remainder
        return True

    # -- abort paths -------------------------------------------------------------

    def skew_timeout(self) -> None:
        """Clock-skew hook: the armed timeout fires now instead of later.

        Legal because a timeout is a purely local, pessimistic decision
        — nothing in the protocol depends on how long it actually
        waited. No-op when the timer is disarmed (committing) or was
        never needed."""
        if self._timer is not None and self._timer.armed:
            self._timer.cancel()
            self._on_timeout()

    def _on_timeout(self) -> None:
        """Step 3's pessimism: a timeout aborts (after optional retries)."""
        if self.state not in (_State.WAITING_LOCKS, _State.GATHERING,
                              _State.NEW):
            return
        if self._rounds_left > 0 and self.state is _State.GATHERING:
            self._rounds_left -= 1
            self._send_requests()
            self._arm()
            return
        self._abort("timeout")

    def _abort(self, reason: str) -> None:
        demand = self.site.demand
        if demand is not None and reason in ("timeout",
                                             "ineffective-decrement"):
            # A client walked away unserved for lack of local value —
            # the strongest demand signal the planner gets.
            for item in self._needs:
                demand.note_abort(item)
        self._finish(Outcome.ABORTED, reason, EMPTY, ())

    def _finish(self, outcome: Outcome, reason: str,
                read_values: Mapping[str, Any],
                delta_row: tuple) -> None:
        state = self.state
        if state is _State.FINISHED:
            return
        self.state = _State.FINISHED
        site = self.site
        now = site.sim.now
        # Transaction <-> Timer is a reference cycle, and the caller's
        # callback may close over this handle: close the one, let go of
        # the other, and everything the transaction owned dies by
        # reference counting the moment site.active and the caller drop
        # it — never left to the cycle collector (DESIGN.md §7).
        if self._timer is not None:
            self._timer.close()
        on_done, self.on_done = self.on_done, None
        if state is _State.WAITING_LOCKS:
            site.locks.cancel_waiter(self.id)
        # Positional, in TxnResult's field order (one per op, for good).
        view_rows = (tuple([tuple(cert)
                            for cert in self._view_certs.values()])
                     if self._view_certs and outcome is Outcome.COMMITTED
                     else ())
        # A miss counts as a fallback once the locks are granted: one
        # that ended at the lock (locked, timestamp-refused, a queue
        # timeout) never gathered (reads.fallback_share).
        fallbacks = (tuple(self._view_fallbacks) if state is not _State.NEW
                     and state is not _State.WAITING_LOCKS else ())
        self.result = result = TxnResult(
            self.id, self.spec.label, outcome, reason, site.name,
            self.submitted_at, now, read_values, delta_row,
            self.requests_sent, EMPTY, view_rows, fallbacks)
        site.decided(result, on_done)
