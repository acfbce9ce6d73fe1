"""O'Neil's escrow method and a plain exclusive-lock central counter.

Section 8 positions DvP as a *distributed* answer to aggregate-field
hot spots and cites the escrow transactional method as the specialized
centralized answer. This module implements both central designs over
the shared substrate so experiment E6 can compare three points:

* ``mode="lock"`` — the naive hot spot: one site, one exclusive lock,
  every transaction queues; throughput is capped at 1/work_time.
* ``mode="escrow"`` — O'Neil: the central site tracks, per item, the
  worst-case bounds implied by outstanding escrows (``inf`` = value
  minus all escrowed decrements). A decrement is granted immediately
  whenever ``inf - amount >= 0``, so transactions overlap freely; but
  everything still funnels through one site, and a partition cuts
  remote clients off entirely.
* DvP (from :mod:`repro.core`) — fragments spread the counter across
  sites; transactions are local.

Protocol (both modes): origin sends an acquire request; the central
site grants (immediately, after queueing, or never); the origin then
"works" for ``spec.work`` virtual time and sends the commit, which the
central applies. Origins retransmit unanswered commits — escrowed
quantities must not leak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.common import (
    BaselineConfig,
    BaselineSystem,
    IdSource,
    PendingDone,
    UnknownItem,
    make_result,
)
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    Outcome,
    TransactionSpec,
    TxnResult,
    UnsupportedSpec,
)
from repro.net.link import LinkConfig
from repro.net.message import Envelope
from repro.storage.log import StableLog


@dataclass(frozen=True)
class AcquireReq:
    txn_id: str
    origin: str
    item: str
    kind: str  # "dec" | "inc"
    amount: Any


@dataclass(frozen=True)
class AcquireReply:
    txn_id: str
    granted: bool
    reason: str = ""


@dataclass(frozen=True)
class CommitReq:
    txn_id: str
    origin: str


@dataclass(frozen=True)
class CommitDone:
    txn_id: str


@dataclass(frozen=True)
class AbandonReq:
    """Client gave up (timed out) before/while holding the grant."""

    txn_id: str
    origin: str


@dataclass
class _CentralItem:
    value: Any
    locked_by: str | None = None
    wait_queue: list[str] = field(default_factory=list)
    #: txn -> (kind, amount): escrowed-but-uncommitted operations.
    journal: dict[str, tuple[str, Any]] = field(default_factory=dict)

    def escrow_inf(self) -> Any:
        """Worst-case committed value if every escrowed dec commits."""
        held = sum(amount for kind, amount in self.journal.values()
                   if kind == "dec")
        return self.value - held


@dataclass
class _ClientTxn:
    txn_id: str
    spec: TransactionSpec
    item: str
    kind: str
    amount: Any
    done: PendingDone
    submitted_at: float
    granted: bool = False
    committed: bool = False


class CentralCounterSystem(BaselineSystem):
    """A single hot counter managed at one central site.

    Clients at every site issue increments/decrements against items
    living at ``central``. ``mode`` selects exclusive locking or escrow
    accounting at the central site.

    One process stands in for every site — the central server and all
    the clients — so of the substrate it takes the system half only:
    ``sites`` is empty (there is no per-site object, and no crash
    model), and the deadlines and the commit-retry loop run on the
    system's own :attr:`timers`.
    """

    tag = "hot"

    def __init__(self, sites: list[str], central: str, mode: str = "escrow",
                 seed: int = 0, link: LinkConfig | None = None,
                 config: BaselineConfig | None = None) -> None:
        if mode not in ("escrow", "lock"):
            raise ValueError(f"unknown mode {mode!r}")
        if central not in sites:
            raise ValueError("central site must be one of the sites")
        super().__init__((), seed, link, config)
        self.mode = mode
        self.central = central
        self.log = StableLog(central)
        self._items: dict[str, _CentralItem] = {}
        self._ids = IdSource("hot")
        self._clients: dict[str, _ClientTxn] = {}
        self._pending_requests: dict[str, AcquireReq] = {}
        self._commit_retry = self.timers.loop("escrow-commit-retry",
                                              self._retry_commits)
        self.site_names = list(sites)
        for name in sites:
            self.network.register(name, self._deliver)

    # -- setup -------------------------------------------------------------

    def add_item(self, item: str, initial: Any) -> None:
        self.item_names.append(item)
        self._items[item] = _CentralItem(initial)

    def value(self, item: str) -> Any:
        return self._items[item].value

    # -- client API ----------------------------------------------------------

    def submit(self, origin: str, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None = None) -> str:
        if len(spec.ops) != 1 or not isinstance(
                spec.ops[0], (DecrementOp, IncrementOp)):
            raise UnsupportedSpec("central-counter baseline supports single "
                             "increment/decrement transactions")
        op = spec.ops[0]
        if op.item not in self._items:
            # Typed refusal: the central site indexes _items directly
            # on AcquireReq delivery and must never see unknown names.
            raise UnknownItem(f"unknown item {op.item!r}")
        kind = "dec" if isinstance(op, DecrementOp) else "inc"
        txn_id = f"{origin}:{self._ids.next()}"
        client = _ClientTxn(txn_id, spec, op.item, kind, op.amount,
                            PendingDone(on_done), self.sim.now)
        self._clients[txn_id] = client
        request = AcquireReq(txn_id, origin, op.item, kind, op.amount)
        self._route(origin, self.central, request)
        self.timers.arm(txn_id, self._client_timeout)
        return txn_id

    # -- message plumbing -------------------------------------------------------

    def _deliver(self, envelope: Envelope) -> None:
        """Every site's delivery handler: the central site serves
        requests, any site hears its own clients' replies."""
        payload = envelope.payload
        central = envelope.dst == self.central
        if central and isinstance(payload, AcquireReq):
            self._central_acquire(payload)
        elif central and isinstance(payload, CommitReq):
            self._central_commit(payload)
        elif central and isinstance(payload, AbandonReq):
            self._central_abandon(payload)
        elif isinstance(payload, AcquireReply):
            self._client_granted(payload)
        elif isinstance(payload, CommitDone):
            self._client_done(payload)

    def _route(self, src: str, dst: str, payload: Any) -> None:
        if src == dst:
            # Local client at the central site: no network hop.
            self.sim.after(
                0.0, lambda: self._deliver(Envelope(dst, dst, payload)),
                label="hot-local")
        else:
            self.network.send(src, dst, payload)

    # -- central site -------------------------------------------------------------

    def _central_acquire(self, request: AcquireReq) -> None:
        item = self._items[request.item]
        if self.mode == "escrow":
            self._escrow_acquire(request, item)
        else:
            self._lock_acquire(request, item)

    def _escrow_acquire(self, request: AcquireReq,
                        item: _CentralItem) -> None:
        if request.txn_id in item.journal:
            return  # duplicate request
        if request.kind == "dec" and \
                item.escrow_inf() - request.amount < 0:
            self._route(self.central, request.origin,
                        AcquireReply(request.txn_id, False, "insufficient"))
            return
        item.journal[request.txn_id] = (request.kind, request.amount)
        self.log.append(("escrow", request.txn_id, request.kind,
                         request.amount))
        self._pending_requests[request.txn_id] = request
        self._route(self.central, request.origin,
                    AcquireReply(request.txn_id, True))

    def _lock_acquire(self, request: AcquireReq,
                      item: _CentralItem) -> None:
        self._pending_requests[request.txn_id] = request
        if item.locked_by is None:
            self._lock_grant(request, item)
        elif request.txn_id not in item.wait_queue and \
                item.locked_by != request.txn_id:
            item.wait_queue.append(request.txn_id)

    def _lock_grant(self, request: AcquireReq, item: _CentralItem) -> None:
        if request.kind == "dec" and item.value < request.amount:
            self._pending_requests.pop(request.txn_id, None)
            self._route(self.central, request.origin,
                        AcquireReply(request.txn_id, False, "insufficient"))
            self._lock_next(item)
            return
        item.locked_by = request.txn_id
        item.journal[request.txn_id] = (request.kind, request.amount)
        self._route(self.central, request.origin,
                    AcquireReply(request.txn_id, True))

    def _lock_next(self, item: _CentralItem) -> None:
        while item.wait_queue and item.locked_by is None:
            txn_id = item.wait_queue.pop(0)
            request = self._pending_requests.get(txn_id)
            if request is not None:
                self._lock_grant(request, item)

    def _central_commit(self, request: CommitReq) -> None:
        pending = self._pending_requests.pop(request.txn_id, None)
        if pending is None:
            # Already committed (duplicate commit): just re-confirm.
            self._route(self.central, request.origin,
                        CommitDone(request.txn_id))
            return
        item = self._items[pending.item]
        entry = item.journal.pop(request.txn_id, None)
        if entry is not None:
            kind, amount = entry
            item.value = item.value - amount if kind == "dec" \
                else item.value + amount
            self.log.append(("commit", request.txn_id, kind, amount))
        if self.mode == "lock" and item.locked_by == request.txn_id:
            item.locked_by = None
            self._lock_next(item)
        self._route(self.central, request.origin,
                    CommitDone(request.txn_id))

    def _central_abandon(self, request: AbandonReq) -> None:
        """Undo an acquire whose client gave up: drop the journal entry
        (and the lock), then serve the queue."""
        pending = self._pending_requests.pop(request.txn_id, None)
        if pending is None:
            return
        item = self._items[pending.item]
        item.journal.pop(request.txn_id, None)
        if request.txn_id in item.wait_queue:
            item.wait_queue.remove(request.txn_id)
        if item.locked_by == request.txn_id:
            item.locked_by = None
            self._lock_next(item)

    # -- client side ------------------------------------------------------------------

    def _client_granted(self, reply: AcquireReply) -> None:
        client = self._clients.get(reply.txn_id)
        if client is None or client.done.fired:
            # A grant for a transaction that already timed out: give it
            # back so the central site doesn't leak the lock/escrow.
            if client is not None and not client.granted:
                origin = reply.txn_id.split(":", 1)[0]
                self._route(origin, self.central,
                            AbandonReq(reply.txn_id, origin))
            return
        if client.granted:
            return
        if not reply.granted:
            self._finish(client, Outcome.ABORTED, reply.reason or "refused")
            return
        client.granted = True
        # Perform the transaction's local work, then commit.
        self.sim.after(client.spec.work,
                       lambda: self._send_commit(client),
                       label=f"hot-work:{client.txn_id}")

    def _send_commit(self, client: _ClientTxn) -> None:
        if client.done.fired and not client.granted:
            return
        origin = client.txn_id.split(":", 1)[0]
        self._route(origin, self.central, CommitReq(client.txn_id, origin))
        self._commit_retry.start()

    def _retry_commits(self) -> bool:
        outstanding = False
        for client in self._clients.values():
            if client.granted and not client.committed:
                outstanding = True
                self._send_commit(client)
        return outstanding

    def _client_done(self, done_msg: CommitDone) -> None:
        client = self._clients.get(done_msg.txn_id)
        if client is None or client.committed:
            return
        client.committed = True
        sign = -1 if client.kind == "dec" else +1
        self._finish(client, Outcome.COMMITTED, "ok",
                     deltas=[(client.item, sign, client.amount)])

    def _client_timeout(self, txn_id: str) -> None:
        client = self._clients.get(txn_id)
        if client is None or client.done.fired:
            return
        if client.granted:
            # Escrow held, commit in flight: the retry loop will land it
            # eventually; the client-visible outcome stays open past the
            # timeout only in this already-granted state.
            return
        self._finish(client, Outcome.ABORTED, "timeout")

    def _finish(self, client: _ClientTxn, outcome: Outcome, reason: str,
                deltas: list | None = None) -> None:
        self.timers.disarm(client.txn_id)
        origin = client.txn_id.split(":", 1)[0]
        result = make_result(client.txn_id, client.spec.label, outcome,
                             reason, origin, client.submitted_at,
                             self.sim.now, deltas=deltas)
        if client.done.fire(result):
            self.record_result(result)
