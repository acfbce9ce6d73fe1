"""Replicated data with quorum consensus.

Every item is fully replicated at every site with a version number. An
update must lock and write a *write quorum* of replicas; a read must
consult a *read quorum* (r + w > n). During a partition only a group
containing a quorum can make progress — the availability loss that
experiment E2 quantifies against DvP, where *every* group keeps serving
from its local quotas.

The implementation is the classic lock-quorum protocol: gather grants
from w replicas (each grant locks that replica), act on the
highest-version value, push the new version to the granting replicas,
release. A coordinator that cannot assemble the quorum inside its
timeout releases whatever it locked and aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.common import (
    BaselineConfig,
    BaselineSite,
    BaselineSystem,
    PendingDone,
    UnknownItem,
    make_result,
)
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    Outcome,
    ReadFullOp,
    TransactionSpec,
    TxnResult,
    UnsupportedSpec,
)
from repro.net.link import LinkConfig


@dataclass(frozen=True)
class LockReq:
    txn_id: str
    origin: str
    item: str
    round: int = 0


@dataclass(frozen=True)
class LockReply:
    txn_id: str
    replica: str
    item: str
    granted: bool
    version: int = -1
    value: Any = None
    round: int = 0


@dataclass(frozen=True)
class WriteReq:
    txn_id: str
    item: str
    value: Any
    version: int


@dataclass(frozen=True)
class ReleaseReq:
    txn_id: str
    item: str


@dataclass
class _Attempt:
    txn_id: str
    spec: TransactionSpec
    done: PendingDone
    submitted_at: float
    grants: dict[str, tuple[int, Any]] = field(default_factory=dict)
    denied: set[str] = field(default_factory=set)
    finished: bool = False
    round: int = 0


class QuorumSite(BaselineSite):
    """One replica holder / coordinator."""

    tag = "quorum"
    handlers = {LockReq: "_on_lock_req",
                LockReply: "_on_lock_reply",
                WriteReq: "_on_write",
                ReleaseReq: "_on_release"}

    def __init__(self, name: str, system: "QuorumSystem",
                 crashed: "QuorumSite | None" = None) -> None:
        super().__init__(name, system, crashed)
        self._attempts: dict[str, _Attempt] = {}

    # -- client API --------------------------------------------------------

    def submit(self, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None) -> str:
        if len(spec.items()) != 1:
            raise UnsupportedSpec("quorum baseline supports single-item txns")
        item = next(iter(spec.items()))
        if item not in self.store:
            # Typed refusal at submit time: a replica receiving a lock
            # request for a nonexistent item would otherwise blow up
            # inside a delivery event.
            raise UnknownItem(f"unknown item {item!r}")
        txn_id = self._ids.next()
        attempt = _Attempt(txn_id, spec, PendingDone(on_done), self.sim.now)
        self._attempts[txn_id] = attempt
        self._send_lock_round(attempt)
        self.timers.arm(txn_id, self._timeout)
        return txn_id

    def _send_lock_round(self, attempt: _Attempt) -> None:
        item = next(iter(attempt.spec.items()))
        for replica in self.system.sites:
            self._route(replica, LockReq(attempt.txn_id, self.name, item,
                                         attempt.round))

    # -- replica side ---------------------------------------------------------

    def _on_lock_req(self, request: LockReq) -> None:
        item = self.store.get(request.item)
        # Granted when the replica is free (it locks) or already ours.
        if self.locks.setdefault(request.item,
                                 request.txn_id) == request.txn_id:
            reply = LockReply(request.txn_id, self.name, request.item,
                              True, item.version, item.value,
                              request.round)
        else:
            reply = LockReply(request.txn_id, self.name, request.item,
                              False, round=request.round)
        self._route(request.origin, reply)

    def _on_write(self, request: WriteReq) -> None:
        item = self.store.get(request.item)
        if request.version > item.version:
            item.value = request.value
            item.version = request.version
            self.log.append(("replica-write", request.txn_id, request.item,
                             request.value, request.version))
        self._unlock(request.item, request.txn_id)

    def _on_release(self, request: ReleaseReq) -> None:
        self._unlock(request.item, request.txn_id)

    # -- coordinator side --------------------------------------------------------

    def _on_lock_reply(self, reply: LockReply) -> None:
        attempt = self._attempts.get(reply.txn_id)
        if attempt is None or attempt.finished:
            if reply.granted:
                # Straggler grant after the attempt ended: release it.
                self._release(reply.txn_id, reply.item, [reply.replica])
            return
        if reply.round != attempt.round:
            # A *grant* from an abandoned round still holds the lock at
            # that replica: the retry released only the grants it had
            # seen when it reset. Unless the current round re-granted
            # there (same txn id — releasing would drop a lock we
            # hold), give it back, or the replica stays locked by this
            # transaction forever once it finishes elsewhere.
            if reply.granted and reply.replica not in attempt.grants:
                self._release(reply.txn_id, reply.item, [reply.replica])
            return
        if reply.granted:
            attempt.grants[reply.replica] = (reply.version, reply.value)
        else:
            attempt.denied.add(reply.replica)
        needed = self.system.write_quorum
        if len(attempt.grants) >= needed:
            self._execute(attempt)
        elif len(self.system.sites) - len(attempt.denied) < needed:
            self._retry(attempt)

    def _retry(self, attempt: _Attempt) -> None:
        """Lock collision: back off and try a fresh round (until the
        transaction's own timeout aborts it)."""
        self._release(attempt.txn_id, next(iter(attempt.spec.items())),
                      list(attempt.grants))
        attempt.grants.clear()
        attempt.denied.clear()
        attempt.round += 1
        backoff = self.sim.rng.stream(f"quorum-backoff:{self.name}") \
            .uniform(0.5, 3.0)
        self.sim.after(backoff,
                       lambda: self._retry_fire(attempt.txn_id,
                                                attempt.round),
                       label=f"quorum-retry:{attempt.txn_id}")

    def _retry_fire(self, txn_id: str, round_number: int) -> None:
        if not self.alive:
            # A backoff armed before a crash fires on the closed
            # incarnation and does nothing. A crash leaves it armed:
            # the quorum pins count its kernel event.
            return
        attempt = self._attempts.get(txn_id)
        if attempt is None or attempt.finished or \
                attempt.round != round_number:
            return
        self._send_lock_round(attempt)

    def _execute(self, attempt: _Attempt) -> None:
        item_name = next(iter(attempt.spec.items()))
        version, value = max(attempt.grants.values())
        reads: dict[str, Any] = {}
        deltas: list[tuple[str, int, Any]] = []
        new_value = value
        for op in attempt.spec.ops:
            if isinstance(op, DecrementOp):
                if new_value < op.amount:
                    self._conclude(attempt, Outcome.ABORTED,
                                   "insufficient")
                    return
                new_value -= op.amount
                deltas.append((op.item, -1, op.amount))
            elif isinstance(op, IncrementOp):
                new_value += op.amount
                deltas.append((op.item, +1, op.amount))
            elif isinstance(op, ReadFullOp):
                reads[op.item] = new_value
            else:
                self._conclude(attempt, Outcome.ABORTED,
                               "unsupported-op")
                return
        for replica in attempt.grants:
            self._route(replica, WriteReq(attempt.txn_id, item_name,
                                          new_value, version + 1))
        self._conclude(attempt, Outcome.COMMITTED, "ok", deltas, reads)

    def _timeout(self, txn_id: str) -> None:
        attempt = self._attempts.get(txn_id)
        if attempt is not None and not attempt.finished:
            self._conclude(attempt, Outcome.ABORTED, "timeout")

    def _conclude(self, attempt: _Attempt, outcome: Outcome, reason: str,
                  deltas: list | None = None,
                  reads: dict[str, Any] | None = None) -> None:
        attempt.finished = True
        if outcome is Outcome.ABORTED:
            self._release(attempt.txn_id,
                          next(iter(attempt.spec.items())), attempt.grants)
        self._finish(attempt.txn_id, attempt.done, make_result(
            attempt.txn_id, attempt.spec.label, outcome, reason,
            self.name, attempt.submitted_at, self.sim.now, deltas=deltas,
            read_values=reads))

    def _release(self, txn_id: str, item: str, replicas) -> None:
        for replica in replicas:
            self._route(replica, ReleaseReq(txn_id, item))


class QuorumSystem(BaselineSystem):
    """Fully replicated items under quorum consensus."""

    site_class = QuorumSite

    def __init__(self, sites: list[str], seed: int = 0,
                 link: LinkConfig | None = None,
                 config: BaselineConfig | None = None,
                 write_quorum: int | None = None) -> None:
        super().__init__(sites, seed, link, config)
        self.write_quorum = (write_quorum if write_quorum is not None
                             else len(sites) // 2 + 1)

    def add_item(self, item: str, initial: Any) -> None:
        self._create(item, initial, self.sites)

    def value(self, item: str) -> Any:
        """Latest-version value across replicas (god's-eye read)."""
        best = max((site.store.get(item).version, site.store.get(item).value)
                   for site in self.sites.values())
        return best[1]
