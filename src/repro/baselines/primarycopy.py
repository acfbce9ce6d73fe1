"""Primary-copy replication.

Each item has one *primary* site; every update executes at the primary
(remote origins forward the operation and wait for the reply), and the
primary lazily propagates new versions to the backups. Reads may be
served locally from a (possibly stale) backup copy when
``allow_stale_reads`` is set, else they go to the primary too.

Partition behaviour: only the group containing the primary can update —
everyone else times out. If the primary site *fails*, nobody can update
at all (the paper's "a primary copy site fails" remark). This is the
second comparator for availability experiment E2.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class ForwardReq:
    txn_id: str
    origin: str
    item: str
    ops: tuple  # of core ops

@dataclass(frozen=True)
class ForwardReply:
    txn_id: str
    committed: bool
    reason: str
    read_values: tuple[tuple[str, Any], ...] = ()
    deltas: tuple[tuple[str, int, Any], ...] = ()


@dataclass(frozen=True)
class PropagateMsg:
    item: str
    value: Any
    version: int


class PrimaryCopySite(BaselineSite):
    """Holds a replica of every item; primary for some of them."""

    tag = "pc"
    handlers = {ForwardReq: "_on_forward",
                ForwardReply: "_on_reply",
                PropagateMsg: "_on_propagate"}

    def __init__(self, name: str, system: "PrimaryCopySystem",
                 crashed: "PrimaryCopySite | None" = None) -> None:
        super().__init__(name, system, crashed)
        #: txn -> (client callback, submitted at, label), awaiting the
        #: primary's reply. Volatile: a crash forgets them.
        self._pending: dict[str, tuple[PendingDone, float, str]] = {}

    # -- client API --------------------------------------------------------

    def submit(self, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None) -> str:
        if len(spec.items()) != 1:
            raise UnsupportedSpec("primary-copy baseline supports "
                             "single-item txns")
        txn_id = self._ids.next()
        item = next(iter(spec.items()))
        if item not in self.system.primary:
            # Typed refusal before any message leaves: neither the
            # local stale-read path nor the primary should discover a
            # nonexistent item inside a delivery event.
            raise UnknownItem(f"unknown item {item!r}")
        is_read_only = all(isinstance(op, ReadFullOp) for op in spec.ops)
        if is_read_only and self.system.allow_stale_reads:
            value = self.store.get(item).value
            self._finish(txn_id, PendingDone(on_done), make_result(
                txn_id, spec.label, Outcome.COMMITTED, "stale-read",
                self.name, self.sim.now, self.sim.now,
                read_values={item: value}))
            return txn_id
        self._pending[txn_id] = (PendingDone(on_done), self.sim.now,
                                 spec.label)
        self._route(self.system.primary[item],
                    ForwardReq(txn_id, self.name, item, spec.ops))
        self.timers.arm(txn_id, self._timeout)
        return txn_id

    # -- primary side ---------------------------------------------------------

    def _on_forward(self, request: ForwardReq) -> None:
        if self.system.primary[request.item] != self.name:
            return  # mis-routed (e.g. stale directory); ignore
        item = self.store.get(request.item)
        committed = True
        reason = "ok"
        reads: list[tuple[str, Any]] = []
        deltas: list[tuple[str, int, Any]] = []
        new_value = item.value
        for op in request.ops:
            if isinstance(op, DecrementOp):
                if new_value < op.amount:
                    committed, reason = False, "insufficient"
                    break
                new_value -= op.amount
                deltas.append((op.item, -1, op.amount))
            elif isinstance(op, IncrementOp):
                new_value += op.amount
                deltas.append((op.item, +1, op.amount))
            elif isinstance(op, ReadFullOp):
                reads.append((op.item, new_value))
            else:
                committed, reason = False, "unsupported-op"
                break
        if committed and new_value != item.value:
            item.value = new_value
            item.version += 1
            self.log.append(("primary-write", request.txn_id, request.item,
                             new_value, item.version))
            for backup in self.system.sites:
                if backup != self.name:
                    self.network.send(self.name, backup, PropagateMsg(
                        request.item, new_value, item.version))
        self._route(request.origin, ForwardReply(
            request.txn_id, committed, reason, tuple(reads),
            tuple(deltas)))

    def _on_propagate(self, message: PropagateMsg) -> None:
        item = self.store.get(message.item)
        if message.version > item.version:
            item.value = message.value
            item.version = message.version

    # -- origin side -------------------------------------------------------------

    def _on_reply(self, reply: ForwardReply) -> None:
        self._conclude(
            reply.txn_id,
            Outcome.COMMITTED if reply.committed else Outcome.ABORTED,
            reply.reason, list(reply.deltas), dict(reply.read_values))

    def _timeout(self, txn_id: str) -> None:
        self._conclude(txn_id, Outcome.ABORTED, "timeout")

    def _conclude(self, txn_id: str, outcome: Outcome, reason: str,
                  deltas: list | None = None,
                  reads: dict[str, Any] | None = None) -> None:
        pending = self._pending.pop(txn_id, None)
        if pending is None:
            return  # already answered, or forgotten in a crash
        done, submitted_at, label = pending
        self._finish(txn_id, done, make_result(
            txn_id, label, outcome, reason, self.name, submitted_at,
            self.sim.now, deltas=deltas, read_values=reads))


class PrimaryCopySystem(BaselineSystem):
    """Primary-copy replicated store."""

    site_class = PrimaryCopySite

    def __init__(self, sites: list[str], seed: int = 0,
                 link: LinkConfig | None = None,
                 config: BaselineConfig | None = None,
                 allow_stale_reads: bool = False) -> None:
        self.allow_stale_reads = allow_stale_reads
        self.primary: dict[str, str] = {}
        super().__init__(sites, seed, link, config)

    def add_item(self, item: str, primary: str, initial: Any) -> None:
        self.primary[item] = primary
        self._create(item, initial, self.sites)

    def value(self, item: str) -> Any:
        return self.sites[self.primary[item]].store.get(item).value
