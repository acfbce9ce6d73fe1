"""What two-phase commit and Paxos Commit share.

Both store each item whole at a *home* site and commit a transaction
touching several homes atomically; they differ only in how the
decision is reached and in what a participant does once it has waited
too long for one. Everything else is here, once:

* the **participant** — vote by running the ops against a shadow copy
  of the unlocked items; on YES lock, force a ``prepared`` record and
  wait; apply or discard the decision and release; remember decided
  transactions, so a prepare overtaken by its own decision locks
  nothing; rebuild the in-doubt set from the log after a crash; and one
  prepared-too-long loop whose action the protocol supplies (2PC asks
  its coordinator, Paxos Commit takes over);
* the **origin** — partition the spec by home, send each participant
  its share, answer the client exactly once;
* the **announcement** — whoever decided re-sends the decision until
  every target has acknowledged it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.common import (
    BaselineSite,
    BaselineSystem,
    PendingDone,
    SimpleOp,
    make_result,
    partition_ops,
)
from repro.core.transactions import Outcome, TransactionSpec, TxnResult


@dataclass(frozen=True)
class DecisionMsg:
    txn_id: str
    commit: bool
    #: Who announces it — the acknowledgement goes back there.
    sender: str


@dataclass(frozen=True)
class DecisionAck:
    txn_id: str
    participant: str


@dataclass
class _Coordination:
    """Client-facing state at the origin."""

    txn_id: str
    label: str
    ops_by_site: dict[str, tuple[SimpleOp, ...]]
    done: PendingDone
    submitted_at: float
    read_values: dict[str, Any] = field(default_factory=dict)
    decided: bool = False


@dataclass
class _Prepared:
    """Participant-side in-doubt state (locks held): the protocol's
    prepare message, and since when."""

    request: Any
    prepared_at: float


class CommitSite(BaselineSite):
    """Origin, participant and announcer; the protocol subclasses add
    how a decision is reached.

    A subclass names its prepare message (:attr:`prepare_type`, a
    ``NamedTuple`` starting ``txn_id, coordinator`` and ending ``ops``
    — its fields are the ``prepared`` log record), keeps one record per
    transaction it may decide in :attr:`_led` (``txn_id``, ``decided``,
    ``commit``, ``acked``, ``targets``) and supplies ``_lead``,
    ``_prepare_message``, ``_vote``, ``_suspect`` and ``_on_deadline``.
    """

    prepare_type: type
    #: What the prepared-too-long loop is called in event labels.
    watch = ""
    handlers = {DecisionMsg: "_on_decision",
                DecisionAck: "_on_decision_ack"}

    def __init__(self, name: str, system: "CommitSystem",
                 crashed: "CommitSite | None" = None) -> None:
        super().__init__(name, system, crashed)
        self._coordinations: dict[str, _Coordination] = {}
        self._led: dict[str, Any] = {}
        self._prepared: dict[str, _Prepared] = {}
        #: Transactions this participant has seen decided.
        self._applied: set[str] = set()
        self._decision_pusher = self.timers.loop(
            f"{self.tag}-decisions:{name}", self._push_decisions)
        self._watcher = self.timers.loop(
            f"{self.tag}-{self.watch}:{name}", self._watch_prepared)

    # -- origin -----------------------------------------------------------

    def submit(self, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None) -> str:
        txn_id = self._ids.next()
        ops_by_site = partition_ops(spec, self.system.home)
        roster = tuple(sorted(ops_by_site))
        self._coordinations[txn_id] = _Coordination(
            txn_id, spec.label, ops_by_site, PendingDone(on_done),
            self.sim.now)
        self._led[txn_id] = self._lead(txn_id, roster)
        self.log.append(("coord-begin", txn_id, list(roster)))
        for participant, ops in ops_by_site.items():
            self._route(participant,
                        self._prepare_message(txn_id, roster, ops))
        self.timers.arm(txn_id, self._on_deadline)
        return txn_id

    def _resolve(self, txn_id: str, commit: bool, reason: str) -> None:
        """Answer the client, if it is ours and still waiting."""
        coordination = self._coordinations.get(txn_id)
        if coordination is None or coordination.decided:
            return
        coordination.decided = True
        deltas = [(op.item, -1 if op.kind == "dec" else +1, op.amount)
                  for ops in coordination.ops_by_site.values()
                  for op in ops if op.kind != "read"] if commit else []
        self._finish(txn_id, coordination.done, make_result(
            txn_id, coordination.label,
            Outcome.COMMITTED if commit else Outcome.ABORTED, reason,
            self.name, coordination.submitted_at, self.sim.now,
            deltas=deltas, read_values=coordination.read_values))

    # -- announcing a decision --------------------------------------------

    def _decide(self, lead: Any, commit: bool, reason: str) -> None:
        lead.decided = True
        lead.commit = commit
        self.log.append(("coord-decision", lead.txn_id, commit))
        self._broadcast_decision(lead)
        self._decision_pusher.start()
        self._resolve(lead.txn_id, commit, reason)

    def _broadcast_decision(self, lead: Any) -> None:
        message = DecisionMsg(lead.txn_id, lead.commit, self.name)
        for target in lead.targets - lead.acked:
            self._route(target, message)

    def _push_decisions(self) -> bool:
        """Retransmit decisions until every target acknowledged."""
        outstanding = False
        for lead in self._led.values():
            if lead.decided and lead.acked < lead.targets:
                outstanding = True
                self._broadcast_decision(lead)
        return outstanding

    def _on_decision_ack(self, ack: DecisionAck) -> None:
        lead = self._led.get(ack.txn_id)
        if lead is not None:
            lead.acked.add(ack.participant)

    # -- participant ------------------------------------------------------

    def _on_prepare(self, request: Any) -> None:
        txn_id = request.txn_id
        if txn_id in self._prepared or txn_id in self._applied:
            return  # duplicate, or overtaken by its own decision
        reads = self._try(request.ops)
        if reads is not None:
            for op in request.ops:
                self.locks[op.item] = txn_id
            self.log.append(("prepared", *request))
            self._prepared[txn_id] = _Prepared(request, self.sim.now)
            self._watcher.start()
        self._vote(request, reads)

    def _try(self, ops: tuple[SimpleOp, ...]
             ) -> tuple[tuple[str, Any], ...] | None:
        """The vote: the values the ops read if they all fit unlocked
        items (checked against a shadow copy, so two decrements that
        fit alone but not together are refused); None is NO."""
        items = {op.item for op in ops}
        if any(item in self.locks for item in items):
            return None
        shadow = {item: self.store.get(item).value for item in items}
        reads = []
        for op in ops:
            if op.kind == "dec":
                if shadow[op.item] < op.amount:
                    return None
                shadow[op.item] -= op.amount
            elif op.kind == "inc":
                shadow[op.item] += op.amount
            else:
                reads.append((op.item, shadow[op.item]))
        return tuple(reads)

    def _on_decision(self, message: DecisionMsg) -> None:
        prepared = self._prepared.pop(message.txn_id, None)
        self._applied.add(message.txn_id)
        if prepared is not None:
            self.system.lock_holds.append(
                (self.name, message.txn_id,
                 self.sim.now - prepared.prepared_at))
            if message.commit:
                for op in prepared.request.ops:
                    item = self.store.get(op.item)
                    if op.kind == "dec":
                        item.value -= op.amount
                    elif op.kind == "inc":
                        item.value += op.amount
                    item.version += 1
            self.log.append(("participant-commit" if message.commit
                             else "participant-abort", message.txn_id))
            for op in prepared.request.ops:
                self._unlock(op.item, message.txn_id)
        self._route(message.sender,
                    DecisionAck(message.txn_id, self.name))

    def in_doubt(self) -> list[tuple[str, float]]:
        return [(txn_id, prepared.prepared_at)
                for txn_id, prepared in self._prepared.items()]

    def _watch_prepared(self) -> bool:
        """One round of the prepared-too-long loop: whoever has waited
        out the transaction timeout is suspicious, and the protocol
        acts on it (``_suspect`` says whether there was anything to
        do). Runs while anything is prepared or acted upon."""
        outstanding = False
        for prepared in list(self._prepared.values()):
            if self.sim.now - prepared.prepared_at < \
                    self.config.txn_timeout:
                outstanding = True  # not yet suspicious; keep watching
            elif self._suspect(prepared.request):
                outstanding = True
                self.system.recovery_messages += 1
        return outstanding

    # -- recovery ---------------------------------------------------------

    def recover(self) -> dict[str, Any]:
        """Rebuild the in-doubt participations from the log: re-lock
        their items (they stay unavailable until the decision is
        learned) and start acting at once — they are back-dated by the
        timeout. Returns a report mirroring DvP's for E5."""
        requests: dict[str, Any] = {}
        scanned = 0
        for envelope in self.log.scan():
            scanned += 1
            record = envelope.record
            if record[0] == "prepared":
                requests[record[1]] = self.prepare_type(*record[1:])
            elif record[0] in ("participant-commit", "participant-abort"):
                self._applied.add(record[1])
        in_doubt = [request for txn_id, request in requests.items()
                    if txn_id not in self._applied]
        for request in in_doubt:
            for op in request.ops:
                self.locks[op.item] = request.txn_id
            self._prepared[request.txn_id] = _Prepared(
                request, self.sim.now - self.config.txn_timeout)
        if in_doubt:
            self._watch_prepared()
            self._watcher.start()
        return {"site": self.name, "scanned": scanned,
                "in_doubt": len(in_doubt),
                "messages_needed": len(in_doubt)}


class CommitSystem(BaselineSystem):
    """Items homed whole at one site each, committed atomically."""

    def __init__(self, sites: list[str], seed: int = 0, link=None,
                 config=None) -> None:
        self.home: dict[str, str] = {}
        #: (site, txn, duration) of every lock hold that ended.
        self.lock_holds: list[tuple[str, str, float]] = []
        self.recovery_messages = 0
        super().__init__(sites, seed, link, config)

    def add_item(self, item: str, home: str, initial: Any) -> None:
        self.home[item] = home
        self._create(item, initial, [home])

    def value(self, item: str) -> Any:
        return self.sites[self.home[item]].store.get(item).value
