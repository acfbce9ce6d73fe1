"""Traditional distributed transactions with two-phase commit.

Each item is stored whole at a *home* site. A transaction touching
items with several homes runs the textbook 2PC: the origin site
coordinates, participants prepare (lock + log + vote) and then obey the
coordinator's decision.

This baseline exists to exhibit exactly the failure mode the paper's
Section 2 is about: a participant that has voted YES and lost contact
with its coordinator holds its locks *indefinitely* — it cannot decide
unilaterally. The blocked-duration metrics below are the evidence
experiment E1 reports against DvP's bounded timeout aborts. Recovery of
a prepared participant is likewise *dependent*: it must reach the
coordinator before the in-doubt items become available (experiment E5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.common import (
    BaselineConfig,
    IdSource,
    PendingDone,
    SimpleOp,
    WholeStore,
    make_result,
    partition_ops,
)
from repro.core.transactions import (
    Outcome,
    TransactionSpec,
    TxnResult,
)
from repro.net.link import LinkConfig
from repro.net.message import Envelope
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.storage.log import StableLog

# -- wire protocol ------------------------------------------------------------


@dataclass(frozen=True)
class PrepareMsg:
    txn_id: str
    coordinator: str
    ops: tuple[SimpleOp, ...]


@dataclass(frozen=True)
class VoteMsg:
    txn_id: str
    participant: str
    yes: bool
    read_values: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class DecisionMsg:
    txn_id: str
    commit: bool


@dataclass(frozen=True)
class DecisionAck:
    txn_id: str
    participant: str


@dataclass(frozen=True)
class DecisionRequest:
    txn_id: str
    participant: str


# -- per-site state ----------------------------------------------------------


@dataclass
class _Coordination:
    txn_id: str
    label: str
    participants: set[str]
    ops_by_site: dict[str, tuple[SimpleOp, ...]]
    done: PendingDone
    submitted_at: float
    votes: dict[str, bool] = field(default_factory=dict)
    read_values: dict[str, Any] = field(default_factory=dict)
    decided: bool = False
    commit: bool = False
    acked: set[str] = field(default_factory=set)
    deltas: list[tuple[str, int, Any]] = field(default_factory=list)


@dataclass
class _Prepared:
    txn_id: str
    coordinator: str
    ops: tuple[SimpleOp, ...]
    prepared_at: float


class TwoPCSite:
    """One site: possible coordinator, possible participant."""

    def __init__(self, name: str, sim: Simulator, network: Network,
                 config: BaselineConfig, home: dict[str, str],
                 system: "TwoPCSystem") -> None:
        self.name = name
        self.sim = sim
        self.network = network
        self.config = config
        self.home = home
        self.system = system
        self.store = WholeStore()
        self.log = StableLog(name)
        self.alive = True
        self._ids = IdSource(name)
        self._coordinations: dict[str, _Coordination] = {}
        self._prepared: dict[str, _Prepared] = {}
        #: Transactions this participant has seen decided: a prepare
        #: that arrives after its own decision must not lock anything.
        self._applied: set[str] = set()
        self._timers: dict[str, Timer] = {}
        self._decision_pusher = PeriodicTimer(
            sim, config.retry_period, self._push_decisions,
            label=f"2pc-decisions:{name}")
        self._inquiry_pusher = PeriodicTimer(
            sim, config.retry_period, self._push_inquiries,
            label=f"2pc-inquiry:{name}")
        network.register(name, self.deliver)

    # -- client API -------------------------------------------------------

    def submit(self, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None) -> str:
        txn_id = self._ids.next()
        ops_by_site = partition_ops(spec, self.home)
        coordination = _Coordination(
            txn_id=txn_id, label=spec.label,
            participants=set(ops_by_site),
            ops_by_site=ops_by_site, done=PendingDone(on_done),
            submitted_at=self.sim.now)
        self._coordinations[txn_id] = coordination
        self.log.append(("coord-begin", txn_id, sorted(ops_by_site)))
        for participant, ops in ops_by_site.items():
            message = PrepareMsg(txn_id, self.name, ops)
            if participant == self.name:
                self._on_prepare(message)
            else:
                self.network.send(self.name, participant, message)
        timer = Timer(self.sim, lambda: self._coordinator_timeout(txn_id),
                      label=f"2pc-timeout:{txn_id}")
        timer.start(self.config.txn_timeout)
        self._timers[txn_id] = timer
        return txn_id

    # -- message dispatch -----------------------------------------------------

    def deliver(self, envelope: Envelope) -> None:
        if not self.alive:
            return
        payload = envelope.payload
        if isinstance(payload, PrepareMsg):
            self._on_prepare(payload)
        elif isinstance(payload, VoteMsg):
            self._on_vote(payload)
        elif isinstance(payload, DecisionMsg):
            self._on_decision(payload)
        elif isinstance(payload, DecisionAck):
            self._on_decision_ack(payload)
        elif isinstance(payload, DecisionRequest):
            self._on_decision_request(payload)

    # -- participant side -------------------------------------------------------

    def _on_prepare(self, message: PrepareMsg) -> None:
        if message.txn_id in self._prepared or \
                message.txn_id in self._applied:
            return  # duplicate, or overtaken by its own decision
        vote_yes = True
        reads: list[tuple[str, Any]] = []
        items = {op.item for op in message.ops}
        # Check locks and feasibility; all-or-nothing locking.
        for item in items:
            if self.store.get(item).locked_by is not None:
                vote_yes = False
        if vote_yes:
            shadow = {item: self.store.get(item).value for item in items}
            for op in message.ops:
                if op.kind == "dec":
                    if shadow[op.item] < op.amount:
                        vote_yes = False
                        break
                    shadow[op.item] -= op.amount
                elif op.kind == "inc":
                    shadow[op.item] += op.amount
                else:
                    reads.append((op.item, shadow[op.item]))
        if not vote_yes:
            self._send_vote(message, yes=False, reads=())
            return
        for item in items:
            self.store.get(item).locked_by = message.txn_id
        self.log.append(("prepared", message.txn_id, message.coordinator,
                         message.ops))
        self._prepared[message.txn_id] = _Prepared(
            message.txn_id, message.coordinator, message.ops, self.sim.now)
        self._inquiry_pusher.start()
        self._send_vote(message, yes=True, reads=tuple(reads))

    def _send_vote(self, message: PrepareMsg, yes: bool,
                   reads: tuple[tuple[str, Any], ...]) -> None:
        vote = VoteMsg(message.txn_id, self.name, yes, reads)
        if message.coordinator == self.name:
            self._on_vote(vote)
        else:
            self.network.send(self.name, message.coordinator, vote)

    def _on_decision(self, message: DecisionMsg) -> None:
        prepared = self._prepared.pop(message.txn_id, None)
        self._applied.add(message.txn_id)
        if prepared is not None:
            blocked_for = self.sim.now - prepared.prepared_at
            self.system.record_lock_hold(self.name, message.txn_id,
                                         blocked_for)
            if message.commit:
                for op in prepared.ops:
                    item = self.store.get(op.item)
                    if op.kind == "dec":
                        item.value -= op.amount
                    elif op.kind == "inc":
                        item.value += op.amount
                    item.version += 1
                self.log.append(("participant-commit", message.txn_id))
            else:
                self.log.append(("participant-abort", message.txn_id))
            for op in prepared.ops:
                item = self.store.get(op.item)
                if item.locked_by == message.txn_id:
                    item.locked_by = None
        coordinator = prepared.coordinator if prepared else None
        target = coordinator or self._coordinator_of(message.txn_id)
        if target is not None and target != self.name:
            self.network.send(self.name, target,
                              DecisionAck(message.txn_id, self.name))
        elif target == self.name:
            self._on_decision_ack(DecisionAck(message.txn_id, self.name))

    def _coordinator_of(self, txn_id: str) -> str | None:
        # txn ids embed the coordinator name ("W#3").
        return txn_id.split("#", 1)[0]

    # -- coordinator side ---------------------------------------------------------

    def _on_vote(self, vote: VoteMsg) -> None:
        coordination = self._coordinations.get(vote.txn_id)
        if coordination is None or coordination.decided:
            return
        coordination.votes[vote.participant] = vote.yes
        coordination.read_values.update(dict(vote.read_values))
        if not vote.yes:
            self._decide(coordination, commit=False, reason="vote-no")
        elif set(coordination.votes) == coordination.participants:
            self._decide(coordination, commit=True, reason="ok")

    def _coordinator_timeout(self, txn_id: str) -> None:
        coordination = self._coordinations.get(txn_id)
        if coordination is None or coordination.decided:
            return
        self._decide(coordination, commit=False, reason="timeout")

    def _decide(self, coordination: _Coordination, commit: bool,
                reason: str) -> None:
        coordination.decided = True
        coordination.commit = commit
        self.log.append(("coord-decision", coordination.txn_id, commit))
        timer = self._timers.pop(coordination.txn_id, None)
        if timer is not None:
            timer.cancel()
        if commit:
            for ops in coordination.ops_by_site.values():
                for op in ops:
                    if op.kind == "dec":
                        coordination.deltas.append((op.item, -1, op.amount))
                    elif op.kind == "inc":
                        coordination.deltas.append((op.item, +1, op.amount))
        self._broadcast_decision(coordination)
        self._decision_pusher.start()
        outcome = Outcome.COMMITTED if commit else Outcome.ABORTED
        coordination.done.fire(make_result(
            coordination.txn_id, coordination.label, outcome, reason,
            self.name, coordination.submitted_at, self.sim.now,
            deltas=coordination.deltas,
            read_values=coordination.read_values))
        self.system.record_result(coordination.done.collected[-1])

    def _broadcast_decision(self, coordination: _Coordination) -> None:
        message = DecisionMsg(coordination.txn_id, coordination.commit)
        for participant in coordination.participants:
            if participant in coordination.acked:
                continue
            if participant == self.name:
                self._on_decision(message)
            else:
                self.network.send(self.name, participant, message)

    def _on_decision_ack(self, ack: DecisionAck) -> None:
        coordination = self._coordinations.get(ack.txn_id)
        if coordination is None:
            return
        coordination.acked.add(ack.participant)

    def _push_decisions(self) -> None:
        """Retransmit decisions until every participant acknowledged."""
        outstanding = False
        for coordination in self._coordinations.values():
            if coordination.decided and \
                    coordination.acked < coordination.participants:
                outstanding = True
                self._broadcast_decision(coordination)
        if not outstanding:
            self._decision_pusher.stop()

    def _on_decision_request(self, request: DecisionRequest) -> None:
        """Answer an in-doubt participant from the coordinator log."""
        coordination = self._coordinations.get(request.txn_id)
        if coordination is not None and not coordination.decided:
            return  # votes still arriving: no answer yet, the asker retries
        for envelope in self.log.scan_backwards():
            record = envelope.record
            if isinstance(record, tuple) and record[0] == "coord-decision" \
                    and record[1] == request.txn_id:
                self.network.send(self.name, request.participant,
                                  DecisionMsg(request.txn_id, record[2]))
                return
        # No decision logged: the coordinator never decided before its
        # own failure — presumed abort.
        self.network.send(self.name, request.participant,
                          DecisionMsg(request.txn_id, False))

    def _push_inquiries(self) -> None:
        """A participant prepared for longer than the transaction
        timeout keeps asking its coordinator for the decision (2PC
        blocks only until the coordinator is reachable again — Gray &
        Lamport, *Consensus on Transaction Commit*)."""
        if not self._prepared:
            self._inquiry_pusher.stop()
            return
        for prepared in self._prepared.values():
            if self.sim.now - prepared.prepared_at < \
                    self.config.txn_timeout:
                continue  # not yet suspicious; keep watching
            self.system.recovery_messages += 1
            self.network.send(self.name, prepared.coordinator,
                              DecisionRequest(prepared.txn_id, self.name))

    # -- failure injection -----------------------------------------------------

    def crash(self) -> None:
        self.alive = False
        self._decision_pusher.stop()
        self._inquiry_pusher.stop()
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._coordinations.clear()
        self._prepared.clear()
        self._applied.clear()
        for item in self.store.items().values():
            item.locked_by = None

    def recover(self) -> dict[str, Any]:
        """2PC recovery is NOT independent: in-doubt transactions need
        the coordinator. Returns a report mirroring DvP's for E5."""
        self.alive = True
        decided: set[str] = set()
        prepared: dict[str, tuple[str, tuple[SimpleOp, ...], Any]] = {}
        scanned = 0
        for envelope in self.log.scan():
            scanned += 1
            record = envelope.record
            if record[0] == "prepared":
                prepared[record[1]] = (record[2], record[3], envelope.lsn)
            elif record[0] in ("participant-commit", "participant-abort"):
                decided.add(record[1])
        self._applied |= decided
        in_doubt = {txn_id: info for txn_id, info in prepared.items()
                    if txn_id not in decided}
        for txn_id, (coordinator, ops, _lsn) in in_doubt.items():
            # Re-lock the in-doubt items; they stay unavailable until
            # the coordinator answers. Back-dated by the timeout so the
            # inquiry loop asks at once.
            for op in ops:
                self.store.get(op.item).locked_by = txn_id
            self._prepared[txn_id] = _Prepared(
                txn_id, coordinator, ops,
                self.sim.now - self.config.txn_timeout)
        if in_doubt:
            self._push_inquiries()
            self._inquiry_pusher.start()
        return {"site": self.name, "scanned": scanned,
                "in_doubt": len(in_doubt),
                "messages_needed": len(in_doubt)}


class TwoPCSystem:
    """A traditional distributed database with 2PC commitment."""

    def __init__(self, sites: list[str], seed: int = 0,
                 link: LinkConfig | None = None,
                 config: BaselineConfig | None = None) -> None:
        self.sim = Simulator(seed)
        self.network = Network(self.sim, link or LinkConfig())
        self.config = config or BaselineConfig()
        self.home: dict[str, str] = {}
        self.results: list[TxnResult] = []
        self.lock_holds: list[tuple[str, str, float]] = []
        self.recovery_messages = 0
        self.sites = {name: TwoPCSite(name, self.sim, self.network,
                                      self.config, self.home, self)
                      for name in sites}

    def add_item(self, item: str, home: str, initial: Any) -> None:
        self.home[item] = home
        self.sites[home].store.create(item, initial)

    def submit(self, origin: str, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None = None) -> str:
        return self.sites[origin].submit(spec, on_done)

    def record_result(self, result: TxnResult) -> None:
        self.results.append(result)

    def record_lock_hold(self, site: str, txn_id: str,
                         duration: float) -> None:
        self.lock_holds.append((site, txn_id, duration))

    def currently_blocked(self) -> list[tuple[str, str, float]]:
        """Prepared participants still awaiting a decision (site,
        txn, how long so far) — the unbounded tail E1 exposes."""
        blocked = []
        for site in self.sites.values():
            for prepared in site._prepared.values():
                blocked.append((site.name, prepared.txn_id,
                                self.sim.now - prepared.prepared_at))
        return blocked

    def total_value(self, items: list[str] | None = None) -> Any:
        names = items if items is not None else list(self.home)
        return sum(self.sites[self.home[item]].store.get(item).value
                   for item in names)

    def run_for(self, duration: float) -> None:
        self.sim.run_until(self.sim.now + duration)

    def crash(self, site: str) -> None:
        self.sites[site].crash()

    def recover(self, site: str) -> dict[str, Any]:
        return self.sites[site].recover()
