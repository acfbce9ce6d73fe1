"""Paxos Commit (Gray & Lamport, *Consensus on Transaction Commit*).

Two-phase commit blocks: a participant that voted YES and lost its
coordinator holds locks until that one process returns. Paxos Commit
removes the single point of failure by running one Paxos consensus
instance per participant's prepared/aborted *vote*, with 2F+1 acceptors
shared across instances. The transaction commits iff every instance
chooses "prepared"; the decision is reachable whenever any leader can
talk to a majority of acceptors — the coordinator is just the initial
leader, not a dependency.

Mapping onto the paper's protocol:

* The origin site is the ballot-0 leader. It sends each participant
  its ops; a participant votes by sending its phase-2a ballot-0 message
  ("prepared" or "aborted") straight to the acceptors — the paper's
  co-location optimization that makes the happy path the same message
  depth as 2PC plus the acceptor round.
* Acceptors log promises and accepted values; phase-2b messages go to
  the ballot's leader, which decides an instance once a majority of
  acceptors accepted the same (ballot, value).
* Leader election on coordinator timeout is participant takeover: a
  prepared participant that has heard no decision within the
  transaction timeout runs phase 1 at a ballot only it can use
  (``round * n_sites + rank``), adopts the highest accepted value a
  majority reports (free choice = "aborted"), and drives phase 2.
  Concurrent leaders are safe — that is Paxos — and each keeps
  escalating its ballot every retry period until a decision lands, so
  progress resumes as soon as a majority of acceptors is reachable.
* Recovery is *independent* in the sense 2PC's is not: a recovered
  in-doubt participant re-learns the outcome from the acceptors (who
  logged their accepts), never from one distinguished coordinator.

Built on the shared baseline substrate — the participant, the origin
and the decision announcement are the very code 2PC runs
(:mod:`repro.baselines.commit`); what is here is how a decision is
*reached*: acceptors, ballots, leaders and takeover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.baselines.commit import CommitSite, CommitSystem, DecisionMsg
from repro.baselines.common import BaselineConfig, SimpleOp
from repro.net.link import LinkConfig

PREPARED = "prepared"
ABORTED = "aborted"

# -- wire protocol ------------------------------------------------------------


class BeginMsg(NamedTuple):
    """Ballot-0 leader -> participant: your ops and the full roster.
    Its fields are the participant's ``prepared`` log record."""

    txn_id: str
    coordinator: str
    participants: tuple[str, ...]
    ops: tuple[SimpleOp, ...]


@dataclass(frozen=True)
class Phase1a:
    """Recovery leader -> acceptor: promise me ballot ``ballot``."""

    txn_id: str
    participant: str
    ballot: int
    leader: str
    participants: tuple[str, ...]


@dataclass(frozen=True)
class Phase1b:
    """Acceptor -> leader: promised; here is what I last accepted."""

    txn_id: str
    participant: str
    ballot: int
    acceptor: str
    accepted_ballot: int = -1
    accepted_value: str = ""


@dataclass(frozen=True)
class Phase2a:
    """Leader (or the participant itself at ballot 0) -> acceptor."""

    txn_id: str
    participant: str
    ballot: int
    value: str  # PREPARED | ABORTED
    leader: str
    participants: tuple[str, ...]
    reads: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class Phase2b:
    """Acceptor -> the ballot's leader: accepted (ballot, value)."""

    txn_id: str
    participant: str
    ballot: int
    value: str
    acceptor: str
    participants: tuple[str, ...]
    reads: tuple[tuple[str, Any], ...] = ()


# -- per-site state ----------------------------------------------------------


@dataclass
class _AcceptorSlot:
    """One acceptor's state for one (txn, participant) instance."""

    promised: int = -1
    accepted_ballot: int = -1
    accepted_value: str = ""


@dataclass
class _Lead:
    """Leader-side Paxos bookkeeping for one transaction.

    The origin holds one from submission (ballot 0); any participant
    that takes over after a timeout creates its own. ``support`` counts
    phase-2b acceptors per (instance, ballot, value); ``promises``
    collects phase-1b replies per (instance, ballot).
    """

    txn_id: str
    roster: tuple[str, ...]
    rounds: int = 0
    ballot: int = 0
    chosen: dict[str, str] = field(default_factory=dict)
    support: dict[tuple[str, int, str], set[str]] = \
        field(default_factory=dict)
    promises: dict[tuple[str, int], dict[str, tuple[int, str]]] = \
        field(default_factory=dict)
    proposed: set[tuple[str, int]] = field(default_factory=set)
    round_started_at: float = 0.0
    decided: bool = False
    commit: bool = False
    acked: set[str] = field(default_factory=set)

    @property
    def targets(self) -> set[str]:
        """Who must learn the decision: the roster and the origin
        (txn ids embed it: "W#3")."""
        return {*self.roster, self.txn_id.split("#", 1)[0]}


class PaxosCommitSite(CommitSite):
    """One site: client leader, participant, and (maybe) acceptor."""

    tag = "paxos"
    watch = "takeover"
    prepare_type = BeginMsg
    handlers = {**CommitSite.handlers,
                BeginMsg: "_on_prepare",
                Phase1a: "_on_phase1a",
                Phase1b: "_on_phase1b",
                Phase2a: "_on_phase2a",
                Phase2b: "_on_phase2b"}

    def __init__(self, name: str, system: "PaxosCommitSystem",
                 crashed: "PaxosCommitSite | None" = None) -> None:
        super().__init__(name, system, crashed)
        self._acc: dict[tuple[str, str], _AcceptorSlot] = {}

    # -- origin -----------------------------------------------------------

    def _lead(self, txn_id: str, roster: tuple[str, ...]) -> _Lead:
        return _Lead(txn_id, roster)

    def _prepare_message(self, txn_id: str, roster: tuple[str, ...],
                         ops: tuple[SimpleOp, ...]) -> BeginMsg:
        return BeginMsg(txn_id, self.name, roster, ops)

    def _on_deadline(self, txn_id: str) -> None:
        """The origin cannot presume abort unilaterally (an instance
        may already have chosen "prepared"); it *proposes* abort by
        running recovery rounds until the consensus decides."""
        lead = self._led.get(txn_id)
        if lead is None or lead.decided:
            return
        self._takeover(lead)
        self._watcher.start()

    # -- participant side -------------------------------------------------

    def _vote(self, request: BeginMsg,
              reads: tuple[tuple[str, Any], ...] | None) -> None:
        # The vote is the instance's ballot-0 phase-2a, sent straight
        # to every acceptor (paper §4's co-location optimization).
        self._to_acceptors(Phase2a(
            request.txn_id, self.name, 0,
            PREPARED if reads is not None else ABORTED,
            request.coordinator, request.participants, reads or ()))

    def _to_acceptors(self, message: Any) -> None:
        for acceptor in self.system.acceptors:
            self._route(acceptor, message)

    def _on_decision(self, message: DecisionMsg) -> None:
        super()._on_decision(message)
        # The origin's client callback rides on its own leader state.
        self._learn_decision(message.txn_id, message.commit)

    def _suspect(self, request: BeginMsg) -> bool:
        """Leader election on coordinator timeout: a participant that
        has waited out the transaction timeout starts (or escalates)
        its own recovery rounds, until somebody has decided."""
        lead = self._led.setdefault(
            request.txn_id, _Lead(request.txn_id, request.participants))
        if lead.decided:
            return False
        self._takeover(lead)
        return True

    def _watch_prepared(self) -> bool:
        outstanding = super()._watch_prepared()
        for lead in self._led.values():
            # The origin proposing abort after its client timeout also
            # keeps escalating until the consensus answers.
            if not lead.decided and lead.rounds > 0 and \
                    lead.txn_id not in self._prepared:
                outstanding = True
                self._takeover(lead)
        return outstanding

    # -- leader side ------------------------------------------------------

    def _ballot(self, rounds: int) -> int:
        """Ballots unique to this site: round * n + rank (ballot 0 is
        reserved for the participants' own votes)."""
        names = self.system.site_names
        return rounds * len(names) + names.index(self.name) + 1

    def _takeover(self, lead: _Lead) -> None:
        if lead.decided:
            return
        if lead.rounds > 0 and (self.sim.now - lead.round_started_at
                                <= self.config.retry_period):
            # The previous round has not had a full retry period to
            # come back yet. Escalating here would raise the ballot at
            # the very instant the old round's phase-1b replies land,
            # so they would all fail the current-ballot check — with a
            # retry period at or below the network round trip that
            # repeats every round and the recovery livelocks.
            return
        lead.rounds += 1
        lead.round_started_at = self.sim.now
        lead.ballot = self._ballot(lead.rounds)
        for participant in lead.roster:
            if participant not in lead.chosen:
                self._to_acceptors(Phase1a(
                    lead.txn_id, participant, lead.ballot, self.name,
                    lead.roster))

    def _on_phase1b(self, message: Phase1b) -> None:
        lead = self._led.get(message.txn_id)
        if lead is None or lead.decided or message.ballot != lead.ballot:
            return
        key = (message.participant, message.ballot)
        replies = lead.promises.setdefault(key, {})
        replies[message.acceptor] = (message.accepted_ballot,
                                     message.accepted_value)
        if len(replies) < self.system.majority or key in lead.proposed:
            return
        lead.proposed.add(key)
        # Classic Paxos choice rule: adopt the value of the highest
        # accepted ballot; free choice (no acceptor accepted anything
        # for this instance) means the participant never voted — the
        # paper's rule is to choose "aborted".
        accepted_ballot, accepted_value = max(replies.values())
        self._to_acceptors(Phase2a(
            lead.txn_id, message.participant, lead.ballot,
            accepted_value if accepted_ballot >= 0 else ABORTED,
            self.name, lead.roster))

    def _on_phase2b(self, message: Phase2b) -> None:
        lead = self._led.get(message.txn_id)
        if lead is None:
            return
        if not lead.roster:
            lead.roster = message.participants
        coordination = self._coordinations.get(message.txn_id)
        if coordination is not None:
            coordination.read_values.update(dict(message.reads))
        if lead.decided:
            return
        key = (message.participant, message.ballot, message.value)
        backers = lead.support.setdefault(key, set())
        backers.add(message.acceptor)
        if len(backers) < self.system.majority:
            return
        lead.chosen.setdefault(message.participant, message.value)
        if set(lead.chosen) == set(lead.roster):
            commit = all(value == PREPARED
                         for value in lead.chosen.values())
            self._decide(lead, commit, "ok" if commit else "vote-no")

    def _learn_decision(self, txn_id: str, commit: bool) -> None:
        """Somebody decided (maybe another leader): stop leading, and
        if the transaction is ours answer the client."""
        lead = self._led.get(txn_id)
        if lead is not None and not lead.decided:
            lead.decided = True
            lead.commit = commit
        self._resolve(txn_id, commit, "ok" if commit else "vote-no")

    # -- acceptor side ----------------------------------------------------

    def _slot(self, txn_id: str, participant: str) -> _AcceptorSlot:
        return self._acc.setdefault((txn_id, participant), _AcceptorSlot())

    def _on_phase1a(self, message: Phase1a) -> None:
        slot = self._slot(message.txn_id, message.participant)
        if message.ballot <= slot.promised:
            return
        slot.promised = message.ballot
        self.log.append(("paxos-promise", message.txn_id,
                         message.participant, message.ballot))
        self._route(message.leader, Phase1b(
            message.txn_id, message.participant, message.ballot,
            self.name, slot.accepted_ballot, slot.accepted_value))

    def _on_phase2a(self, message: Phase2a) -> None:
        slot = self._slot(message.txn_id, message.participant)
        if message.ballot < slot.promised:
            return
        slot.promised = message.ballot
        slot.accepted_ballot = message.ballot
        slot.accepted_value = message.value
        self.log.append(("paxos-accept", message.txn_id,
                         message.participant, message.ballot,
                         message.value))
        self._route(message.leader, Phase2b(
            message.txn_id, message.participant, message.ballot,
            message.value, self.name, message.participants,
            message.reads))

    # -- recovery ---------------------------------------------------------

    def recover(self) -> dict[str, Any]:
        """Rebuild acceptor state from the log, then the in-doubt
        participations. Unlike 2PC, an in-doubt participant does not
        depend on one coordinator: its takeover rounds re-learn the
        outcome from any majority of acceptors."""
        for envelope in self.log.scan():
            record = envelope.record
            if record[0] in ("paxos-promise", "paxos-accept"):
                slot = self._slot(record[1], record[2])
                slot.promised = max(slot.promised, record[3])
                if record[0] == "paxos-accept" and \
                        record[3] >= slot.accepted_ballot:
                    slot.accepted_ballot = record[3]
                    slot.accepted_value = record[4]
        return super().recover()


class PaxosCommitSystem(CommitSystem):
    """A distributed database committing through Paxos Commit."""

    site_class = PaxosCommitSite

    def __init__(self, sites: list[str], seed: int = 0,
                 link: LinkConfig | None = None,
                 config: BaselineConfig | None = None,
                 acceptors: list[str] | None = None) -> None:
        self.site_names = list(sites)
        if acceptors is None:
            # 2F+1 acceptors; F capped at 2 so the acceptor round does
            # not scale with the site count (the paper recommends a
            # small fixed acceptor set — F failures tolerated).
            f = min((len(sites) - 1) // 2, 2)
            acceptors = list(sites[:2 * f + 1])
        unknown = set(acceptors) - set(sites)
        if unknown:
            raise ValueError(f"acceptors {sorted(unknown)} are not sites")
        self.acceptors = list(acceptors)
        self.majority = len(self.acceptors) // 2 + 1
        super().__init__(sites, seed, link, config)
