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
from typing import Any, NamedTuple

from repro.baselines.commit import (
    CommitSite,
    CommitSystem,
    DecisionMsg,
)
from repro.baselines.common import SimpleOp

# -- wire protocol ------------------------------------------------------------


class PrepareMsg(NamedTuple):
    """Coordinator -> participant; its fields are the participant's
    ``prepared`` log record."""

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
class DecisionRequest:
    txn_id: str
    participant: str


@dataclass
class _Tally:
    """The coordinator's count of one transaction's votes, then its
    decision and who has acknowledged it."""

    txn_id: str
    targets: set[str]
    votes: dict[str, bool] = field(default_factory=dict)
    decided: bool = False
    commit: bool = False
    acked: set[str] = field(default_factory=set)


class TwoPCSite(CommitSite):
    """One site: possible coordinator, possible participant."""

    tag = "2pc"
    watch = "inquiry"
    prepare_type = PrepareMsg
    handlers = {**CommitSite.handlers,
                PrepareMsg: "_on_prepare",
                VoteMsg: "_on_vote",
                DecisionRequest: "_on_decision_request"}

    # -- coordinator side -------------------------------------------------

    def _lead(self, txn_id: str, roster: tuple[str, ...]) -> _Tally:
        return _Tally(txn_id, set(roster))

    def _prepare_message(self, txn_id: str, roster: tuple[str, ...],
                         ops: tuple[SimpleOp, ...]) -> PrepareMsg:
        return PrepareMsg(txn_id, self.name, ops)

    def _on_vote(self, vote: VoteMsg) -> None:
        tally = self._led.get(vote.txn_id)
        if tally is None or tally.decided:
            return
        tally.votes[vote.participant] = vote.yes
        self._coordinations[vote.txn_id].read_values.update(
            dict(vote.read_values))
        if not vote.yes:
            self._decide(tally, commit=False, reason="vote-no")
        elif set(tally.votes) == tally.targets:
            self._decide(tally, commit=True, reason="ok")

    def _on_deadline(self, txn_id: str) -> None:
        tally = self._led.get(txn_id)
        if tally is not None and not tally.decided:
            self._decide(tally, commit=False, reason="timeout")

    def _on_decision_request(self, request: DecisionRequest) -> None:
        """Answer an in-doubt participant from the coordinator log."""
        tally = self._led.get(request.txn_id)
        if tally is not None and not tally.decided:
            return  # votes still arriving: no answer yet, the asker retries
        decision = self.log.last_matching(
            lambda record: record[0] == "coord-decision"
            and record[1] == request.txn_id)
        # No decision logged: the coordinator never decided before its
        # own failure — presumed abort.
        self.network.send(self.name, request.participant, DecisionMsg(
            request.txn_id, decision is not None and decision.record[2],
            self.name))

    # -- participant side -------------------------------------------------

    def _vote(self, request: PrepareMsg,
              reads: tuple[tuple[str, Any], ...] | None) -> None:
        self._route(request.coordinator, VoteMsg(
            request.txn_id, self.name, reads is not None, reads or ()))

    def _suspect(self, request: PrepareMsg) -> bool:
        """Prepared for longer than the transaction timeout (or just
        recovered in doubt): keep asking the coordinator. 2PC blocks
        only until the coordinator is reachable again (Gray & Lamport,
        *Consensus on Transaction Commit*) — but that long it does."""
        self.network.send(self.name, request.coordinator,
                          DecisionRequest(request.txn_id, self.name))
        return True


class TwoPCSystem(CommitSystem):
    """A traditional distributed database with 2PC commitment."""

    site_class = TwoPCSite
