"""Tests for the Paxos Commit baseline — especially decision
reachability through coordinator failure and acceptor partitions,
which is exactly where it must differ from 2PC."""

import pytest

from repro.baselines.common import BaselineConfig, UnknownItem
from repro.baselines.paxoscommit import PaxosCommitSystem
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
)
from repro.net.link import LinkConfig


def build(sites=("A", "B", "C", "D", "E"), timeout=8.0, retry=2.0,
          seed=5, acceptors=None):
    system = PaxosCommitSystem(
        list(sites), seed=seed, link=LinkConfig(base_delay=1.0,
                                                jitter=0.0),
        config=BaselineConfig(txn_timeout=timeout, retry_period=retry),
        acceptors=acceptors)
    for site in sites:
        system.add_item(f"acct_{site}", site, 100)
    return system


def run_one(system, origin, spec, duration=60.0):
    results = []
    system.submit(origin, spec, results.append)
    system.run_for(duration)
    assert results
    return results[0]


class TestCommitPaths:
    def test_local_transaction_commits(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("acct_A", 5),)))
        assert result.committed
        assert system.sites["A"].store.get("acct_A").value == 95

    def test_cross_site_transfer_commits(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(TransferOp("acct_A", "acct_B", 10),)))
        assert result.committed
        assert system.sites["A"].store.get("acct_A").value == 90
        assert system.sites["B"].store.get("acct_B").value == 110
        assert system.total_value() == 500

    def test_insufficient_funds_vote_no(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(TransferOp("acct_A", "acct_B", 500),)))
        assert not result.committed
        assert result.reason == "vote-no"
        assert system.total_value() == 500
        assert "acct_A" not in system.sites["A"].locks
        assert "acct_B" not in system.sites["B"].locks

    def test_read_op(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(ReadFullOp("acct_B"),)))
        assert result.committed
        assert result.read_values["acct_B"] == 100

    def test_unknown_item_refused_synchronously(self):
        system = build()
        with pytest.raises(UnknownItem):
            system.submit("A", TransactionSpec(
                ops=(DecrementOp("nope", 1),)), None)

    def test_default_acceptor_set_is_bounded(self):
        small = PaxosCommitSystem(["A", "B", "C"], seed=1)
        assert small.acceptors == ["A", "B", "C"]
        big = PaxosCommitSystem([f"S{i}" for i in range(20)], seed=1)
        assert len(big.acceptors) == 5
        assert big.majority == 3

    def test_acceptors_must_be_sites(self):
        with pytest.raises(ValueError):
            PaxosCommitSystem(["A", "B", "C"], acceptors=["A", "Z"])


class TestCoordinatorFailure:
    def _prepare_then_crash(self, system):
        """Submit a transfer at A, crash A once B is prepared but the
        decision has not yet been driven."""
        results = []
        system.submit("A", TransactionSpec(
            ops=(TransferOp("acct_A", "acct_B", 10),)), results.append)
        # t=0: A prepares locally + sends Begin; t=1: B prepared and
        # votes; crash A before its leader state sees any phase-2b.
        system.sim.at(1.5, lambda: system.crash("A"))
        return results

    def test_participants_decide_through_coordinator_crash(self):
        """The anti-2PC property: B learns the outcome and releases its
        lock while the coordinator is still down."""
        system = build()
        self._prepare_then_crash(system)
        system.run_for(60.0)
        assert not system.sites["A"].alive
        assert system.blocked() == []
        assert "acct_B" not in system.sites["B"].locks
        outcomes = [record.record for record in
                    system.sites["B"].log.scan()
                    if record.record[0].startswith("participant-")]
        assert len(outcomes) == 1

    def test_crashed_coordinator_relearns_outcome_on_recovery(self):
        system = build()
        self._prepare_then_crash(system)
        system.run_for(60.0)
        b_value = system.sites["B"].store.get("acct_B").value
        system.recover("A")
        system.run_for(60.0)
        assert system.blocked() == []
        # Whatever B decided, A applied the same half of the transfer.
        if b_value == 110:
            assert system.sites["A"].store.get("acct_A").value == 90
        else:
            assert system.sites["A"].store.get("acct_A").value == 100
        assert system.total_value() == 500

    def test_recovery_survives_retry_below_round_trip(self):
        """Regression: with retry_period at or below the network round
        trip, the takeover pusher used to escalate the ballot at the
        instant the previous round's promises arrived, so every
        phase-1b failed the current-ballot check and recovery
        livelocked forever."""
        system = build(retry=1.0)  # round trip is 2.0
        self._prepare_then_crash(system)
        system.run_for(60.0)
        assert system.blocked() == []
        assert "acct_B" not in system.sites["B"].locks

    def test_agreement_across_all_logs(self):
        system = build()
        self._prepare_then_crash(system)
        system.run_for(60.0)
        system.recover("A")
        system.run_for(60.0)
        per_txn = {}
        for site in system.sites.values():
            for envelope in site.log.scan():
                record = envelope.record
                if record[0] == "participant-commit":
                    per_txn.setdefault(record[1], set()).add(True)
                elif record[0] == "participant-abort":
                    per_txn.setdefault(record[1], set()).add(False)
        assert all(len(verdicts) == 1 for verdicts in per_txn.values())


class TestAcceptorPartitions:
    def test_majority_side_decides_during_partition(self):
        system = build()
        # Split off A+B; acceptors C, D, E stay together with the
        # participants' homes C/D.
        system.sim.at(0.5, lambda: system.network.partition(
            [["A", "B"]]))
        results = []
        system.sim.at(1.0, lambda: system.submit(
            "C", TransactionSpec(ops=(TransferOp("acct_C", "acct_D",
                                                 5),)), results.append))
        system.run_for(40.0)
        assert results and results[0].committed
        assert system.blocked() == []

    def test_minority_side_blocks_until_heal(self):
        system = build()
        system.sim.at(0.5, lambda: system.network.partition(
            [["A", "B"]]))
        results = []
        system.sim.at(1.0, lambda: system.submit(
            "A", TransactionSpec(ops=(TransferOp("acct_A", "acct_B",
                                                 5),)), results.append))
        system.run_for(40.0)
        # Two acceptors reachable < majority of 3: no decision yet --
        # and crucially no unilateral client abort either.
        assert not results
        system.network.heal()
        system.run_for(60.0)
        assert results  # consensus resolved it after the heal
        assert system.blocked() == []
        assert system.total_value() == 500

    def test_losing_f_acceptors_is_harmless(self):
        system = build()
        system.sim.at(0.5, lambda: system.crash("D"))
        system.sim.at(0.5, lambda: system.crash("E"))
        result = run_one(system, "A", TransactionSpec(
            ops=(TransferOp("acct_A", "acct_B", 5),)))
        assert result.committed
        assert system.total_value(["acct_A", "acct_B", "acct_C"]) == 300


class TestReplayDeterminism:
    def _run(self, seed):
        system = build(seed=seed)
        system.sim.enable_trace()
        outcomes = []
        for origin, src, dst in (("A", "acct_A", "acct_B"),
                                 ("B", "acct_B", "acct_C"),
                                 ("C", "acct_C", "acct_A")):
            system.sim.at(1.0, lambda o=origin, s=src, d=dst:
                          system.submit(o, TransactionSpec(
                              ops=(TransferOp(s, d, 3),)),
                              lambda r: outcomes.append(
                                  (r.txn_id, r.outcome.name))))
        system.sim.at(5.0, lambda: system.crash("B"))
        system.sim.at(20.0, lambda: system.recover("B"))
        system.run_for(90.0)
        return outcomes, system.sim.trace_fingerprint(), \
            system.total_value()

    def test_identical_seeds_identical_runs(self):
        first = self._run(17)
        second = self._run(17)
        assert first == second

    def test_different_seeds_may_differ_but_conserve(self):
        outcomes, _fp, total = self._run(23)
        assert total == 500
