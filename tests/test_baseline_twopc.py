"""Tests for the two-phase-commit baseline — especially its blocking
and dependent-recovery behaviours, which are the foil for E1/E5."""

from repro.baselines.common import BaselineConfig
from repro.baselines.twopc import PrepareMsg, SimpleOp, TwoPCSystem
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
)
from repro.net.link import LinkConfig


def build(sites=("A", "B", "C"), timeout=10.0, retry=2.0):
    system = TwoPCSystem(list(sites), seed=5,
                         link=LinkConfig(base_delay=1.0),
                         config=BaselineConfig(txn_timeout=timeout,
                                               retry_period=retry))
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

    def test_conservation_across_transfers(self):
        system = build()
        for pair in (("A", "B"), ("B", "C"), ("C", "A")):
            run_one(system, pair[0], TransactionSpec(
                ops=(TransferOp(f"acct_{pair[0]}", f"acct_{pair[1]}",
                                7),)))
        assert system.total_value() == 300

    def test_insufficient_funds_vote_no(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(TransferOp("acct_A", "acct_B", 500),)))
        assert not result.committed
        assert result.reason == "vote-no"
        # Nothing moved, no locks leaked.
        assert system.total_value() == 300
        assert "acct_A" not in system.sites["A"].locks

    def test_busy_participant_votes_no(self):
        system = build()
        system.sites["B"].locks["acct_B"] = "ghost"
        result = run_one(system, "A", TransactionSpec(
            ops=(TransferOp("acct_A", "acct_B", 5),)))
        assert not result.committed

    def test_read_op(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(ReadFullOp("acct_B"),)))
        assert result.committed
        assert result.read_values["acct_B"] == 100

    def test_increment_op(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(IncrementOp("acct_B", 5),)))
        assert result.committed
        assert system.sites["B"].store.get("acct_B").value == 105


class TestBlocking:
    def prepare_and_cut(self):
        """Set up a participant prepared on the wrong side of a cut."""
        system = build()
        results = []
        system.submit("A", TransactionSpec(
            ops=(TransferOp("acct_A", "acct_B", 10),)), results.append)
        system.run_for(1.2)  # prepare delivered at B, vote in flight
        system.network.partition([["A", "C"], ["B"]])
        return system, results

    def test_prepared_participant_blocks(self):
        system, results = self.prepare_and_cut()
        system.run_for(100.0)
        blocked = system.blocked()
        assert blocked
        site, txn_id, age = blocked[0]
        assert site == "B"
        assert age > 90.0
        # The in-doubt item is untouchable.
        assert system.sites["B"].locks.get("acct_B") == txn_id

    def test_coordinator_client_still_decides(self):
        system, results = self.prepare_and_cut()
        system.run_for(100.0)
        assert results
        assert results[0].reason == "timeout"

    def test_heal_unblocks_with_retransmitted_decision(self):
        system, _results = self.prepare_and_cut()
        system.run_for(100.0)
        system.network.heal()
        system.run_for(30.0)
        assert system.blocked() == []
        holds = [duration for site, _txn, duration in system.lock_holds
                 if site == "B"]
        assert holds and max(holds) > 90.0


class TestRecovery:
    def test_in_doubt_items_relocked_on_recovery(self):
        system = build()
        system.submit("A", TransactionSpec(
            ops=(TransferOp("acct_A", "acct_B", 10),)))
        system.run_for(1.2)
        system.crash("B")
        system.run_for(30.0)
        report = system.recover("B")
        assert report["in_doubt"] == 1
        assert report["messages_needed"] >= 1
        assert "acct_B" in system.sites["B"].locks

    def test_recovery_resolves_via_coordinator(self):
        system = build()
        system.submit("A", TransactionSpec(
            ops=(TransferOp("acct_A", "acct_B", 10),)))
        system.run_for(1.2)
        system.crash("B")
        system.run_for(30.0)
        system.recover("B")
        system.run_for(30.0)
        assert system.blocked() == []

    def test_presumed_abort_for_undecided_coordinator(self):
        system = build()
        # A decision request for an unknown txn gets "abort".
        from repro.baselines.twopc import DecisionRequest
        site_a = system.sites["A"]
        received = []
        system.network.replace_handler("B", received.append)
        site_a._on_decision_request(DecisionRequest("A#999", "B"))
        system.run_for(5.0)
        assert received
        assert received[0].payload.commit is False


class TestParticipantRegressions:
    """The three bugs 2PC's hand-copied participant had bred; each of
    these fails on the code before the fix."""

    def build(self, retry=2.0):
        system = TwoPCSystem(["A", "B", "C"], seed=5,
                             link=LinkConfig(base_delay=1.0),
                             config=BaselineConfig(txn_timeout=10.0,
                                                   retry_period=retry))
        system.add_item("a", "A", 0)
        system.add_item("b", "B", 10)
        system.add_item("c", "C", 10)
        return system

    def test_prepare_overtaken_by_its_own_abort_locks_nothing(self):
        """The coordinator's own NO vote broadcasts the abort before
        the submit loop has sent the other participant its prepare:
        the decision arrives first, and the late prepare must not
        lock the item for a transaction that is already over. (The
        retry period is longer than the round trip, so no retransmitted
        decision papers over it: the ack for the unknown decision is
        back before the first push.)"""
        system = self.build(retry=5.0)
        result = run_one(system, "A", TransactionSpec(
            ops=(TransferOp("a", "b", 5),)))
        assert not result.committed
        assert system.blocked() == []
        assert "b" not in system.sites["B"].locks
        follow_up = run_one(system, "B", TransactionSpec(
            ops=(TransferOp("b", "c", 5),)))
        assert follow_up.committed

    def test_decided_set_is_rebuilt_on_recovery(self):
        system = self.build()
        run_one(system, "B", TransactionSpec(
            ops=(TransferOp("b", "c", 5),)))
        system.crash("C")
        system.recover("C")
        site_c = system.sites["C"]
        log_length = len(site_c.log)
        site_c._on_prepare(PrepareMsg(
            "B#1", "B", (SimpleOp("inc", "c", 5),)))
        assert len(site_c.log) == log_length
        assert "c" not in site_c.locks

    def test_live_participant_asks_a_repaired_coordinator(self):
        """The coordinator crashes after logging its decision and
        before the participant hears it. Nothing the participant does
        may depend on its *own* crash: having waited out the timeout
        it asks, and a retry period after the coordinator is back the
        transfer is whole again."""
        system = self.build()
        results = []
        system.submit("B", TransactionSpec(
            ops=(TransferOp("b", "c", 5),)), results.append)
        system.run_for(1.5)  # C prepared at t=1, its vote in flight
        system.network.link("B", "C").fail()
        system.run_for(1.0)  # the vote landed at t=2: decided, logged
        assert results and results[0].committed
        assert ("coord-decision", "B#1", True) in [
            envelope.record for envelope in system.sites["B"].log.scan()]
        system.crash("B")    # ...and the decision to C was lost
        system.network.link("B", "C").restore()
        system.run_for(40.0)
        assert [site for site, _txn, _age in system.blocked()] \
            == ["C"]
        system.recover("B")
        system.run_for(system.config.retry_period + 2.5)
        assert system.blocked() == []
        assert system.total_value() == 20

    def test_undecided_coordinator_gives_no_answer(self):
        """A recovered participant asks while the last vote is still in
        flight. "Abort" would be a lie the coordinator then contradicts
        by committing; it says nothing and the asker retries."""
        system = self.build()
        system.network.configure_link("C", "A", LinkConfig(base_delay=6.0))
        results = []
        system.submit("A", TransactionSpec(
            ops=(TransferOp("b", "c", 5),)), results.append)
        system.sim.at(2.5, lambda: (system.crash("B"),
                                    system.recover("B")))
        system.run_for(60.0)
        assert results and results[0].committed
        assert system.total_value() == 20
        assert ("participant-commit", "A#1") in [
            envelope.record for envelope in system.sites["B"].log.scan()]
        assert system.blocked() == []
