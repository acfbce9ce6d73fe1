"""Unit and scenario tests for crash + independent recovery."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.recovery import recover_site
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
)
from repro.net.link import LinkConfig
from repro.storage.records import SetFragment, VmCreateRecord


def build(**kwargs):
    kwargs.setdefault("sites", ["A", "B", "C"])
    kwargs.setdefault("txn_timeout", 10.0)
    kwargs.setdefault("retransmit_period", 2.0)
    kwargs.setdefault("link", LinkConfig(base_delay=1.0))
    system = DvPSystem(SystemConfig(seed=6, **kwargs))
    system.add_item("x", CounterDomain(), total=90)
    return system


class TestCrash:
    def test_crash_clears_volatile_state(self):
        system = build()
        site = system.sites["A"]
        site.locks.try_acquire_all("t", {"x"})
        site.fragments.stamp("x", 7)
        site.clock.next()
        system.crash("A")
        assert not site.alive
        assert site.locks.is_free("x")
        system.recover("A")
        recovered = system.sites["A"]
        assert recovered is not site
        assert recovered.locks.is_free("x")
        # Nothing stamped reached the log: recovery finds no stamp.
        assert recovered.clock.counter == 0
        assert recovered.fragments.timestamp("x") == 0

    def test_crash_preserves_stable_state(self):
        system = build()
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 5),)),
                      results.append)
        system.run_for(1.0)
        system.crash("A")
        site = system.sites["A"]
        assert site.pages.read("x") == 25
        assert len(site.log) > 0

    def test_crash_kills_active_transactions_silently(self):
        system = build()
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 80),)),
                      results.append)
        system.run_for(0.5)
        system.crash("A")
        system.run_for(100.0)
        assert results == []  # the client never hears anything

    def test_crash_idempotent(self):
        system = build()
        system.crash("A")
        system.crash("A")
        assert system.sites["A"].crash_count == 1


class TestRecovery:
    def test_recovery_restores_committed_values(self):
        system = build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 12),)))
        system.run_for(1.0)
        system.crash("A")
        sent = system.network.total_sent
        system.recover("A")
        assert system.sites["A"].fragments.value("x") == 18
        assert system.network.total_sent == sent

    def test_redo_is_idempotent_via_page_lsn(self):
        system = build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 12),)))
        system.run_for(1.0)
        system.crash("A")
        report = system.recover("A")
        # Pages were written before the crash; redo must skip them.
        assert report.redo_applied == 0
        assert report.redo_skipped > 0

    def test_committed_but_unapplied_action_redone(self):
        # Simulate a crash BETWEEN the log force and the page write:
        # append a commit record manually, crash, recover.
        system = build()
        site = system.sites["A"]
        ts = site.clock.next()
        site.log.append(VmCreateRecord("manual",
                                       (SetFragment("x", 3, ts=ts),)))
        system.crash("A")
        report = system.recover("A")
        assert report.redo_applied == 1
        assert site.fragments.value("x") == 3

    def test_fragment_timestamps_rebuilt_from_log(self):
        system = build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 1),)))
        system.run_for(1.0)
        stamp_before = system.sites["A"].fragments.timestamp("x")
        assert stamp_before > 0
        system.crash("A")
        system.recover("A")
        assert system.sites["A"].fragments.timestamp("x") == stamp_before

    def test_clock_bumped_past_logged_timestamps(self):
        system = build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 1),)))
        system.run_for(1.0)
        system.crash("A")
        system.recover("A")
        site = system.sites["A"]
        assert site.clock.next() > site.fragments.timestamp("x")

    def test_outgoing_vm_rebuilt_and_redelivered(self):
        system = build()
        # B honors a request from A, creating a Vm, then crashes before
        # the transfer can possibly be ACKed.
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)),
                      results.append)
        system.run_for(1.6)  # request honored at B; Vm in flight
        outstanding = [name for name in ("B", "C")
                       if system.sites[name].vm.unacked_count()]
        if not outstanding:
            pytest.skip("timing produced no in-flight Vm")
        victim = outstanding[0]
        system.crash(victim)
        report = system.recover(victim)
        assert report.vm_rebuilt >= 1
        system.run_for(300.0)
        system.auditor.assert_ok()

    def test_incoming_dedup_state_rebuilt(self):
        system = build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 50),)))
        system.run_for(60.0)
        accepted_before = {
            src: channel.cumulative_accepted
            for src, channel in system.sites["A"].vm.incoming.items()}
        if not any(accepted_before.values()):
            pytest.skip("no Vm was accepted at A")
        system.crash("A")
        system.recover("A")
        for src, value in accepted_before.items():
            assert system.sites["A"].vm.incoming[src] \
                .cumulative_accepted == value
        # No double absorption on retransmissions.
        system.run_for(300.0)
        system.auditor.assert_ok()

    def test_recovery_uses_checkpoint(self):
        system = build(checkpoint_interval=2)
        for _ in range(6):
            system.submit("A", TransactionSpec(
                ops=(IncrementOp("x", 1),)))
            system.run_for(1.0)
        system.crash("A")
        report = system.recover("A")
        assert report.from_checkpoint
        assert report.scanned_records < len(system.sites["A"].log)
        assert system.sites["A"].fragments.value("x") == 36

    def test_checkpoint_clock_restore_round_trip(self):
        """Checkpoint → crash → recover must not regress the counter.

        The checkpoint stores the bare Lamport counter; the restore
        path must re-encode it as a timestamp before observe() decodes
        the counter back out (counter = ts // MAX_SITES). Regression
        guard for the field math: an unencoded observe(counter) would
        divide the counter by 2^16 and silently restore ~0.
        """
        system = build()
        site = system.sites["A"]
        # Drive the counter far past anything the redo scan will see,
        # so the checkpoint extra is the only thing that can restore it.
        for _ in range(500):
            site.clock.next()
        counter_before = site.clock.counter
        last_ts_before = site.clock.next()
        site.write_checkpoint()
        system.crash("A")
        system.recover("A")
        site = system.sites["A"]  # the new incarnation's clock began at 0
        assert site.clock.counter >= counter_before
        # Fresh stamps stay ahead of every pre-crash stamp: Lamport
        # uniqueness survives the round trip.
        assert site.clock.next() > last_ts_before

    def test_recovery_restores_incoming_cumulative(self):
        """Each incoming channel's accepted-up-to counter comes back
        from the log alone, so no Vm is absorbed twice."""
        system = build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 50),)))
        system.run_for(60.0)
        site = system.sites["A"]
        before = {src: channel.cumulative_accepted
                  for src, channel in site.vm.incoming.items()}
        assert sorted(before) == ["B", "C"] and all(before.values())
        system.crash("A")
        system.recover("A")
        assert {src: site.vm.incoming[src].cumulative_accepted
                for src in before} == before

    def test_recover_site_direct_call(self):
        system = build()
        report = recover_site(system.sites["A"])
        assert report.site == "A"
        assert report.scanned_records == 0


class TestLoneSurvivor:
    def test_survivor_processes_after_total_failure(self):
        system = build()
        system.submit("B", TransactionSpec(ops=(DecrementOp("x", 5),)))
        system.run_for(2.0)
        for name in ("A", "B", "C"):
            system.crash(name)
        system.run_for(1.0)
        sent = system.network.total_sent
        system.recover("B")
        assert system.network.total_sent == sent
        results = []
        system.submit("B", TransactionSpec(ops=(IncrementOp("x", 3),)),
                      results.append)
        system.run_for(5.0)
        assert results and results[0].committed

    def test_stale_ack_after_recovery_does_not_fabricate_channel(self):
        """Regression for VmManager.on_ack fabricating channels.

        Schedule: A crashes and recovers (the incarnation churn that
        produces stale acks in the wild), then a stale duplicate ack
        from C — a site recovered-A has never sent a Vm to — arrives.
        Pre-fix, on_ack fabricated an OutgoingChannel for C with
        cumulative_acked=7 and next_seq=1, so when A later granted
        value toward C and the first transmission was lost, the entry
        looked already-acked, the retransmission timer never covered
        it, and the value vanished (conservation audit fails).
        """
        from repro.core.messages import VmAck

        system = build()
        system.crash("A")
        system.run_for(1.0)
        system.recover("A")
        site_a = system.sites["A"]
        assert "C" not in site_a.vm.outgoing
        # The stale duplicate from a previous life of the system.
        system.network.send("C", "A", VmAck(src="C", cumulative=7, ts=1))
        system.run_for(2.0)
        assert "C" not in site_a.vm.outgoing, \
            "stray ack must not fabricate an outgoing channel"
        # Now a real grant A->C whose first transmission is lost.
        system.network.inject_link_fault(
            "A", "C", LinkConfig(loss_probability=1.0))
        results = []
        system.submit("C", TransactionSpec(ops=(DecrementOp("x", 40),)),
                      results.append)
        system.run_for(3.0)  # request lands at A; its Vm reply is lost
        system.network.clear_link_fault("A", "C")
        system.run_for(60.0)  # retransmission must deliver the value
        channel = site_a.vm.outgoing.get("C")
        if channel is not None:
            assert not channel.unacked(), \
                "retransmission never recovered the lost grant"
        assert results and results[0].committed
        system.auditor.assert_ok()

    def test_stale_clock_is_temporary(self):
        # After a crash the recovered clock may trail other sites; any
        # incoming message bumps it (Section 7).
        system = build()
        for _ in range(5):
            system.submit("B", TransactionSpec(
                ops=(IncrementOp("x", 1),)))
        system.run_for(2.0)
        system.crash("A")
        system.recover("A")
        # B's activity then reaches A via a request honor.
        system.submit("B", TransactionSpec(ops=(DecrementOp("x", 60),)))
        system.run_for(60.0)
        assert system.sites["A"].clock.counter > 0
