"""Edge-case failure tests: double recovery, freezes across crashes,
delivery to dead sites, checkpoints under a crash."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.messages import READ_MODE, DataRequest
from repro.core.site import SiteUp
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
)
from repro.net.link import LinkConfig


def build(**kwargs):
    kwargs.setdefault("sites", ["A", "B", "C"])
    kwargs.setdefault("txn_timeout", 10.0)
    kwargs.setdefault("retransmit_period", 2.0)
    kwargs.setdefault("link", LinkConfig(base_delay=1.0))
    system = DvPSystem(SystemConfig(seed=51, **kwargs))
    system.add_item("x", CounterDomain(), total=90)
    return system


class TestRepeatedFailures:
    def test_recover_without_crash_is_refused(self):
        system = build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 5),)))
        system.run_for(2.0)
        site = system.sites["A"]
        records = len(site.log)
        with pytest.raises(SiteUp):
            system.recover("A")  # no crash happened
        assert system.sites["A"] is site and site.alive
        assert len(site.log) == records and site.recovery_reports == []
        assert site.fragments.value("x") == 25
        assert site.vm.unacked_count() == 0
        system.auditor.assert_ok()

    def test_recover_of_a_live_site_keeps_its_transactions(self):
        """Recovering a live site used to drop its undecided transaction
        from ``active`` unclosed and clear its locks: a zombie that ran
        on believing it held ``x`` while a later transaction committed
        under the same lock. Now the call is refused first."""
        system = build()
        results = []
        txn = system.submit("A", TransactionSpec(
            ops=(DecrementOp("x", 60),)), results.append)
        site = system.sites["A"]
        assert site.locks.holders["x"] == txn.id  # gathering remote value
        with pytest.raises(SiteUp):
            system.recover("A")
        assert site.active == {txn.id: txn}
        assert site.locks.holders["x"] == txn.id
        system.run_for(30.0)
        assert [result.txn_id for result in results] == [txn.id]
        assert not site.active and site.locks.is_free("x")
        system.auditor.assert_ok()

    def test_crash_recover_crash_recover(self):
        system = build(checkpoint_interval=3)
        for round_number in range(3):
            system.submit("A", TransactionSpec(
                ops=(IncrementOp("x", 2),)))
            system.run_for(2.0)
            system.crash("A")
            system.run_for(3.0)
            system.recover("A")
            system.run_for(2.0)
        assert system.sites["A"].crash_count == 3
        assert system.auditor.expected("x") == 96
        system.run_for(200.0)
        system.auditor.assert_ok()

    def test_crash_during_gather_then_client_retry(self):
        system = build()
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 60),)),
                      results.append)
        system.run_for(0.5)
        system.crash("A")
        system.run_for(20.0)
        assert results == []  # first attempt vanished with the crash
        system.recover("A")
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 60),)),
                      results.append)
        system.run_for(60.0)
        assert results
        system.run_for(300.0)
        system.auditor.assert_ok()

    def test_simultaneous_crash_of_sender_and_receiver(self):
        system = build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 60),)))
        system.run_for(1.6)  # honors in progress, Vm possibly in flight
        system.crash("A")
        system.crash("B")
        system.run_for(10.0)
        system.recover("A")
        system.recover("B")
        system.run_for(400.0)
        system.auditor.assert_ok()


class TestFreezeAcrossCrash:
    def test_freeze_release_after_crash_is_harmless(self):
        system = build(read_freeze=6.0)
        site_b = system.sites["B"]
        ts = 1 << 40
        site_b.handle_request(DataRequest("A#1", "A", READ_MODE,
                                          (("x", None),), ts))
        assert not site_b.locks.is_free("x")
        system.crash("B")
        system.run_for(10.0)  # the freeze-release event fires while dead
        system.recover("B")
        assert site_b.locks.is_free("x")
        system.run_for(300.0)
        system.auditor.assert_ok()


class TestDeliveryToDeadSites:
    def test_messages_to_dead_site_vanish_silently(self):
        system = build()
        system.crash("B")
        log_length = len(system.sites["B"].log)
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 60),)))
        system.run_for(30.0)
        assert len(system.sites["B"].log) == log_length

    def test_vm_lands_after_receiver_recovers(self):
        system = build()
        # C is drained so only B can fund the request.
        system.submit("C", TransactionSpec(ops=(DecrementOp("x", 30),)))
        system.run_for(1.0)
        system.crash("B")
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 50),)),
                      results.append)
        system.run_for(30.0)
        assert results and not results[0].committed  # B was dark
        system.recover("B")
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 50),)),
                      results.append)
        system.run_for(60.0)
        assert results[1].committed
        system.run_for(300.0)
        system.auditor.assert_ok()


class TestCheckpointWithFailures:
    def test_granting_peer_crash_conserves(self):
        system = build(checkpoint_interval=4)
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 70),)),
                      results.append)
        system.run_for(2.5)
        # Crash a granting peer while its Vm are still unacknowledged.
        granting = [name for name in ("B", "C")
                    if system.sites[name].vm.unacked_count()]
        assert granting
        system.crash(granting[0])
        system.run_for(10.0)
        system.recover(granting[0])
        system.run_for(400.0)
        system.auditor.assert_ok()
        for site in system.sites.values():
            assert site.vm.unacked_count() == 0
