"""Integration tests: whole-system scenarios exercising the paper's
claims end to end, including randomized failure storms."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
)
from repro.harness.serial import check_serializable
from repro.metrics.collector import Collector
from repro.net.link import LinkConfig
from repro.workloads.airline import AirlineWorkload
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver


def build(seed=0, sites=4, total=200, loss=0.0, timeout=15.0, **kwargs):
    names = [f"S{index}" for index in range(sites)]
    system = DvPSystem(SystemConfig(
        sites=names, seed=seed, txn_timeout=timeout,
        retransmit_period=3.0,
        link=LinkConfig(base_delay=1.0, jitter=1.0,
                        loss_probability=loss), **kwargs))
    system.add_item("item", CounterDomain(), total=total)
    return system


def drive(system, rate=0.1, duration=150.0, mix=None, settle=300.0):
    config = WorkloadConfig(
        arrival_rate=rate, duration=duration,
        mix=mix or OpMix(reserve=0.5, cancel=0.4, read=0.1),
        amount_low=1, amount_high=8)
    source = AirlineWorkload(["item"], config)
    collector = Collector()
    WorkloadDriver(system.sim, system, list(system.sites), source,
                   config, collector).install()
    system.run_until(duration)
    system.network.heal()
    for site in system.sites.values():
        if not site.alive:
            site.recover()
    system.run_for(settle)
    return collector


class TestConservationUnderChaos:
    @pytest.mark.parametrize("seed", range(6))
    def test_lossy_network(self, seed):
        system = build(seed=seed, loss=0.3)
        drive(system)
        system.auditor.assert_ok()

    @pytest.mark.parametrize("seed", range(4))
    def test_partitions_and_crashes(self, seed):
        system = build(seed=seed, loss=0.15)
        rng = system.sim.rng.stream("chaos")
        names = list(system.sites)
        # Random partition windows.
        for start in (30.0, 80.0):
            cut = rng.randint(1, len(names) - 1)
            groups = [names[:cut], names[cut:]]
            system.sim.at(start,
                          lambda g=groups: system.network.partition(g))
            system.sim.at(start + rng.uniform(10, 30),
                          system.network.heal)
        # Random crash + recovery.
        victim = rng.choice(names)
        system.sim.at(60.0, lambda: system.crash(victim))
        system.sim.at(95.0, lambda: system.recover(victim))
        drive(system)
        system.auditor.assert_ok()

    def test_duplicating_reordering_links(self):
        system = build(seed=9)
        # No link exists yet: every link is made from the default.
        system.network.default_link = LinkConfig(
            base_delay=1.0, jitter=6.0, loss_probability=0.2,
            duplicate_probability=0.3)
        drive(system)
        system.auditor.assert_ok()


class TestNonBlockingBound:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_decision_bounded_by_timeout(self, seed):
        system = build(seed=seed, loss=0.25, timeout=12.0)
        system.sim.at(40.0, lambda: system.network.partition(
            [list(system.sites)[:2], list(system.sites)[2:]]))
        system.sim.at(90.0, system.network.heal)
        collector = drive(system)
        assert collector.results
        slack = 1e-6
        for result in collector.results:
            assert result.latency <= 12.0 + slack, result


class TestSerializability:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_mixes_replay_cleanly(self, seed):
        system = build(seed=seed, loss=0.1)
        collector = drive(
            system, rate=0.15,
            mix=OpMix(reserve=0.45, cancel=0.35, transfer=0.0, read=0.2))
        report = check_serializable(collector.results, {"item": 200},
                                    {"item": CounterDomain()})
        assert report.ok, (report.read_mismatches, report.negative_dips)
        system.auditor.assert_ok()

    def test_committed_reads_are_exact_when_quiescent(self):
        system = build(seed=3)
        results = []
        system.submit("S0", TransactionSpec(
            ops=(DecrementOp("item", 30),)), results.append)
        system.run_for(30.0)
        system.submit("S1", TransactionSpec(
            ops=(ReadFullOp("item"),)), results.append)
        system.run_for(60.0)
        reads = [result for result in results if result.read_values]
        assert reads and reads[0].read_values["item"] == 170


class TestMultiItem:
    def test_change_flight_conserves_both(self):
        system = build(seed=2)
        system.add_item("other", CounterDomain(), total=100)
        results = []
        for _ in range(5):
            system.submit("S0", TransactionSpec(
                ops=(TransferOp("item", "other", 3),)), results.append)
        system.run_for(20.0)
        assert all(result.committed for result in results)
        assert system.auditor.expected("item") == 185
        assert system.auditor.expected("other") == 115
        system.auditor.assert_ok()

    def test_multi_item_atomicity(self):
        # A transfer whose source cannot be funded commits nothing on
        # either item.
        system = build(seed=2, total=4)
        result_box = []
        system.submit("S0", TransactionSpec(
            ops=(DecrementOp("item", 50), IncrementOp("item", 50))),
            result_box.append)
        system.run_for(60.0)
        assert result_box
        assert not result_box[0].committed
        system.auditor.assert_ok()


class TestPartitionedOperation:
    def test_both_groups_commit_during_partition(self):
        system = build(seed=5, total=400)
        names = list(system.sites)
        system.network.partition([names[:2], names[2:]])
        results = []
        for name in names:
            system.submit(name, TransactionSpec(
                ops=(DecrementOp("item", 5),)), results.append)
        system.run_for(20.0)
        assert len(results) == len(names)
        assert all(result.committed for result in results)

    def test_no_failure_detection_needed(self):
        # Crash a site silently; nobody is told; the only observable
        # effect elsewhere is timeouts on requests routed to it.
        system = build(seed=5, total=40)
        system.crash("S3")
        results = []
        system.submit("S0", TransactionSpec(
            ops=(DecrementOp("item", 25),)), results.append)
        system.run_for(60.0)
        assert results  # decided either way, without detecting anything
        system.auditor.assert_ok()


class TestLivelockDocumented:
    def test_two_sites_can_shuttle_value(self):
        """Section 8 admits a livelock risk: two simultaneous gatherers
        can race value back and forth. The base protocol resolves it by
        timeout abort (never by blocking); this test documents that at
        least one of the two racing big transactions decides, and the
        system conserves value regardless."""
        system = build(seed=11, sites=2, total=100, timeout=10.0)
        results = []
        for name in list(system.sites):
            system.submit(name, TransactionSpec(
                ops=(DecrementOp("item", 80),)), results.append)
        system.run_for(120.0)
        assert len(results) == 2  # both DECIDED (no blocking)
        system.auditor.assert_ok()
