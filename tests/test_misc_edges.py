"""Remaining edge coverage: overlapping partitions, domain
corner cases, collector windows, table rendering, sim determinism."""

import pytest

from repro.core.domain import CounterDomain, MoneyDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadLocalOp,
    TransactionSpec,
)
from repro.net.link import LinkConfig


class TestOverlappingPartitions:
    def test_second_split_replaces_first(self):
        system = DvPSystem(SystemConfig(
            sites=["A", "B", "C", "D"],
            link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(), total=40)
        network = system.network
        system.sim.at(10.0, lambda: network.partition(
            [["A"], ["B", "C", "D"]]))
        system.sim.at(20.0, lambda: network.partition(
            [["A", "B"], ["C", "D"]]))
        system.sim.at(30.0, network.heal)
        system.run_until(15.0)
        assert not system.network.reachable("A", "B")
        system.run_until(25.0)
        assert system.network.reachable("A", "B")
        assert not system.network.reachable("B", "C")
        system.run_until(35.0)
        assert system.network.reachable("B", "C")


class TestReadLocalOp:
    def test_reads_fragment_without_network(self):
        system = DvPSystem(SystemConfig(
            sites=["A", "B"], link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(), split={"A": 7, "B": 3})
        results = []
        system.submit("A", TransactionSpec(ops=(ReadLocalOp("x"),)),
                      results.append)
        system.run_for(1.0)
        assert results and results[0].committed
        assert results[0].read_values["x"] == 7
        assert results[0].requests_sent == 0
        assert results[0].latency == 0.0

    def test_local_read_composable_with_update(self):
        system = DvPSystem(SystemConfig(
            sites=["A", "B"], link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(), split={"A": 7, "B": 3})
        results = []
        system.submit("A", TransactionSpec(
            ops=(ReadLocalOp("x"), DecrementOp("x", 2))), results.append)
        system.run_for(1.0)
        assert results and results[0].committed
        # The read sees the pre-decrement fragment (op order).
        assert results[0].read_values["x"] == 7
        assert system.fragment_values("x")["A"] == 5


class TestMoneySemantics:
    def test_cents_arithmetic_through_system(self):
        system = DvPSystem(SystemConfig(
            sites=["A", "B"], txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0)))
        system.add_item("acct", MoneyDomain(), split={"A": 150, "B": 50})
        results = []
        system.submit("A", TransactionSpec(
            ops=(DecrementOp("acct", 175),)), results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        assert system.auditor.expected("acct") == 25
        system.auditor.assert_ok()


class TestDeterminismAcrossFeatures:
    def test_identical_runs_with_all_knobs(self):
        def run():
            system = DvPSystem(SystemConfig(
                sites=["A", "B", "C"], seed=77, txn_timeout=8.0,
                request_retries=1, checkpoint_interval=5,
                retransmit_period=2.0,
                link=LinkConfig(base_delay=1.0, jitter=1.0,
                                loss_probability=0.3,
                                duplicate_probability=0.2)))
            system.add_item("x", CounterDomain(), total=30)
            results = []
            for index, site in enumerate(("A", "B", "C", "A", "B")):
                amount = 8 + index
                system.sim.at(index * 4.0 + 0.5, lambda s=site, a=amount:
                              system.submit(s, TransactionSpec(
                                  ops=(DecrementOp("x", a),)),
                                  results.append))
                system.sim.at(index * 4.0 + 2.0, lambda s=site:
                              system.submit(s, TransactionSpec(
                                  ops=(IncrementOp("x", 3),)),
                                  results.append))
            system.run_for(200.0)
            system.run_for(400.0)
            system.auditor.assert_ok()
            return [(r.txn_id, r.outcome.value, r.finished_at)
                    for r in results]

        assert run() == run()


class TestSingleSiteSystem:
    def test_degenerate_single_site_is_a_plain_database(self):
        # "A traditional database without replicated data can be
        # described trivially as a special case of this approach."
        system = DvPSystem(SystemConfig(sites=["only"], txn_timeout=5.0))
        system.add_item("x", CounterDomain(), total=10)
        results = []
        for amount, expect in ((4, True), (7, False), (6, True)):
            system.submit("only", TransactionSpec(
                ops=(DecrementOp("x", amount),)), results.append)
            system.run_for(10.0)
        assert [r.committed for r in results] == [True, False, True]
        assert system.auditor.expected("x") == 0
        system.auditor.assert_ok()
