"""Deeper integration tests for Conc2 on its synchronous network."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
)
from repro.harness.serial import check_serializable
from repro.metrics.collector import Collector
from repro.workloads.airline import AirlineWorkload
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver


def build(total=120, timeout=15.0, seed=43, split=None):
    system = DvPSystem(SystemConfig(
        sites=["A", "B", "C", "D"], seed=seed, cc="conc2",
        txn_timeout=timeout, sync_delay=1.0))
    if split is None:
        system.add_item("x", CounterDomain(), total=total)
    else:
        system.add_item("x", CounterDomain(), split=split)
    return system


class TestCrossSiteWaiting:
    def test_remote_honor_waits_for_lock(self):
        # B is the ONLY site with spare value, and a long-working
        # transaction holds B's fragment: the honoring Rds must queue
        # behind the worker instead of being refused (Conc2's
        # difference from Conc1), and the requester still commits.
        system = build(split={"A": 10, "B": 110})
        system.submit("B", TransactionSpec(
            ops=(DecrementOp("x", 1),), work=6.0))
        system.run_for(0.5)
        results = []
        system.submit("A", TransactionSpec(
            ops=(DecrementOp("x", 60),)), results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        # It had to wait for the worker's remaining work before B's
        # grant could even be created.
        assert results[0].latency >= 5.0
        system.auditor.assert_ok()

    def test_no_cc_aborts_under_contention(self):
        system = build()
        collector = Collector()
        workload_config = WorkloadConfig(
            arrival_rate=0.25, duration=120.0,
            mix=OpMix(reserve=0.5, cancel=0.5))
        source = AirlineWorkload(["x"], workload_config)
        WorkloadDriver(system.sim, system, list(system.sites), source,
                       workload_config, collector).install()
        system.run_for(400.0)
        reasons = collector.abort_reasons()
        assert reasons.get("locked", 0) == 0
        assert reasons.get("timestamp-refused", 0) == 0
        system.auditor.assert_ok()

    def test_serializable_under_heavy_contention(self):
        system = build(total=60, seed=44)
        collector = Collector()
        workload_config = WorkloadConfig(
            arrival_rate=0.35, duration=150.0,
            mix=OpMix(reserve=0.45, cancel=0.35, transfer=0.0, read=0.2))
        source = AirlineWorkload(["x"], workload_config)
        WorkloadDriver(system.sim, system, list(system.sites), source,
                       workload_config, collector).install()
        system.run_for(500.0)
        report = check_serializable(collector.results, {"x": 60},
                                    {"x": CounterDomain()})
        assert report.ok, (report.read_mismatches, report.negative_dips)
        system.auditor.assert_ok()

    def test_quiet_read_commits_under_conc2(self):
        system = build()
        results = []
        system.submit("A", TransactionSpec(
            ops=(ReadFullOp("x"),)), results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        assert results[0].read_values["x"] == 120


class TestBroadcastAtInit:
    def test_requests_sent_before_locks_granted(self):
        system = build()
        # Deplete A so its next decrement needs remote value, then have
        # a worker hold A's lock: the Conc2 transaction broadcasts its
        # requests at initiation, so gathering overlaps the lock wait.
        system.submit("A", TransactionSpec(
            ops=(DecrementOp("x", 30),)))  # drains A's quota of 30
        system.run_for(5.0)
        system.submit("A", TransactionSpec(
            ops=(IncrementOp("x", 1),), work=4.0))  # lock holder
        system.run_for(0.5)
        results = []
        txn = system.sites["A"].submit(TransactionSpec(
            ops=(DecrementOp("x", 10),)), results.append)
        assert txn.requests_sent > 0  # broadcast happened immediately
        system.run_for(40.0)
        assert results and results[0].committed
        system.auditor.assert_ok()


class TestConc2Recovery:
    def test_crash_recover_under_conc2(self):
        system = build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 50),)))
        system.run_for(1.5)
        system.crash("B")
        system.run_for(10.0)
        sent = system.network.total_sent
        system.recover("B")
        assert system.network.total_sent == sent
        system.run_for(300.0)
        system.auditor.assert_ok()
