"""Tests for the hybrid DvP/centralized mode manager."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
)
from repro.hybrid import HybridSystem, ItemMode
from repro.net.link import LinkConfig


def build(timeout=12.0):
    system = DvPSystem(SystemConfig(
        sites=["A", "B", "C"], seed=21, txn_timeout=timeout,
        link=LinkConfig(base_delay=1.0)))
    system.add_item("x", CounterDomain(), total=90)
    return system, HybridSystem(system)


def forwards(hybrid):
    return hybrid.sim.metrics.total("hybrid.forwards")


def local_commits(hybrid):
    return hybrid.sim.metrics.total("hybrid.local_commits")


def consolidate(system, hybrid, item="x", home="A"):
    results = []
    hybrid.consolidate(item, home, results.append)
    system.run_for(60.0)
    assert results and results[0].committed
    return results[0]


class TestModes:
    def test_items_start_in_dvp_mode(self):
        _system, hybrid = build()
        assert hybrid.mode_of("x") is ItemMode.DVP
        assert "x" not in hybrid.homes

    def test_consolidate_flips_to_central(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        assert hybrid.mode_of("x") is ItemMode.CENTRAL
        assert hybrid.homes["x"] == "A"
        assert system.fragment_values("x") == {"A": 90, "B": 0, "C": 0}

    def test_failed_consolidation_keeps_dvp(self):
        system, hybrid = build()
        system.network.partition([["A"], ["B", "C"]])
        results = []
        hybrid.consolidate("x", "A", results.append)
        system.run_for(60.0)
        assert results and not results[0].committed
        assert hybrid.mode_of("x") is ItemMode.DVP

    def test_deconsolidate_redistributes(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        assert hybrid.deconsolidate("x", {"B": 30, "C": 30})
        system.run_for(60.0)
        assert hybrid.mode_of("x") is ItemMode.DVP
        assert system.fragment_values("x") == {"A": 30, "B": 30, "C": 30}
        system.auditor.assert_ok()

    def test_deconsolidate_requires_central_mode(self):
        _system, hybrid = build()
        assert not hybrid.deconsolidate("x", {"B": 1})

    def test_deconsolidate_cannot_overdraw(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        assert not hybrid.deconsolidate("x", {"B": 500})
        assert hybrid.mode_of("x") is ItemMode.CENTRAL


class TestRouting:
    def test_home_submissions_run_locally(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        results = []
        hybrid.submit("A", TransactionSpec(
            ops=(DecrementOp("x", 5),)), results.append)
        system.run_for(5.0)
        assert results and results[0].committed
        assert results[0].latency == 0.0
        assert forwards(hybrid) == 0

    def test_remote_submissions_forwarded(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        results = []
        hybrid.submit("B", TransactionSpec(
            ops=(DecrementOp("x", 5),)), results.append)
        system.run_for(20.0)
        assert results and results[0].committed
        assert forwards(hybrid) == 1
        assert results[0].latency >= 2.0  # one round trip
        assert system.fragment_values("x")["A"] == 85
        system.auditor.assert_ok()

    def test_reads_at_home_are_local_and_exact(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        results = []
        hybrid.submit("A", TransactionSpec(
            ops=(ReadFullOp("x"),)), results.append)
        system.run_for(10.0)
        assert results and results[0].committed
        assert results[0].read_values["x"] == 90
        assert results[0].latency == 0.0

    def test_forwarded_read_returns_value(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        results = []
        hybrid.submit("C", TransactionSpec(
            ops=(ReadFullOp("x"),)), results.append)
        system.run_for(20.0)
        assert results and results[0].committed
        assert results[0].read_values["x"] == 90

    def test_dvp_items_route_normally(self):
        system, hybrid = build()
        results = []
        hybrid.submit("B", TransactionSpec(
            ops=(DecrementOp("x", 5),)), results.append)
        system.run_for(10.0)
        assert results and results[0].committed
        assert forwards(hybrid) == 0

    def test_partition_aborts_forwarded_transactions(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        system.network.partition([["A"], ["B", "C"]])
        results = []
        hybrid.submit("B", TransactionSpec(
            ops=(DecrementOp("x", 5),)), results.append)
        system.run_for(60.0)
        assert results
        assert not results[0].committed
        assert results[0].reason == "forward-timeout"
        # The bound still holds: centralized mode costs availability,
        # never unboundedness.
        assert results[0].latency <= system.config.txn_timeout + 1e-6

    def test_mixed_homes_rejected(self):
        system, hybrid = build()
        system.add_item("y", CounterDomain(), total=30)
        consolidate(system, hybrid, item="x", home="A")
        consolidate(system, hybrid, item="y", home="B")
        with pytest.raises(ValueError):
            hybrid.submit("C", TransactionSpec(
                ops=(DecrementOp("x", 1), DecrementOp("y", 1))))

    def test_forwarded_deltas_feed_auditor_once(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        hybrid.submit("B", TransactionSpec(ops=(DecrementOp("x", 5),)))
        system.run_for(20.0)
        assert system.auditor.expected("x") == 85
        system.auditor.assert_ok()


class TestRoundTrip:
    def test_full_cycle_conserves(self):
        system, hybrid = build()
        consolidate(system, hybrid)
        hybrid.submit("B", TransactionSpec(ops=(DecrementOp("x", 10),)))
        system.run_for(20.0)
        assert hybrid.deconsolidate("x", {"B": 20, "C": 20})
        system.run_for(60.0)
        results = []
        hybrid.submit("B", TransactionSpec(
            ops=(DecrementOp("x", 15),)), results.append)
        system.run_for(20.0)
        assert results and results[0].committed
        system.run_for(100.0)
        system.auditor.assert_ok()
        assert system.auditor.expected("x") == 65


def build_path_sensitive(timeout=12.0):
    system = DvPSystem(SystemConfig(
        sites=["A", "B", "C"], seed=21, txn_timeout=timeout,
        link=LinkConfig(base_delay=1.0)))
    system.add_item("x", CounterDomain(), total=90)
    return system, HybridSystem(system, path_sensitive=True)


class TestPathSensitive:
    """Soethout-style local coordination avoidance: a provably-local
    transaction at a non-home site commits there instead of being
    forwarded to the centralized home."""

    def test_increment_at_non_home_commits_locally(self):
        system, hybrid = build_path_sensitive()
        consolidate(system, hybrid)
        forwards_before = forwards(hybrid)
        results = []
        hybrid.submit("B", TransactionSpec(
            ops=(IncrementOp("x", 5),)), results.append)
        system.run_for(10.0)
        assert results and results[0].committed
        assert local_commits(hybrid) == 1
        assert forwards(hybrid) == forwards_before

    def test_covered_decrement_commits_locally_after_dispersal(self):
        system, hybrid = build_path_sensitive()
        consolidate(system, hybrid)
        hybrid.submit("B", TransactionSpec(ops=(IncrementOp("x", 5),)))
        system.run_for(10.0)
        # B's fragment now holds 5; a decrement of 3 is covered.
        results = []
        hybrid.submit("B", TransactionSpec(
            ops=(DecrementOp("x", 3),)), results.append)
        system.run_for(10.0)
        assert results and results[0].committed
        assert local_commits(hybrid) == 2

    def test_uncovered_decrement_still_forwards(self):
        system, hybrid = build_path_sensitive()
        consolidate(system, hybrid)
        forwards_before = forwards(hybrid)
        results = []
        hybrid.submit("B", TransactionSpec(
            ops=(DecrementOp("x", 5),)), results.append)
        system.run_for(20.0)
        assert results and results[0].committed
        assert forwards(hybrid) == forwards_before + 1
        assert local_commits(hybrid) == 0

    def test_full_read_always_forwards(self):
        system, hybrid = build_path_sensitive()
        consolidate(system, hybrid)
        results = []
        hybrid.submit("B", TransactionSpec(
            ops=(ReadFullOp("x"),)), results.append)
        system.run_for(20.0)
        assert results and results[0].committed
        assert results[0].read_values["x"] == 90
        assert local_commits(hybrid) == 0

    def test_dispersal_disables_home_read_rewrite(self):
        system, hybrid = build_path_sensitive()
        consolidate(system, hybrid)
        hybrid.submit("B", TransactionSpec(ops=(IncrementOp("x", 5),)))
        system.run_for(10.0)
        # x leaked value away from home: a full read at the home must
        # be a real full read (95), not the free fragment read (90).
        results = []
        hybrid.submit("A", TransactionSpec(
            ops=(ReadFullOp("x"),)), results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        assert results[0].read_values["x"] == 95

    def test_default_mode_still_forwards_everything(self):
        system, hybrid = build()  # path_sensitive defaults to False
        consolidate(system, hybrid)
        results = []
        hybrid.submit("B", TransactionSpec(
            ops=(IncrementOp("x", 5),)), results.append)
        system.run_for(20.0)
        assert results and results[0].committed
        assert forwards(hybrid) == 1
        assert local_commits(hybrid) == 0

    def test_mixed_traffic_conserves(self):
        system, hybrid = build_path_sensitive()
        consolidate(system, hybrid)
        for site, op in (("B", IncrementOp("x", 4)),
                         ("C", IncrementOp("x", 2)),
                         ("B", DecrementOp("x", 1)),
                         ("A", DecrementOp("x", 6))):
            hybrid.submit(site, TransactionSpec(ops=(op,)))
            system.run_for(15.0)
        system.run_for(60.0)
        system.auditor.assert_ok()
        assert system.auditor.expected("x") == 89
        assert local_commits(hybrid) > 0

    def test_fast_path_sends_fewer_messages_for_the_same_outcome(self):
        """Soethout et al.'s point, in counts: the same traffic at
        non-home sites ends in the same value either way, and with the
        fast path on the provably-local part of it is never forwarded,
        so fewer messages cross the network."""
        def run(path_sensitive):
            system, hybrid = (build_path_sensitive() if path_sensitive
                              else build())
            consolidate(system, hybrid)
            for _round in range(5):
                for site in ("B", "C"):
                    hybrid.submit(site, TransactionSpec(
                        ops=(IncrementOp("x", 2),)))
                    system.run_for(1.0)
                hybrid.submit("B", TransactionSpec(
                    ops=(DecrementOp("x", 1),)))
                system.run_for(1.0)
            system.run_for(60.0)
            system.auditor.assert_ok()
            return (hybrid, system.network.total_sent,
                    system.auditor.expected("x"))

        forwarding, forwarded_sent, forwarded_value = run(False)
        local, local_sent, local_value = run(True)
        assert local_commits(forwarding) == 0 < local_commits(local)
        assert forwards(local) < forwards(forwarding)
        assert local_sent < forwarded_sent
        assert local_value == forwarded_value == 90 + 5 * (2 + 2 - 1)
