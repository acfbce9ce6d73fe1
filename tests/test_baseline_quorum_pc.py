"""Tests for the quorum and primary-copy baselines."""

import pytest

from repro.baselines.common import BaselineConfig
from repro.baselines.primarycopy import PrimaryCopySystem
from repro.baselines.quorum import QuorumSystem
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
)
from repro.net.link import LinkConfig


def build_quorum(sites=("A", "B", "C"), **kwargs):
    system = QuorumSystem(list(sites), seed=5,
                          link=LinkConfig(base_delay=1.0),
                          config=BaselineConfig(txn_timeout=10.0),
                          **kwargs)
    system.add_item("x", 100)
    return system


def build_pc(sites=("A", "B", "C"), **kwargs):
    system = PrimaryCopySystem(list(sites), seed=5,
                               link=LinkConfig(base_delay=1.0),
                               config=BaselineConfig(txn_timeout=10.0),
                               **kwargs)
    system.add_item("x", "A", 100)
    return system


def run_one(system, origin, spec, duration=40.0):
    results = []
    system.submit(origin, spec, results.append)
    system.run_for(duration)
    assert results
    return results[0]


class TestQuorum:
    def test_update_commits_with_majority(self):
        system = build_quorum()
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert result.committed
        assert system.value("x") == 95

    def test_versions_propagate_to_granting_replicas(self):
        system = build_quorum()
        run_one(system, "A", TransactionSpec(ops=(DecrementOp("x", 5),)))
        versions = [site.store.get("x").version
                    for site in system.sites.values()]
        assert versions.count(1) >= system.write_quorum

    def test_minority_partition_aborts(self):
        system = build_quorum()
        system.network.partition([["A"], ["B", "C"]])
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert not result.committed
        assert result.reason == "timeout"

    def test_majority_partition_commits(self):
        system = build_quorum()
        system.network.partition([["A"], ["B", "C"]])
        result = run_one(system, "B", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert result.committed

    def test_insufficient_value_aborts(self):
        system = build_quorum()
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 500),)))
        assert not result.committed
        assert result.reason == "insufficient"

    def test_lock_collisions_retry_and_resolve(self):
        system = build_quorum()
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 1),)),
                      results.append)
        system.submit("B", TransactionSpec(ops=(DecrementOp("x", 2),)),
                      results.append)
        system.run_for(60.0)
        assert len(results) == 2
        assert sum(result.committed for result in results) == 2
        assert system.value("x") == 97

    def test_no_locks_leaked_after_run(self):
        system = build_quorum()
        for origin in ("A", "B", "C"):
            system.submit(origin, TransactionSpec(
                ops=(DecrementOp("x", 1),)))
        system.run_for(120.0)
        for site in system.sites.values():
            assert "x" not in site.locks

    def test_multi_item_spec_rejected(self):
        system = build_quorum()
        system.add_item("y", 5)
        with pytest.raises(ValueError):
            system.submit("A", TransactionSpec(
                ops=(DecrementOp("x", 1), DecrementOp("y", 1))))

    def test_custom_write_quorum(self):
        system = build_quorum(write_quorum=3)
        system.network.partition([["A", "B"], ["C"]])
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 1),)))
        assert not result.committed  # needs all three replicas

    def test_read_quorum_value(self):
        system = build_quorum()
        result = run_one(system, "A", TransactionSpec(
            ops=(ReadFullOp("x"),)))
        assert result.committed
        assert result.read_values["x"] == 100


class TestPrimaryCopy:
    def test_update_at_primary(self):
        system = build_pc()
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert result.committed
        assert system.value("x") == 95

    def test_update_forwarded_from_backup(self):
        system = build_pc()
        result = run_one(system, "B", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert result.committed
        assert system.value("x") == 95

    def test_backups_receive_propagation(self):
        system = build_pc()
        run_one(system, "A", TransactionSpec(ops=(DecrementOp("x", 5),)))
        system.run_for(10.0)
        for site in system.sites.values():
            assert site.store.get("x").value == 95

    def test_cut_off_backup_times_out(self):
        system = build_pc()
        system.network.partition([["A"], ["B", "C"]])
        result = run_one(system, "B", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert not result.committed
        assert result.reason == "timeout"

    def test_primary_group_still_works(self):
        system = build_pc()
        system.network.partition([["A", "C"], ["B"]])
        result = run_one(system, "C", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert result.committed

    def test_stale_reads_served_locally_when_allowed(self):
        system = build_pc(allow_stale_reads=True)
        run_one(system, "A", TransactionSpec(ops=(DecrementOp("x", 5),)))
        # Cut B off; it can still answer a stale read instantly.
        system.network.partition([["A", "C"], ["B"]])
        result = run_one(system, "B", TransactionSpec(
            ops=(ReadFullOp("x"),)))
        assert result.committed
        assert result.reason == "stale-read"

    def test_reads_go_to_primary_by_default(self):
        system = build_pc(allow_stale_reads=False)
        system.network.partition([["A", "C"], ["B"]])
        result = run_one(system, "B", TransactionSpec(
            ops=(ReadFullOp("x"),)))
        assert not result.committed

    def test_insufficient_aborts(self):
        system = build_pc()
        result = run_one(system, "B", TransactionSpec(
            ops=(DecrementOp("x", 5000),)))
        assert not result.committed
        assert result.reason == "insufficient"

    def test_increment(self):
        system = build_pc()
        result = run_one(system, "C", TransactionSpec(
            ops=(IncrementOp("x", 11),)))
        assert result.committed
        assert system.value("x") == 111


class TestPrimaryCopyFailure:
    """The module docstring's sentence — "if the primary site *fails*,
    nobody can update at all" — which nothing could test while the
    system had no ``crash``: a ``CrashSite`` compiled onto it raised
    ``AttributeError`` inside a kernel event."""

    def test_fault_plan_crashes_and_recovers_the_primary(self):
        from repro.chaos.plan import CrashSite, FaultPlan, RecoverSite
        system = build_pc(allow_stale_reads=True)
        run_one(system, "A", TransactionSpec(ops=(DecrementOp("x", 5),)))
        FaultPlan((CrashSite(at=50.0, site="A"),
                   RecoverSite(at=120.0, site="A"))).compile(system)
        system.run_until(60.0)
        assert not system.sites["A"].alive

        # Primary down: remote updates time out...
        update = run_one(system, "B", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert not update.committed and update.reason == "timeout"
        # ...while readers that accept a stale copy still answer.
        read = run_one(system, "C", TransactionSpec(
            ops=(ReadFullOp("x"),)), duration=1.0)
        assert read.committed and read.read_values["x"] == 95

        # Recovered: the versioned store survived, updates resume.
        system.run_until(130.0)
        assert system.sites["A"].alive and system.value("x") == 95
        update = run_one(system, "B", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert update.committed and system.value("x") == 90

    def test_crash_forgets_what_the_origin_was_waiting_for(self):
        system = build_pc()
        results = []
        system.submit("B", TransactionSpec(ops=(IncrementOp("x", 1),)),
                      results.append)
        system.crash("B")  # the forward is in flight; B forgets it
        system.recover("B")
        system.run_for(40.0)
        # The primary applied it; the reply finds nobody waiting and
        # the wiped deadline never fires.
        assert results == [] and system.value("x") == 101
