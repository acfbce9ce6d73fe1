"""Unit tests for the serializability replay checker."""

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    Outcome,
    ReadFullOp,
    TransactionSpec,
    TxnResult,
)
from repro.harness.serial import check_serializable
from repro.net.link import LinkConfig

domain = CounterDomain()
DOMAINS = {"x": domain}
INITIAL = {"x": 100}


def result(txn_id, finished_at, deltas=(), reads=None, inflight=None,
           committed=True):
    return TxnResult(
        txn_id=txn_id, label="", site="A",
        outcome=Outcome.COMMITTED if committed else Outcome.ABORTED,
        reason="ok", submitted_at=0.0, finished_at=finished_at,
        read_values=dict(reads or {}),
        semantic_deltas=list(deltas),
        inflight_at_commit=dict(inflight or {}))


class TestCleanHistories:
    def test_empty(self):
        report = check_serializable([], INITIAL, DOMAINS)
        assert report.ok
        assert report.transactions_replayed == 0

    def test_updates_replay(self):
        results = [
            result("t1", 1.0, deltas=[("x", -1, 10)]),
            result("t2", 2.0, deltas=[("x", +1, 5)]),
        ]
        report = check_serializable(results, INITIAL, DOMAINS)
        assert report.ok
        assert report.transactions_replayed == 2

    def test_exact_read_passes(self):
        results = [
            result("t1", 1.0, deltas=[("x", -1, 10)]),
            result("t2", 2.0, reads={"x": 90}),
        ]
        report = check_serializable(results, INITIAL, DOMAINS)
        assert report.ok
        assert report.reads_checked == 1

    def test_aborted_results_ignored(self):
        results = [
            result("t1", 1.0, deltas=[("x", -1, 999)], committed=False),
            result("t2", 2.0, reads={"x": 100}),
        ]
        report = check_serializable(results, INITIAL, DOMAINS)
        assert report.ok


class TestViolations:
    def test_over_reporting_read_flagged(self):
        results = [
            result("t1", 1.0, deltas=[("x", -1, 10)]),
            result("t2", 2.0, reads={"x": 95}),  # claims too much
        ]
        report = check_serializable(results, INITIAL, DOMAINS)
        assert not report.ok
        assert report.read_mismatches[0][0] == "t2"

    def test_under_report_without_inflight_flagged(self):
        results = [result("t1", 1.0, reads={"x": 80})]
        report = check_serializable(results, INITIAL, DOMAINS)
        assert not report.ok

    def test_negative_dip_flagged(self):
        results = [result("t1", 1.0, deltas=[("x", -1, 150)])]
        report = check_serializable(results, INITIAL, DOMAINS)
        assert not report.ok
        assert report.negative_dips[0][0] == "t1"


class TestInflightBand:
    def test_read_may_miss_in_transit_value(self):
        # 10 units were in live Vm at the read's commit: the read may
        # lawfully report anywhere in [90, 100].
        results = [result("t1", 1.0, reads={"x": 92},
                          inflight={"x": 10})]
        assert check_serializable(results, INITIAL, DOMAINS).ok

    def test_band_is_bounded_below(self):
        results = [result("t1", 1.0, reads={"x": 85},
                          inflight={"x": 10})]
        assert not check_serializable(results, INITIAL, DOMAINS).ok

    def test_band_never_allows_over_report(self):
        results = [result("t1", 1.0, reads={"x": 101},
                          inflight={"x": 10})]
        assert not check_serializable(results, INITIAL, DOMAINS).ok


class TestTieGroups:
    def test_read_tied_with_update_may_see_either(self):
        # Same commit instant: the read may observe the pre-state (100)
        # or the post-state (90).
        for observed in (100, 90):
            results = [
                result("t1", 5.0, deltas=[("x", -1, 10)]),
                result("t2", 5.0, reads={"x": observed}),
            ]
            assert check_serializable(results, INITIAL, DOMAINS).ok, \
                observed

    def test_read_tied_with_update_cannot_exceed_band(self):
        results = [
            result("t1", 5.0, deltas=[("x", -1, 10)]),
            result("t2", 5.0, reads={"x": 80}),
        ]
        assert not check_serializable(results, INITIAL, DOMAINS).ok

    def test_strict_order_between_groups(self):
        results = [
            result("t1", 1.0, deltas=[("x", -1, 10)]),
            result("t2", 2.0, reads={"x": 100}),  # must see t1
        ]
        assert not check_serializable(results, INITIAL, DOMAINS).ok


class TestInflightSampleOnAQuiescentSystem:
    """Finding 8 (DESIGN.md §6): the receiver retires an accepted Vm
    from the auditor's books before it tells the transaction the Vm
    completes, so a full read on a quiescent system samples nothing in
    flight, and the drain that completed it does not loosen the serial
    oracle's under-report band."""

    def test_a_quiescent_full_read_reports_nothing_in_flight(self):
        system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=1, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(),
                        split={"A": 10, "B": 20, "C": 30})
        results = []
        system.submit("A", TransactionSpec(ops=(ReadFullOp("x"),)),
                      results.append)
        system.run_for(30.0)
        (result,) = results
        assert result.committed and result.read_values["x"] == 60
        assert result.inflight_at_commit["x"] == 0
