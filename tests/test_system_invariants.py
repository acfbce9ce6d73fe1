"""Unit tests for the DvPSystem façade and the conservation auditor."""

from collections import Counter

import pytest

from repro.core.domain import CounterDomain, TokenSetDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
)
from repro.net.link import LinkConfig
from repro.net.sync import SynchronousNetwork

NAN, INF = float("nan"), float("inf")

class TestSystemConfig:
    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(sites=["A", "A"])

    def test_empty_sites_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(sites=[])

    @pytest.mark.parametrize("bad", [
        {"request_retries": -1},  # divides the timeout by zero rounds
        {"read_freeze": -1.0},    # a negative delay inside a delivery
        {"txn_timeout": -1.0},    # a negative delay at submit
        {"txn_timeout": 0.0},     # aborts every waiting transaction
    ])
    def test_out_of_range_rejected_up_front(self, bad):
        with pytest.raises(ValueError):
            SystemConfig(**bad)

    @pytest.mark.parametrize("value", [NAN, -1.0, INF],
                             ids=["nan", "-1", "inf"])
    @pytest.mark.parametrize("name", ["txn_timeout", "retransmit_period",
                                      "read_freeze"])
    def test_a_non_finite_or_negative_time_is_refused(self, name, value):
        # NaN slips past "<= 0"; a timer refuses it only once armed.
        with pytest.raises(ValueError, match=name):
            SystemConfig(**{name: value})

    def test_boundary_values_accepted(self):
        SystemConfig(request_retries=0, read_freeze=0.0, txn_timeout=0.5)

    def test_conc2_selects_synchronous_network(self):
        system = DvPSystem(SystemConfig(sites=["A", "B"], cc="conc2"))
        assert isinstance(system.network, SynchronousNetwork)

    def test_explicit_synchronous_override(self):
        system = DvPSystem(SystemConfig(sites=["A", "B"], cc="conc1",
                                        synchronous=True))
        assert isinstance(system.network, SynchronousNetwork)

    def test_conc1_uses_plain_network(self):
        system = DvPSystem(SystemConfig(sites=["A", "B"], cc="conc1"))
        assert not isinstance(system.network, SynchronousNetwork)


class TestAddItem:
    def test_explicit_split(self):
        system = DvPSystem(SystemConfig(sites=["A", "B"]))
        system.add_item("x", CounterDomain(), split={"A": 10, "B": 4})
        assert system.fragment_values("x") == {"A": 10, "B": 4}
        assert system.auditor.expected("x") == 14

    def test_partial_split_fills_zero(self):
        system = DvPSystem(SystemConfig(sites=["A", "B", "C"]))
        system.add_item("x", CounterDomain(), split={"A": 5})
        assert system.fragment_values("x") == {"A": 5, "B": 0, "C": 0}

    def test_even_split_with_remainder(self):
        system = DvPSystem(SystemConfig(sites=["A", "B", "C"]))
        system.add_item("x", CounterDomain(), total=10)
        values = system.fragment_values("x")
        assert sum(values.values()) == 10
        assert max(values.values()) - min(values.values()) <= 1

    def test_split_unknown_site_rejected(self):
        system = DvPSystem(SystemConfig(sites=["A"]))
        with pytest.raises(KeyError):
            system.add_item("x", CounterDomain(), split={"Z": 3})

    def test_requires_split_or_total(self):
        system = DvPSystem(SystemConfig(sites=["A"]))
        with pytest.raises(ValueError):
            system.add_item("x", CounterDomain())

    def test_token_domain_item(self):
        system = DvPSystem(SystemConfig(sites=["A", "B"]))
        system.add_item("coupons", TokenSetDomain(),
                        split={"A": Counter({"gold": 2}),
                               "B": Counter({"silver": 1})})
        assert system.auditor.expected("coupons") == \
            Counter({"gold": 2, "silver": 1})


class TestAuditor:
    def build(self):
        system = DvPSystem(SystemConfig(
            sites=["A", "B"], txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(), total=20)
        return system

    def test_expected_tracks_commits(self):
        system = self.build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 4),)))
        system.submit("B", TransactionSpec(ops=(IncrementOp("x", 10),)))
        system.run_for(5.0)
        assert system.auditor.expected("x") == 26

    def test_aborts_do_not_change_expected(self):
        system = self.build()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 500),)))
        system.run_for(50.0)
        assert system.auditor.expected("x") == 20
        system.auditor.assert_ok()

    def test_report_fields(self):
        system = self.build()
        report = system.auditor.check("x")
        assert report.ok
        assert report.fragments_total == 20
        assert report.live_vm_total == 0
        assert report.per_site == {"A": 10, "B": 10}
        assert "OK" in str(report)

    def test_assert_ok_raises_on_violation(self):
        system = self.build()
        # Corrupt a fragment behind the auditor's back.
        system.sites["A"].fragments.write("x", 999, 0)
        with pytest.raises(AssertionError):
            system.auditor.assert_ok()

    def test_live_vm_counted_once_despite_lost_ack(self):
        # A Vm accepted at the receiver whose ack was lost is still
        # retransmitted by the sender; the auditor must count the value
        # exactly once (in the receiver's fragment).
        system = DvPSystem(SystemConfig(
            sites=["A", "B"], txn_timeout=30.0, retransmit_period=2.0,
            link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(), split={"A": 0, "B": 20})
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 5),)),
                      results.append)
        system.run_for(2.5)  # request honored at B, Vm accepted at A
        # Pretend the ack back to B was lost: clear B's ack state.
        channel = system.sites["B"].vm.out_channel("A")
        channel.cumulative_acked = 0
        system.auditor.assert_ok()  # would double count if buggy
        system.run_for(100.0)
        system.auditor.assert_ok()

    def test_commits_seen_counter(self):
        system = self.build()
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 1),)))
        system.run_for(2.0)
        assert system.auditor.commits_seen == 1


class TestSystemRunning:
    def test_committed_and_aborted_views(self):
        system = DvPSystem(SystemConfig(sites=["A"], txn_timeout=5.0))
        system.add_item("x", CounterDomain(), total=5)
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 1),)))
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 99),)))
        system.run_for(20.0)
        assert len(system.committed()) == 1
        assert len(system.results) - len(system.committed()) == 1

    def test_drain_reaches_quiescence(self):
        system = DvPSystem(SystemConfig(sites=["A", "B"],
                                        link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(), total=10)
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 8),)))
        system.drain()
        assert system.sim.pending == 0 or all(
            site.vm.unacked_count() == 0
            for site in system.sites.values())
