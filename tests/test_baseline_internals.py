"""Unit tests for baseline-internal mechanisms: message dedup,
escrow accounting, the shared store, exactly-once callbacks."""

import pytest

from repro.baselines.common import (
    BaselineConfig,
    IdSource,
    PendingDone,
    WholeStore,
    make_result,
)
from repro.baselines.escrow import _CentralItem
from repro.baselines.twopc import PrepareMsg, SimpleOp, TwoPCSystem
from repro.core.transactions import Outcome
from repro.net.link import LinkConfig


class TestWholeStore:
    def test_create_and_get(self):
        store = WholeStore()
        store.create("x", 5)
        assert store.get("x").value == 5
        assert "x" in store and "y" not in store

    def test_duplicate_create_rejected(self):
        store = WholeStore()
        store.create("x", 5)
        with pytest.raises(ValueError):
            store.create("x", 6)


class TestPendingDone:
    def test_fires_exactly_once(self):
        seen = []
        done = PendingDone(seen.append)
        result = make_result("t", "", Outcome.COMMITTED, "ok", "A",
                             0.0, 1.0)
        assert done.fire(result)
        assert not done.fire(result)
        assert len(seen) == 1

    def test_none_callback_tolerated(self):
        done = PendingDone(None)
        assert done.fire(make_result("t", "", Outcome.ABORTED, "x", "A",
                                     0.0, 1.0))
        assert done.collected


class TestIdSource:
    def test_monotone_and_prefixed(self):
        ids = IdSource("W")
        assert ids.next() == "W#1"
        assert ids.next() == "W#2"


class TestBaselineConfig:
    def test_defaults(self):
        config = BaselineConfig()
        assert config.txn_timeout > 0
        assert config.retry_period > 0


class TestEscrowAccounting:
    def test_inf_reflects_outstanding_decrements(self):
        item = _CentralItem(value=100)
        item.journal["t1"] = ("dec", 30)
        item.journal["t2"] = ("dec", 20)
        item.journal["t3"] = ("inc", 999)  # increments don't reduce inf
        assert item.escrow_inf() == 50

    def test_inf_equals_value_when_quiet(self):
        assert _CentralItem(value=42).escrow_inf() == 42


class TestTwoPCDedup:
    def build(self):
        system = TwoPCSystem(["A", "B"], seed=1,
                             link=LinkConfig(base_delay=1.0))
        system.add_item("acct_A", "A", 100)
        system.add_item("acct_B", "B", 100)
        return system

    def test_duplicate_prepare_ignored(self):
        system = self.build()
        site_b = system.sites["B"]
        message = PrepareMsg("A#1", "A", (SimpleOp("dec", "acct_B", 5),))
        site_b._on_prepare(message)
        log_length = len(site_b.log)
        site_b._on_prepare(message)  # duplicate delivery
        assert len(site_b.log) == log_length
        assert site_b.locks.get("acct_B") == "A#1"

    def test_prepare_checks_feasibility_against_shadow(self):
        # Two decrements in one prepare whose SUM overdraws must be
        # refused even though each alone fits.
        system = self.build()
        site_b = system.sites["B"]
        message = PrepareMsg("A#1", "A", (SimpleOp("dec", "acct_B", 60),
                                          SimpleOp("dec", "acct_B", 60)))
        site_b._on_prepare(message)
        assert "acct_B" not in site_b.locks  # voted no

    def test_decision_for_unknown_txn_is_acked_not_crashed(self):
        from repro.baselines.twopc import DecisionMsg
        system = self.build()
        site_b = system.sites["B"]
        site_b._on_decision(DecisionMsg("A#77", commit=False, sender="A"))
        system.run_for(5.0)  # ack flows back without error
