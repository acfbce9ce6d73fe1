"""Unit tests for the concurrency-control schemes and the
redistribution policies."""

import random

import pytest

from repro.core.cc import Conc1, Conc2, make_cc
from repro.core.domain import CounterDomain
from repro.core.policies import (
    AskAllPolicy,
    AskFewPolicy,
    ReservingPolicy,
    make_policy,
)
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import DecrementOp, TransactionSpec, _State
from repro.net.link import LinkConfig

domain = CounterDomain()
rng = random.Random(1)


def build(cc="conc1"):
    system = DvPSystem(SystemConfig(
        sites=["A", "B", "C"], seed=8, cc=cc, txn_timeout=10.0,
        link=LinkConfig(base_delay=1.0)))
    system.add_item("x", CounterDomain(), total=30)
    return system


class TestMakeCc:
    def test_factory(self):
        assert isinstance(make_cc("conc1"), Conc1)
        assert isinstance(make_cc("conc2"), Conc2)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_cc("conc3")


class TestConc1:
    def test_lock_refused_for_stale_ts(self):
        system = build("conc1")
        site = system.sites["A"]
        site.fragments.stamp("x", 1 << 50)
        assert not system.cc.may_lock_local(site, 5, {"x"})

    def test_lock_granted_stamps_fragment(self):
        system = build("conc1")
        site = system.sites["A"]
        ts = site.clock.next()
        assert system.cc.may_lock_local(site, ts, {"x"})
        system.cc.on_lock_granted(site, ts, {"x"})
        assert site.fragments.timestamp("x") == ts

    def test_never_waits(self):
        assert not Conc1().waits_for_locks

    def test_conflicting_local_transactions_abort(self):
        system = build("conc1")
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 50),)),
                      results.append)  # gathers, holds the lock
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 1),)),
                      results.append)
        system.run_for(0.1)
        assert results and results[0].reason == "locked"


class TestConc2:
    def test_waits_and_broadcasts(self):
        assert Conc2().waits_for_locks
        # One flag, both rules: a transaction queued for its lock has
        # already broadcast its requests, at initiation.
        system = build("conc2")
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 2),),
                                           work=2.0))
        queued = system.submit("A", TransactionSpec(
            ops=(DecrementOp("x", 20),)))
        assert queued.state is _State.WAITING_LOCKS
        assert queued.requests_sent == 2

    def test_conflicting_local_transactions_queue(self):
        system = build("conc2")
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 2),),
                                           work=2.0), results.append)
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 1),)),
                      results.append)
        system.run_for(10.0)
        assert len(results) == 2
        assert all(result.committed for result in results)
        # The second waited for the first's locks.
        assert results[1].latency >= 2.0

    def test_queued_transaction_timeout_cancels_wait(self):
        system = build("conc2")
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 2),),
                                           work=30.0), results.append)
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 1),)),
                      results.append)
        system.run_for(15.0)
        # The queued one times out (10.0) while the worker computes.
        assert results and results[0].reason == "timeout"
        system.run_for(60.0)
        assert len(results) == 2


class TestPolicies:
    def test_factory(self):
        assert isinstance(make_policy("ask-all"), AskAllPolicy)
        assert isinstance(make_policy("ask-few", fanout=2), AskFewPolicy)
        assert isinstance(make_policy("reserving",
                                      reserve_fraction=0.25),
                          ReservingPolicy)
        with pytest.raises(ValueError):
            make_policy("nope")

    def test_ask_all_targets_every_peer(self):
        targets = AskAllPolicy().targets("A", ["B", "C", "D"], 7, domain,
                                         rng)
        assert targets == [("B", 7), ("C", 7), ("D", 7)]

    def test_ask_all_grants_everything_available(self):
        assert AskAllPolicy().grant(domain, 5, 10) == 5
        assert AskAllPolicy().grant(domain, 10, 5) == 5

    def test_ask_few_fanout_bounds(self):
        policy = AskFewPolicy(fanout=2)
        targets = policy.targets("A", ["B", "C", "D"], 7, domain, rng)
        assert len(targets) == 2
        assert all(ask == 7 for _peer, ask in targets)

    def test_ask_few_handles_small_peer_sets(self):
        policy = AskFewPolicy(fanout=5)
        assert len(policy.targets("A", ["B"], 7, domain, rng)) == 1

    def test_ask_few_validates_fanout(self):
        with pytest.raises(ValueError):
            AskFewPolicy(fanout=0)

    def test_reserving_keeps_fraction_at_home(self):
        policy = ReservingPolicy(reserve_fraction=0.5)
        assert policy.grant(domain, 10, 10) == 5
        assert policy.grant(domain, 10, 3) == 3

    def test_reserving_validates_fraction(self):
        with pytest.raises(ValueError):
            ReservingPolicy(reserve_fraction=1.0)

    def test_empty_peer_list(self):
        assert AskAllPolicy().targets("A", [], 7, domain, rng) == []
        assert AskFewPolicy().targets("A", [], 7, domain, rng) == []
