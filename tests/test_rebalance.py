"""Tests for the proactive rebalancing daemon."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.redistribution import DemandTracker
from repro.core.rebalance import (
    RebalanceConfig,
    RebalanceDaemon,
    install_rebalancing,
)
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
)
from repro.net.link import LinkConfig


def build(**kwargs):
    kwargs.setdefault("sites", ["A", "B", "C"])
    system = DvPSystem(SystemConfig(
        seed=17, txn_timeout=10.0,
        link=LinkConfig(base_delay=1.0), **kwargs))
    system.add_item("x", CounterDomain(), split={"A": 10, "B": 10,
                                                 "C": 10})
    return system


class TestConfig:
    @pytest.mark.parametrize("name,value", [
        ("period", float("nan")), ("period", float("inf")),
        ("high_watermark", float("nan")),
    ], ids=lambda value: str(value))
    def test_a_non_finite_number_is_refused(self, name, value):
        with pytest.raises(ValueError, match=name):
            RebalanceConfig(**{name: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            RebalanceConfig(period=0)
        with pytest.raises(ValueError):
            RebalanceConfig(high_watermark=0.5)
        with pytest.raises(ValueError):
            RebalanceConfig(low_watermark=1.0)
        with pytest.raises(ValueError):
            RebalanceConfig(policy="no-such-policy")
        with pytest.raises(ValueError):
            RebalanceConfig(max_ship=0)


class TestDaemon:
    def test_targets_captured_at_start(self):
        system = build()
        daemon = RebalanceDaemon(system.sites["A"])
        daemon.start()
        assert daemon.targets == {"x": 10}
        assert daemon.running
        daemon.stop()
        assert not daemon.running

    def test_ships_surplus_above_watermark(self):
        system = build()
        daemon = RebalanceDaemon(system.sites["A"],
                                 RebalanceConfig(period=5.0,
                                                 high_watermark=2.0))
        daemon.start()
        # Pump A's fragment far above 2x its target of 10.
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 40),)))
        system.run_for(20.0)
        assert daemon.shipments >= 1
        assert system.sites["A"].fragments.value("x") <= 20
        system.run_for(100.0)
        system.auditor.assert_ok()

    def test_no_shipment_below_watermark(self):
        system = build()
        daemon = RebalanceDaemon(system.sites["A"],
                                 RebalanceConfig(period=5.0))
        daemon.start()
        system.run_for(50.0)
        assert daemon.shipments == 0
        assert system.sites["A"].fragments.value("x") == 10

    def test_locked_item_skipped(self):
        system = build()
        daemon = RebalanceDaemon(system.sites["A"],
                                 RebalanceConfig(period=5.0))
        daemon.start()
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 40),)))
        system.sites["A"].locks.try_acquire_all("ghost", {"x"})
        system.run_for(30.0)
        assert daemon.shipments == 0

    def test_round_robin_spreads_over_peers(self):
        system = build()
        daemon = RebalanceDaemon(system.sites["A"],
                                 RebalanceConfig(period=2.0,
                                                 high_watermark=1.5))
        daemon.start()
        destinations = set()
        for _ in range(4):
            system.submit("A", TransactionSpec(
                ops=(IncrementOp("x", 30),)))
            system.run_for(5.0)
        for channel in system.sites["A"].vm.outgoing.values():
            # next_seq is monotonic evidence of sends; entries alone
            # would miss channels whose Vm were already acked (pruned).
            if channel.next_seq > 1:
                destinations.add(channel.dst)
        assert len(destinations) >= 2
        system.run_for(200.0)
        system.auditor.assert_ok()

    def test_adopts_items_registered_after_start(self):
        """Regression: a start-time target snapshot exempted late items.

        The daemon must track items dynamically — an item added after
        start() is adopted at its first-seen value and rebalanced like
        any other.
        """
        system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=17, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0)))
        daemon = RebalanceDaemon(system.sites["A"],
                                 RebalanceConfig(period=5.0,
                                                 high_watermark=2.0))
        daemon.start()
        assert daemon.targets == {}
        system.add_item("late", CounterDomain(),
                        split={"A": 10, "B": 10, "C": 10})
        system.run_for(6.0)  # one tick: adopt at the current value
        assert daemon.targets == {"late": 10}
        system.submit("A", TransactionSpec(ops=(IncrementOp("late", 40),)))
        system.run_for(10.0)
        assert daemon.shipments >= 1
        system.run_for(100.0)
        system.auditor.assert_ok()

    def test_no_shipment_to_crashed_peer(self):
        """Regression: shipping to a dead peer strands value in flight.

        B (round-robin's first pick) is down; the surplus must go to a
        live peer so the value stays spendable — a sale at C that needs
        the full shipped amount commits.
        """
        system = build()
        daemon = RebalanceDaemon(system.sites["A"],
                                 RebalanceConfig(period=5.0,
                                                 high_watermark=2.0))
        daemon.start()
        system.crash("B")
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 40),)))
        system.run_for(30.0)
        assert daemon.shipments >= 1
        assert "B" not in system.sites["A"].vm.outgoing, \
            "surplus was addressed to a crashed peer"
        assert system.sites["A"].vm.unacked_count() == 0
        # The shipped value is live at C: a big local sale commits.
        results = []
        system.submit("C", TransactionSpec(ops=(DecrementOp("x", 30),)),
                      results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        system.recover("B")
        system.run_for(100.0)
        system.auditor.assert_ok()

    def test_failed_acquire_does_not_burn_peer_turn(self):
        """Regression: rotation must advance only on a successful ship.

        A contended lock acquisition (simulated by failing the first
        rebalance try_acquire_all) must leave the round-robin cursor in
        place, so the next successful shipment still goes to the first
        peer.
        """
        system = build()
        site = system.sites["A"]
        daemon = RebalanceDaemon(site, RebalanceConfig(period=5.0,
                                                       high_watermark=2.0))
        daemon.start()
        real = site.locks.try_acquire_all
        failed = []

        def contended(owner, items):
            if owner.startswith("rebalance:") and not failed:
                failed.append(owner)
                return False
            return real(owner, items)

        site.locks.try_acquire_all = contended
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 40),)))
        system.run_for(6.0)  # first tick: peer peeked, acquisition fails
        assert failed and daemon.shipments == 0
        system.run_for(5.0)  # second tick ships
        assert daemon.shipments == 1
        # Peers of A are [B, C]; the burned turn would have sent to C.
        assert "B" in site.vm.outgoing and \
            site.vm.outgoing["B"].next_seq > 1, \
            "failed acquisition burned the first peer's turn"
        assert daemon.skipped_locked == 1

    def test_shipment_capped_by_max_ship(self):
        system = build()
        daemon = RebalanceDaemon(system.sites["A"],
                                 RebalanceConfig(period=5.0,
                                                 high_watermark=2.0,
                                                 max_ship=7))
        daemon.start()
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 40),)))
        system.run_for(6.0)
        assert daemon.shipments == 1
        assert system.sites["A"].fragments.value("x") == 50 - 7
        system.run_for(200.0)
        system.auditor.assert_ok()

    def test_dead_site_does_not_tick(self):
        system = build()
        daemon = RebalanceDaemon(system.sites["A"],
                                 RebalanceConfig(period=2.0))
        daemon.start()
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 50),)))
        system.run_for(0.5)
        system.crash("A")
        system.run_for(20.0)
        assert daemon.shipments == 0


class TestPolicies:
    def test_demand_weighted_pushes_toward_demanding_peer(self):
        # C has been asking A for value; B has not. The surplus must go
        # to C even though round-robin order would pick B first.
        system = build()
        site = system.sites["A"]
        daemon = RebalanceDaemon(site, RebalanceConfig(
            period=5.0, high_watermark=2.0, policy="demand-weighted"))
        daemon.start()
        site.demand.note_remote_demand("C", "x", 25)
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 40),)))
        system.run_for(6.0)
        assert daemon.shipments == 1
        assert "C" in site.vm.outgoing and \
            site.vm.outgoing["C"].next_seq > 1
        assert "B" not in site.vm.outgoing
        system.run_for(200.0)
        system.auditor.assert_ok()

    def test_demand_weighted_falls_back_to_round_robin(self):
        # No demand signal at all: behave exactly like static-rr.
        system = build()
        daemon = RebalanceDaemon(system.sites["A"], RebalanceConfig(
            period=2.0, high_watermark=1.5, policy="demand-weighted"))
        daemon.start()
        destinations = set()
        for _ in range(4):
            system.submit("A", TransactionSpec(
                ops=(IncrementOp("x", 30),)))
            system.run_for(5.0)
        for channel in system.sites["A"].vm.outgoing.values():
            if channel.next_seq > 1:
                destinations.add(channel.dst)
        assert len(destinations) >= 2
        system.run_for(200.0)
        system.auditor.assert_ok()

    def test_pull_policy_refills_short_site(self):
        # B is far below its target; with the pull policy it requests
        # the deficit itself and a rich peer's ordinary Rds honor path
        # answers — no new message kinds involved.
        system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=17, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(), split={"A": 56, "B": 2,
                                                     "C": 2})
        daemons = install_rebalancing(system, RebalanceConfig(
            period=5.0, policy="pull", low_watermark=0.6))
        daemons["B"].set_target("x", 20)
        system.run_for(60.0)
        assert daemons["B"].pulls >= 1
        assert daemons["B"].shipments == 0  # pull never pushes
        assert system.sites["B"].fragments.value("x") >= 12
        system.run_for(100.0)
        system.auditor.assert_ok()

    def test_pull_skips_unreachable_peers(self):
        # A partitioned away from B: B's pulls must go to C only.
        system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=17, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(), split={"A": 30, "B": 0,
                                                     "C": 30})
        system.network.partition([["A"], ["B", "C"]])
        daemons = install_rebalancing(system, RebalanceConfig(
            period=5.0, policy="pull", low_watermark=0.6))
        daemons["B"].set_target("x", 10)
        system.run_for(40.0)
        assert daemons["B"].pulls >= 1
        assert system.sites["B"].fragments.value("x") > 0
        # Only C can have answered; A never even heard a request.
        assert system.sites["A"].requests_honored == 0
        system.network.heal()
        system.run_for(100.0)
        system.auditor.assert_ok()


class TestDemandLedgerBelongsToTheDaemon:
    """Only a RebalanceDaemon reads a site's DemandTracker, so only a
    daemon builds one; a system without daemons feeds no ledger."""

    @staticmethod
    def feed(system):
        # Every feed: a shortfall and its requests, accepted Vm, a
        # timeout abort.
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 25),)))
        system.run_for(20.0)
        system.submit("B", TransactionSpec(ops=(DecrementOp("x", 500),)))
        system.run_for(40.0)

    @staticmethod
    def forget(system):
        # Both forgetting paths: a crash and a decommissioned peer.
        system.crash("B")
        system.recover("B")
        system.remove_site("C")
        system.run_for(100.0)

    def test_a_system_without_daemons_builds_none(self, monkeypatch):
        built = []
        monkeypatch.setattr(DemandTracker, "__init__",
                            lambda self, *args, **kwargs: built.append(1))
        system = build()
        self.feed(system)
        self.forget(system)
        assert [result.reason for result in system.results] == [
            "ok", "timeout"]
        assert built == []
        assert all(site.demand is None for site in system.sites.values())
        system.auditor.assert_ok()

    def test_install_gives_every_site_its_own(self):
        system = build()
        daemons = install_rebalancing(system, RebalanceConfig(period=50.0))
        ledgers = [site.demand for site in system.sites.values()]
        assert all(type(ledger) is DemandTracker for ledger in ledgers)
        assert len(set(map(id, ledgers))) == len(ledgers) == len(daemons)
        self.feed(system)
        a, b = system.sites["A"].demand, system.sites["B"].demand
        assert a.local_pressure("x") > 0  # A fell short of x
        assert b.local_pressure("x") > 0  # and B, who gave up
        assert a.remote_demand("x", "B") > 0  # B asked A for x
        assert a.wealth("x", "C") > 0  # C sent A some x
        self.forget(system)
        assert b.local_pressure("x") == 0  # B crashed
        assert a.wealth("x", "C") == 0  # C left the topology
        assert a.remote_demand("x", "B") > 0
        system.auditor.assert_ok()


class TestInstall:
    def test_installs_everywhere(self):
        system = build()
        daemons = install_rebalancing(system,
                                      RebalanceConfig(period=3.0))
        assert set(daemons) == {"A", "B", "C"}
        assert all(daemon.running for daemon in daemons.values())

    def test_rebalanced_system_reduces_demand_aborts(self):
        # A site that keeps receiving cancellations accumulates value;
        # rebalancing spreads it so other sites' sales stop aborting.
        system = build()
        install_rebalancing(system, RebalanceConfig(period=4.0,
                                                    high_watermark=1.2))
        results = []
        for step in range(12):
            system.sim.at(step * 5.0 + 0.1, lambda:
                          system.submit("A", TransactionSpec(
                              ops=(IncrementOp("x", 12),))))
            system.sim.at(step * 5.0 + 2.0, lambda:
                          system.submit("B", TransactionSpec(
                              ops=(DecrementOp("x", 15),)),
                              results.append))
        system.run_for(120.0)
        system.run_for(200.0)
        committed = sum(result.committed for result in results)
        assert committed >= len(results) // 2
        system.auditor.assert_ok()
