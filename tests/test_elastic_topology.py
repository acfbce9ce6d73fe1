"""Negative paths and liveness for elastic topology changes.

The happy paths live in the chaos suites and E13; these tests pin the
refusals — re-entrant reshards, removing crashed or already-gone sites,
routing against a stale epoch — and one live join+leave under workload
with the full conservation cross-check green throughout."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.migration import ReshardInProgress
from repro.core.partition import Router
from repro.core.site import SiteDown
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import DecrementOp, IncrementOp, TransactionSpec
from repro.net.link import LinkConfig


def _system(sites=4, partitioner="consistent", replicas=2, seed=9,
            items=2, total=80):
    system = DvPSystem(SystemConfig(
        sites=[f"S{index}" for index in range(sites)], seed=seed,
        txn_timeout=10.0, link=LinkConfig(base_delay=1.0),
        partitioner=partitioner, replicas=replicas))
    for index in range(items):
        system.add_item(f"item{index}", CounterDomain(), total=total)
    return system


class TestReentrantReshard:
    def test_second_topology_change_refused_while_migrating(self):
        system = _system()
        system.reshard(1)
        assert system.reshard_in_progress
        with pytest.raises(ReshardInProgress):
            system.add_site("E0")
        with pytest.raises(ReshardInProgress):
            system.remove_site("S0")
        with pytest.raises(ReshardInProgress):
            system.reshard(2)

    def test_next_change_allowed_after_the_drain(self):
        system = _system()
        system.reshard(1)
        system.run_for(60.0)
        assert not system.reshard_in_progress
        system.reshard(2)  # accepted: the previous migration drained
        system.run_for(60.0)
        system.auditor.assert_ok()
        assert system.directory.epoch == 2


class TestRemoveSiteRefusals:
    def test_unknown_site_is_a_key_error(self):
        with pytest.raises(KeyError):
            _system().remove_site("NO-SUCH-SITE")

    def test_crashed_site_refused_until_recovered(self):
        """A dead site's stable log still holds fragment value; the
        decommission must wait for recovery, not strand it."""
        system = _system()
        system.run_until(5.0)
        system.crash("S1")
        with pytest.raises(SiteDown):
            system.remove_site("S1")
        system.recover("S1")
        system.run_for(15.0)  # let recovery retransmits settle
        system.remove_site("S1")
        system.run_for(80.0)
        assert not system.reshard_in_progress
        system.auditor.assert_ok()

    def test_double_decommission_refused(self):
        system = _system()
        system.remove_site("S2")
        system.run_for(80.0)
        assert not system.reshard_in_progress
        with pytest.raises(ValueError, match="decommissioned"):
            system.remove_site("S2")

    def test_duplicate_join_refused(self):
        system = _system()
        with pytest.raises(ValueError, match="already exists"):
            system.add_site("S0")


class TestRouterEpochFencing:
    def test_route_with_stale_hint_retries_against_new_version(self):
        system = _system()
        stale_hint = system.directory.epoch
        system.reshard(1)
        retries_before = system.router.stale_retries
        owners, epoch = system.router.route("item0", epoch_hint=stale_hint)
        assert system.router.stale_retries == retries_before + 1
        assert epoch == system.directory.epoch
        assert owners == system.directory.owners("item0")

    def test_route_with_fresh_hint_is_free(self):
        system = _system()
        retries_before = system.router.stale_retries
        owners, epoch = system.router.route(
            "item0", epoch_hint=system.directory.epoch)
        assert system.router.stale_retries == retries_before
        assert owners == system.directory.owners("item0")


class TestLiveReshardUnderWorkload:
    def test_join_and_leave_with_transactions_in_flight(self):
        """A join at t=20 and a decommission at t=50 while transactions
        keep arriving: everything decides, the books stay exact at a
        mid-migration cut, and both migrations drain."""
        system = _system(sites=4, items=2, total=120)
        results = []
        for index in range(16):
            site = f"S{index % 4}"
            op = (IncrementOp("item0", 2) if index % 3 == 0
                  else DecrementOp(f"item{index % 2}", 3))
            system.sim.at_site(
                site, 2.0 + 4.0 * index,
                lambda site=site, op=op: system.submit(
                    site, TransactionSpec(ops=(op,), label="load"),
                    results.append))
        system.sim.at_global(20.0, lambda: system.add_site("E0"))
        probe_reports = []
        system.sim.at_global(
            25.0, lambda: probe_reports.extend(
                system.auditor.verify_full()))

        def leave() -> None:
            # The join's drain may still be in flight; retry shortly.
            if system.reshard_in_progress:
                system.sim.at_global(system.sim.now + 5.0, leave)
            else:
                system.remove_site("S3")

        system.sim.at_global(50.0, leave)
        system.run_until(70.0)
        system.run_for(120.0)

        assert len(results) == 16  # every submission decided
        assert any(r.committed for r in results)
        assert probe_reports and all(r.ok for r in probe_reports)
        assert "E0" in system.sites
        assert system.sites["S3"].decommissioned
        assert system.directory.epoch == 2
        assert not system.reshard_in_progress
        system.auditor.assert_ok()
        assert all(r.ok for r in system.auditor.verify_full())
