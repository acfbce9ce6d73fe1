"""A crash drops the site; recovery builds the next incarnation.

Section 7's fail-stop rule as a structure (DESIGN.md §7): a crash closes
the site object, and ``DvPSystem.recover`` builds a new one over the
same stable log and pages. Only those, the rank and what
``DvPSite.SURVIVES`` names outlive an incarnation, and whoever held the
old object — the network, the hybrid manager's interposer, a rebalance
daemon — is re-pointed at the new one.
"""

from repro.core.domain import CounterDomain
from repro.core.rebalance import RebalanceConfig, install_rebalancing
from repro.core.site import DvPSite
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
)
from repro.harness.experiments import e05_recovery
from repro.hybrid import HybridSystem
from repro.net.link import LinkConfig
from repro.storage.records import CheckpointRecord, VmCreateRecord


def build(**kwargs):
    kwargs.setdefault("sites", ["A", "B", "C"])
    kwargs.setdefault("txn_timeout", 10.0)
    kwargs.setdefault("retransmit_period", 2.0)
    kwargs.setdefault("link", LinkConfig(base_delay=1.0, jitter=0.5))
    system = DvPSystem(SystemConfig(seed=42, **kwargs))
    system.add_item("x", CounterDomain(), total=90)
    return system


def churn(system, txns=60, crashes=((33.2, 39.0), (77.7, 78.9))):
    """Small decrements and increments round the sites, with B crashing
    and recovering at each (crash, recover) pair of *crashes*."""
    for index in range(txns):
        site = "ABC"[index % 3]
        op = (DecrementOp("x", 3 + index % 5) if index % 4
              else IncrementOp("x", 5))
        system.sim.at(1.0 + 2.0 * index,
                      lambda site=site, op=op: system.sites[site].alive
                      and system.submit(site, TransactionSpec(ops=(op,))))
    for crash_at, recover_at in crashes:
        system.sim.at(crash_at, lambda: system.crash("B"))
        system.sim.at(recover_at, lambda: system.recover("B"))


class TestTheIncarnationGoes:
    def test_an_attribute_of_the_live_site_is_gone(self):
        system = build()
        system.sites["A"].scribbled = "volatile"
        system.crash("A")
        system.recover("A")
        assert not hasattr(system.sites["A"], "scribbled")

    def test_the_closed_site_stays_until_recovery(self):
        system = build()
        site = system.sites["A"]
        system.crash("A")
        assert system.sites["A"] is site and not site.alive
        assert site.views is None and site.on_result is None
        system.recover("A")
        recovered = system.sites["A"]
        assert recovered is not site and recovered.alive
        assert (recovered.log, recovered.pages, recovered.rank) \
            == (site.log, site.pages, site.rank)
        for attribute in DvPSite.SURVIVES:
            assert getattr(recovered, attribute) \
                == getattr(site, attribute), attribute

    def test_an_item_added_while_a_site_is_down_is_counted(self):
        """The pages outlive the incarnation, so they stay wired to the
        auditor: an item registered at a down site is on the books and
        in the next incarnation."""
        system = build()
        system.crash("B")
        system.add_item("y", CounterDomain(),
                        split={"A": 5, "B": 7, "C": 0})
        system.auditor.assert_ok()
        system.recover("B")
        assert system.fragment_values("y") == {"A": 5, "B": 7, "C": 0}
        system.submit("B", TransactionSpec(ops=(DecrementOp("y", 3),)))
        system.run_for(5.0)
        assert system.fragment_values("y")["B"] == 4
        system.auditor.assert_ok()

    def test_no_id_repeats_across_incarnations(self):
        system = build(checkpoint_interval=4)
        churn(system)
        system.run_until(300.0)
        assert system.sites["B"].crash_count == 2
        ids = [result.txn_id for result in system.results]
        assert len(ids) == len(set(ids))
        assert sum(txn_id.startswith("B#") for txn_id in ids) > 10
        owners = [envelope.record.txn_id
                  for envelope in system.sites["B"].log.scan()
                  if isinstance(envelope.record, VmCreateRecord)
                  and envelope.record.txn_id.startswith("rds:B:")]
        assert owners and len(owners) == len(set(owners))

    def test_checkpoints_keep_their_schedule(self):
        """The appends since the last checkpoint are the suffix recovery
        scanned: B crashes two records past a checkpoint and takes its
        next one two appends after recovering. Recorded on the commit
        that still carried the count across the crash."""
        system = build(checkpoint_interval=4)
        churn(system)
        system.run_until(300.0)
        assert {name: [envelope.lsn for envelope in site.log.scan()
                       if isinstance(envelope.record, CheckpointRecord)]
                for name, site in system.sites.items()} == {
            "A": [4, 9, 14, 19], "B": [4, 9, 14, 19, 24],
            "C": [4, 9, 14, 19, 24]}
        assert [report.scanned_records
                for report in system.sites["B"].recovery_reports] == [2, 1]


class TestHoldersFollowTheSite:
    def test_a_forward_to_a_recovered_home_is_answered(self):
        system = build()
        hybrid = HybridSystem(system)
        hybrid.consolidate("x", "A")
        system.run_for(20.0)
        system.crash("A")
        system.recover("A")
        results = []
        hybrid.submit("B", TransactionSpec(ops=(DecrementOp("x", 4),)),
                      results.append)
        system.run_for(20.0)
        assert [(result.txn_id, result.reason) for result in results] \
            == [("fwd#1", "ok")]
        assert system.fragment_values("x")["A"] == 86

    def test_a_down_home_ships_nothing(self):
        """A crashed incarnation forces no record and sends no Vm:
        deconsolidating from a down home is refused, as from a locked
        one."""
        system = build()
        hybrid = HybridSystem(system)
        hybrid.consolidate("x", "A")
        system.run_for(20.0)
        system.crash("A")
        records, sent = len(system.sites["A"].log), system.network.total_sent
        assert hybrid.deconsolidate("x", {"B": 10}) is False
        assert len(system.sites["A"].log) == records
        assert system.network.total_sent == sent
        system.recover("A")
        assert hybrid.deconsolidate("x", {"B": 10}) is True
        system.run_for(20.0)
        assert system.fragment_values("x") == {"A": 80, "B": 10, "C": 0}
        system.auditor.assert_ok()

    def test_a_rebalance_daemon_ships_from_the_new_incarnation(self):
        system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=42, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(),
                        split={"A": 10, "B": 10, "C": 10})
        daemons = install_rebalancing(system, RebalanceConfig(period=5.0))
        crashed = system.sites["B"]
        system.crash("B")
        system.recover("B")
        recovered = system.sites["B"]
        assert recovered is not crashed
        assert daemons["B"].site is recovered
        assert recovered.demand is not None
        # B's increments push it past the high watermark: its daemon
        # ships the surplus from the site that is alive.
        system.submit("B", TransactionSpec(ops=(IncrementOp("x", 30),)))
        system.run_for(30.0)
        assert daemons["B"].shipments >= 1
        assert any(envelope.record.txn_id.startswith("rebalance:B:")
                   for envelope in recovered.log.scan()
                   if isinstance(envelope.record, VmCreateRecord))
        system.auditor.assert_ok()

    def test_a_down_site_is_still_view_capable_for_routing(self):
        from repro.reads import ViewConfig
        from repro.serving import ServingConfig, ServingFrontend
        system = build(views=ViewConfig())
        frontend = ServingFrontend(system, ServingConfig(
            router="view-aware"))
        capable = frontend.router.view_capable
        system.crash("B")
        assert capable("B") and capable("A") and not capable("Z")


class TestE5CountsTheSends:
    def test_a_recovery_that_sends_fails_the_claim(self, monkeypatch):
        """E5's DvP rows are measured: a recovery that sent one message
        before resuming shows in the table and fails the claim."""
        from repro.core import recovery
        from repro.core.messages import TsAdvisory

        honest = recovery.recover_site

        def chatty(site):
            report = honest(site)
            peer = next(name for name in site.network.sites
                        if name != site.name)
            site.network.send(site.name, peer, TsAdvisory(0))
            return report

        monkeypatch.setattr(recovery, "recover_site", chatty)
        params = e05_recovery.Params.quick()
        table = e05_recovery.run(params)
        rows = {row["scenario"]: row for row in table.records()}
        assert rows["dvp-one"]["msgs before resume"] == 1
        assert rows["dvp-all"]["msgs before resume"] == 1
        violated = e05_recovery.claims(table, params)
        assert any("dvp-one exchanged 1 messages" in message
                   for message in violated)
