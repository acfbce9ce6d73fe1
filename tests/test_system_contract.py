"""One ``System`` contract, six systems (ISSUE 18).

The same tiny scenario — submissions, a partition and a heal, a crash
and a recovery — driven through the members of
:class:`repro.core.system.System` *only*: whoever builds a system
registers its items (that really differs), and after that nothing
here knows which protocol it is driving. At quiescence nobody is
blocked and value is conserved; after ``close()`` (twice) the results
and the logs are still readable.

A crash is the same fail-stop rule for all six (DESIGN.md §7, "A crash
drops the site"): a down site refuses work and waits for nothing,
crashing it again does nothing, recovering a live one is refused, and
recovery puts a new site in ``sites`` that carries only the crash count
and the id counter.
"""

import pytest

from repro.baselines import (
    PaxosCommitSystem,
    PrimaryCopySystem,
    QuorumSystem,
    TwoPCSystem,
)
from repro.baselines.common import BaselineConfig
from repro.chaos.plan import (
    CrashSite,
    FaultPlan,
    HealNet,
    PartitionNet,
    RecoverSite,
)
from repro.core.domain import CounterDomain
from repro.core.site import SiteDown, SiteUp
from repro.core.system import DvPSystem, System, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
)
from repro.hybrid import HybridSystem
from repro.net.link import LinkConfig

SITES = ["A", "B", "C", "D"]
LINK = LinkConfig(base_delay=1.0, jitter=0.5)
INITIAL = 100


def _dvp() -> DvPSystem:
    system = DvPSystem(SystemConfig(sites=SITES, seed=3, txn_timeout=8.0,
                                    retransmit_period=3.0, link=LINK))
    system.add_item("x", CounterDomain(), total=INITIAL)
    return system


def _hybrid() -> HybridSystem:
    hybrid = HybridSystem(_dvp(), path_sensitive=True)
    hybrid.sim.at(0.1, lambda: hybrid.consolidate("x", "A"))
    return hybrid


def _baseline(cls, *placement):
    def build():
        system = cls(SITES, seed=3, link=LINK, config=BaselineConfig(
            txn_timeout=8.0, retry_period=3.0))
        system.add_item("x", *placement, INITIAL)
        return system
    return build


BUILDERS = {
    "dvp": _dvp,
    "hybrid": _hybrid,
    "2pc": _baseline(TwoPCSystem, "A"),
    "paxos": _baseline(PaxosCommitSystem, "A"),
    "quorum": _baseline(QuorumSystem),
    "primary-copy": _baseline(PrimaryCopySystem, "A"),
}

# "Conserved" is judged against the answers the clients got, so the
# faults strike between transactions, never across one whose answer
# they would make a guess: a primary-copy update whose reply is cut
# off is applied *and* reported timed out, and a transaction whose
# origin dies is nobody's to answer (a Paxos Commit takeover may still
# commit it). The cut at 12.2 and the crash of an idle D at 36 do
# neither; what they do to each protocol's *availability* is E2's and
# E15's subject, not the contract's.
PLAN = FaultPlan((
    PartitionNet(at=12.2, groups=(("A", "B"), ("C", "D"))),
    HealNet(at=22.0),
    CrashSite(at=36.0, site="D"),
    RecoverSite(at=46.0, site="D"),
))


def drive(system: System) -> list:
    """Everything below is a member of the contract."""
    heard = []
    for index in range(20):
        site = SITES[index % 4]
        op = (IncrementOp("x", 2) if index % 3 == 0
              else DecrementOp("x", 1 + index % 4))

        def arrive(site=site, op=op) -> None:
            if system.sites[site].alive:
                system.submit(site, TransactionSpec(ops=(op,)),
                              heard.append)

        system.sim.at(1.0 + 2.5 * index, arrive)
    PLAN.compile(system)
    system.run_for(40.0)
    assert not system.sites["D"].alive
    assert system.network.reachable("A", "C")
    system.run_until(200.0)
    return heard


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_the_same_scenario_through_the_contract_alone(name):
    system = BUILDERS[name]()
    assert system.total_value() == system.total_value(["x"]) == INITIAL
    heard = drive(system)

    assert all(site.alive for site in system.sites.values())
    assert system.blocked() == []
    # How *much* is answered and commits through the faults is each
    # protocol's own business (a crash forgets what its site was
    # coordinating; a partition starves whoever needs the far side).
    assert len(heard) >= 15 and any(r.committed for r in heard)
    committed = [r for r in system.results if r.committed]
    assert system.total_value() == INITIAL + sum(
        sign * amount for result in committed
        for _item, sign, amount in result.semantic_deltas)

    results, decided = system.results, len(system.results)
    logged = {site: len(system.sites[site].log) for site in SITES}
    system.close()
    system.close()
    assert system.results is results and len(results) == decided
    assert {site: len(list(system.sites[site].log.scan()))
            for site in SITES} == logged
    assert system.sim.pending == 0


def test_blocked_names_who_waits_and_for_how_long():
    """Mid-run, ``blocked()`` is the same question for every system:
    who is still waiting, since when. A 2PC participant cut off from
    its coordinator waits without bound; a DvP transaction at most its
    timeout."""
    twopc = _baseline(TwoPCSystem, "B")()
    twopc.submit("A", TransactionSpec(ops=(DecrementOp("x", 1),)))
    twopc.run_for(1.7)  # prepared at B, vote in flight
    twopc.network.partition([["A"], ["B", "C", "D"]])
    twopc.run_for(100.0)
    assert [(site, txn) for site, txn, _age in twopc.blocked()] \
        == [("B", "A#1")]
    assert twopc.blocked()[0][2] > 99.0

    dvp = _dvp()
    dvp.network.partition([["A"], ["B", "C", "D"]])
    dvp.submit("A", TransactionSpec(ops=(DecrementOp("x", 60),)))
    dvp.run_for(5.0)
    assert [site for site, _txn, _age in dvp.blocked()] == ["A"]
    assert dvp.total_value() == INITIAL
    dvp.run_for(100.0)
    assert dvp.blocked() == []
    for system in (twopc, dvp):
        system.close()


# -- the crash contract: one fail-stop rule for every system ---------------


def _decrement(amount: int = 1) -> TransactionSpec:
    return TransactionSpec(ops=(DecrementOp("x", amount),))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_down_site_refuses_work_and_sends_nothing(name):
    system = BUILDERS[name]()
    system.run_for(20.0)
    system.crash("B")
    sent, decided = system.network.total_sent, len(system.results)
    with pytest.raises(SiteDown):
        system.submit("B", _decrement())
    system.run_for(100.0)
    assert system.network.total_sent == sent
    assert len(system.results) == decided
    system.close()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_recovering_a_live_site_is_refused_and_changes_nothing(name):
    """Against a twin that never asked: the refused recovery moves no
    answer, no message and no wait (a 2PC participant prepared at A)."""
    runs = []
    for ask in (False, True):
        system = BUILDERS[name]()
        system.run_for(1.0)
        system.submit("B", _decrement())
        system.run_for(1.7)
        live, waiting = system.sites["A"], system.blocked()
        if ask:
            with pytest.raises(SiteUp):
                system.recover("A")
            assert system.sites["A"] is live and live.alive
            assert system.blocked() == waiting
        system.run_for(100.0)
        runs.append((list(map(repr, system.results)),
                     dict(system.network.sent_counts)))
        system.close()
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_crashing_a_down_site_counts_one_outage(name):
    system = BUILDERS[name]()
    system.run_for(1.0)
    system.crash("B")
    closed = system.sites["B"]
    system.crash("B")
    assert system.sites["B"] is closed and closed.crash_count == 1
    system.recover("B")
    assert system.sites["B"].crash_count == 1
    system.close()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_crash_drops_the_site(name):
    """The closed object stays in ``sites`` while the site is down; the
    recovered one is new: what was set on the live object is gone, the
    crash count and the transaction ids carry on."""
    system = BUILDERS[name]()
    heard = []
    system.submit("B", _decrement(), heard.append)
    system.run_for(20.0)
    live = system.sites["B"]
    live.scribble = "volatile"
    system.crash("B")
    assert system.sites["B"] is live and not live.alive
    system.run_for(5.0)
    assert system.sites["B"] is live
    system.recover("B")
    recovered = system.sites["B"]
    assert recovered is not live and recovered.alive
    assert not hasattr(recovered, "scribble")
    assert recovered.crash_count == 1
    system.submit("B", _decrement(), heard.append)
    system.run_for(20.0)
    ids = [result.txn_id for result in heard]
    assert len(ids) == 2 and len(set(ids)) == 2
    system.close()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_blocked_names_no_down_site(name):
    system = BUILDERS[name]()
    system.run_for(1.0)
    system.submit("B", _decrement())
    system.run_for(1.7)
    if name in ("2pc", "paxos"):
        # Prepared at A, the vote in flight: the closed object keeps
        # that state, and a down site waits for nothing.
        assert "A" in {site for site, _txn, _age in system.blocked()}
    system.crash("A")
    assert "A" not in {site for site, _txn, _age in system.blocked()}
    system.run_for(50.0)
    assert "A" not in {site for site, _txn, _age in system.blocked()}
    system.close()
