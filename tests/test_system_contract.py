"""One ``System`` contract, six systems (ISSUE 18).

The same tiny scenario — submissions, a partition and a heal, a crash
and a recovery — driven through the members of
:class:`repro.core.system.System` *only*: whoever builds a system
registers its items (that really differs), and after that nothing
here knows which protocol it is driving. At quiescence nobody is
blocked and value is conserved; after ``close()`` (twice) the results
and the logs are still readable.
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
