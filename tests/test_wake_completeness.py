"""Wake completeness: a delivery rechecks every transaction it can change.

``DvPSite.deliver`` no longer rechecks every active transaction after
a Vm or an ack — only those in ``site.wakeable`` (transactions awaiting
read responders or holding view certificates; DESIGN.md, "Hot path").
The old blanket recheck survives here, as the oracle: after *every*
delivery, under randomized mixes of full reads, view reads, transfers,
a crash/recovery and a live reshard,

* no GATHERING transaction outside the woken set satisfies
  ``_sufficient()`` — the skipped rechecks would all have been no-ops;
* the index is exactly ``{t for t in active if reads or certs}``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    ReadViewOp,
    TransactionSpec,
    TransferOp,
    _State,
)
from repro.net.link import LinkConfig
from repro.reads import ViewConfig

SITES = ["S0", "S1", "S2", "S3"]
ITEMS = ["a", "b", "c"]


def _system(seed=1, cc="conc1", partitioner="consistent",
            **config) -> DvPSystem:
    system = DvPSystem(SystemConfig(
        sites=list(SITES), seed=seed, cc=cc, txn_timeout=12.0,
        read_freeze=3.0, partitioner=partitioner, replicas=2,
        views=ViewConfig(refresh_period=4.0), **config))
    for item in ITEMS:
        # A small quota: most decrements and transfers must pull Vm.
        system.add_item(item, CounterDomain(),
                        split={name: 6 for name in SITES})
    return system


def _expected_index(site) -> set[str]:
    return {txn.id for txn in site.active.values()
            if txn._read_responders or txn._view_certs}


def _check(site, checked: list[int]) -> None:
    assert site.wakeable == _expected_index(site)
    for txn in site.active.values():
        if txn.state is _State.GATHERING and txn.id not in site.wakeable:
            assert not txn._sufficient(), \
                f"{txn.id} became sufficient without being woken"
            checked[0] += 1


def _watch_deliveries(system: DvPSystem) -> list[int]:
    """Run the oracle after every delivery at every site."""
    checked = [0]
    for name, site in system.sites.items():
        def deliver(envelope, site=site, inner=site.deliver):
            inner(envelope)
            _check(site, checked)
        system.network.replace_handler(name, deliver)
    return checked


OPS = st.one_of(
    st.builds(lambda item: (ReadFullOp(item),), st.sampled_from(ITEMS)),
    st.builds(lambda item, bound: (ReadViewOp(item, bound=bound),),
              st.sampled_from(ITEMS),
              st.sampled_from((1.0, 3.0, 8.0, None))),
    # Mixed: a certificate held while value is gathered for the update.
    st.builds(lambda bound, amount: (ReadViewOp("a", bound=bound),
                                     DecrementOp("b", amount)),
              st.sampled_from((1.0, 3.0)), st.integers(7, 14)),
    st.builds(lambda pair, amount: (TransferOp(pair[0], pair[1], amount),),
              st.permutations(ITEMS), st.integers(3, 14)),
    st.builds(lambda item, amount: (DecrementOp(item, amount),),
              st.sampled_from(ITEMS), st.integers(3, 14)),
    st.builds(lambda item, amount: (IncrementOp(item, amount),),
              st.sampled_from(ITEMS), st.integers(1, 5)),
)

ARRIVALS = st.lists(
    st.tuples(st.floats(min_value=4.0, max_value=40.0),
              st.sampled_from(SITES), OPS),
    min_size=8, max_size=40)


@given(seed=st.integers(0, 2**16), arrivals=ARRIVALS,
       cc=st.sampled_from(("conc1", "conc2")),
       crash_at=st.floats(min_value=5.0, max_value=35.0),
       outage=st.floats(min_value=2.0, max_value=12.0),
       reshard_at=st.floats(min_value=5.0, max_value=35.0),
       replicas=st.sampled_from((1, 3)))
# Results in commit order (DESIGN.md §6, finding 9): S0-S2 spend b down
# to 6 on the books, S3#2 (decrement b 7) queues under Conc2 behind
# S3#1 (transfer c -> b 7) and is granted b inside S3#1's release. A
# release ahead of the releaser's result put S3#2's -7 on the books
# before S3#1's +7, and the auditor refused it.
@example(seed=0, arrivals=[(4.0, "S0", (DecrementOp("b", 6),)),
                           (4.0, "S1", (DecrementOp("b", 6),)),
                           (4.0, "S2", (DecrementOp("b", 6),)),
                           (5.0, "S3", (TransferOp("c", "b", 7),)),
                           (5.5, "S3", (DecrementOp("b", 7),))],
         cc="conc2", crash_at=35.0, outage=2.0, reshard_at=35.0,
         replicas=3)
# The same order, as a random search (the `search` profile) found it
# under a crash and a reshard to one replica.
@example(seed=0, arrivals=[(4.0, "S0", (ReadFullOp("a"),)),
                           (4.0, "S0", (ReadFullOp("a"),)),
                           (4.0, "S0", (ReadFullOp("a"),)),
                           (19.0, "S0", (ReadFullOp("a"),)),
                           (21.0, "S0", (DecrementOp("c", 11),)),
                           (4.0, "S0", (TransferOp("c", "b", 3),)),
                           (4.0, "S2", (TransferOp("c", "b", 11),)),
                           (19.0, "S0", (TransferOp("a", "c", 3),))],
         cc="conc2", crash_at=5.0, outage=2.0, reshard_at=5.0,
         replicas=1)
@settings(max_examples=30, deadline=None)
def test_no_unwoken_transaction_is_ever_sufficient(
        seed, arrivals, cc, crash_at, outage, reshard_at, replicas):
    system = _system(seed=seed, cc=cc,
                     link=LinkConfig(base_delay=1.0, jitter=0.5,
                                     duplicate_probability=0.1))
    _watch_deliveries(system)
    sim = system.sim

    def submit(site, ops):
        if system.sites[site].alive:
            system.submit(site, TransactionSpec(ops=ops))

    for at, site, ops in arrivals:
        sim.at_site(site, at, lambda site=site, ops=ops: submit(site, ops))

    def crash():
        system.crash("S1")
        assert system.sites["S1"].wakeable == set()

    sim.at_site("S1", crash_at, crash)
    sim.at_site("S1", crash_at + outage, lambda: system.recover("S1"))
    sim.at_global(reshard_at, lambda: system.reshard(replicas))
    system.run_until(120.0)
    for site in system.sites.values():
        assert not site.active and not site.wakeable
    system.auditor.assert_ok()


def test_the_oracle_runs_and_has_teeth():
    system = _system(partitioner="all")
    checked = _watch_deliveries(system)
    # Needs three peers' quotas: still gathering after the first two.
    system.submit("S0", TransactionSpec(ops=(DecrementOp("b", 20),)))
    system.run_for(30.0)
    assert system.results[0].committed
    assert checked[0] > 0  # unwoken GATHERING transactions were judged
    txn = system.submit("S0", TransactionSpec(ops=(ReadFullOp("a"),)))
    system.sites["S0"].wakeable.discard(txn.id)  # sabotage the index
    with pytest.raises(AssertionError):
        system.run_for(30.0)


def test_index_follows_a_read_from_start_to_finish():
    system = _system()
    site = system.sites["S0"]
    done = []
    txn = system.submit("S0", TransactionSpec(ops=(ReadFullOp("a"),)),
                        done.append)
    assert site.wakeable == {txn.id}  # indexed at start
    plain = system.submit("S0", TransactionSpec(ops=(DecrementOp("b", 9),)))
    assert plain.state is _State.GATHERING
    assert site.wakeable == {txn.id}  # no reads, no certificates: never
    system.run_for(30.0)
    assert done and done[0].committed
    assert site.wakeable == set()  # removed at finish


def test_escalation_indexes_a_view_read_and_crash_empties_the_index():
    system = _system()
    site = system.sites["S0"]
    # Cold cache: the view read escalates to the fan-out at start.
    txn = system.submit("S0", TransactionSpec(ops=(ReadViewOp("a"),)))
    assert txn._read_responders and site.wakeable == {txn.id}
    system.crash("S0")
    assert site.wakeable == set() and not site.active


def test_peer_cache_is_dropped_by_join_decommission_and_reshard():
    system = _system()
    site = system.sites["S0"]
    peers = site.peers()
    assert peers == ("S1", "S2", "S3")
    assert site.peers() is peers  # served from the cache
    system.add_site("S4")  # network membership and epoch both move
    joined = site.peers()
    assert joined == ("S1", "S2", "S3", "S4")
    system.run_for(80.0)
    system.remove_site("S4")  # stays registered until drained: epoch only
    drained = site.peers()
    assert drained == joined and drained is not joined
    system.run_for(80.0)
    system.reshard(3)  # epoch bump alone
    assert site.peers() == joined and site.peers() is not drained
    assert system.sites["S4"].peers() == ("S0", "S1", "S2", "S3")
