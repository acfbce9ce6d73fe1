"""Lifetimes of finished work (ISSUES 14 and 15; DESIGN.md §7).

The rule these tests pin: a run retains, per committed op, one
``TxnResult`` and one log record's bytes — nothing else — and
everything a finished transaction owned is freed *by reference
counting*, never left for the cycle collector. Every test runs with
the collector **disabled** (tests may; ``src/`` may not), so a dead
weakref proves the graph died by refcount, and ``gc.collect()``
returning 0 proves a run built no cyclic garbage at all.

(a) a weakref to every finished ``Transaction`` is dead once the
    caller drops its handle — every way a transaction can end;
(b) a cancelled ``Event`` still sitting in the queue references no
    callable, and the live-event count is what it always was;
(c) a retained-object budget per op, with the per-type table of what
    was retained printed on failure, so a change that re-pins a
    transaction shows *which* type leaked;
(d) the same rule one level up: a system closed by whoever built it
    and then dropped leaves nothing for the collector either — under
    every transport, kernel and add-on, with a crash behind it and
    retransmits, timeouts and leases still pending — and ``explore()``
    closes each plan's system once ``on_run`` has seen it;
(e) and for every system that answers the ``System`` contract: each
    baseline, and a ``HybridSystem`` over its ``DvPSystem`` (ISSUE 18).
"""

import gc
import tracemalloc
import weakref
from collections import Counter, defaultdict

import pytest

from repro.baselines import (
    CentralCounterSystem,
    PaxosCommitSystem,
    PrimaryCopySystem,
    QuorumSystem,
    TwoPCSystem,
)
from repro.baselines.common import BaselineConfig
from repro.chaos.explore import explore
from repro.chaos.runner import ChaosConfig
from repro.core.domain import CounterDomain
from repro.core.rebalance import RebalanceConfig, install_rebalancing
from repro.core.system import DvPSystem, SystemConfig
from repro.hybrid import HybridSystem
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    ReadViewOp,
    Transaction,
    TransactionSpec,
    TransferOp,
)
from repro.net.link import LinkConfig
from repro.net.outbox import BundlingConfig
from repro.reads import ViewConfig
from repro.reads.views import SiteViewCache, ViewService
from repro.serving import ServingConfig, ServingFrontend
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator
from repro.sim.timers import Timer
from tests.heap_queue import HeapEventQueue

SITES = ["A", "B", "C", "D"]


class WatchableTransaction(Transaction):
    """``Transaction`` is slotted and ``src/`` may not name
    ``__weakref__`` (CI greps), so what these tests watch is this
    subclass: the same code plus the one slot a weak reference needs."""

    __slots__ = ("__weakref__",)


@pytest.fixture(autouse=True)
def collector_off(monkeypatch):
    monkeypatch.setattr("repro.core.site.Transaction", WatchableTransaction)
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _holders(obj) -> dict:
    """Who still points at a leaked object (by type), for the report."""
    return dict(Counter(type(referrer).__name__
                        for referrer in gc.get_referrers(obj)))


def _census() -> Counter:
    return Counter(type(obj).__name__ for obj in gc.get_objects())


def _table(grown: Counter, rows: int = 12) -> str:
    return "\n".join(f"  {count:>8}  {name}"
                     for name, count in grown.most_common(rows))


def _untracks_tuples() -> bool:
    """Does one collector pass stop tracking a tuple of atoms?"""
    flat = tuple(["txn", "item", 1, 0])  # built at run time: tracked
    gc.collect()
    return not gc.is_tracked(flat)


class Watched:
    """A system whose every submitted ``Transaction`` is weakly watched."""

    def __init__(self, **config) -> None:
        config.setdefault("sites", SITES)
        config.setdefault("txn_timeout", 10.0)
        config.setdefault("link", LinkConfig(base_delay=1.0))
        self.system = DvPSystem(SystemConfig(seed=14, **config))
        self.refs: list[weakref.ref] = []
        submit = self.system.submit

        def watched(site, spec, on_done=None):
            txn = submit(site, spec, on_done)
            assert isinstance(txn, Transaction)  # not a wrapper of one
            self.refs.append(weakref.ref(txn))
            return txn

        # Instance attribute: the serving front-end calls
        # ``system.submit`` too, so its transactions are watched.
        self.system.submit = watched

    def submit(self, site: str, *ops, work: float = 0.0) -> None:
        # The returned handle is dropped here: the caller lets go.
        self.system.submit(site, TransactionSpec(ops=ops, work=work))

    def reasons(self) -> list[str]:
        return [result.reason for result in self.system.results]

    def assert_all_dead(self) -> None:
        alive = [ref() for ref in self.refs if ref() is not None]
        assert self.refs, "scenario watched no transaction"
        assert not alive, (
            f"{len(alive)} of {len(self.refs)} finished transactions are "
            f"still alive with the collector off; {alive[0].id} "
            f"({alive[0].state.value}) is held by {_holders(alive[0])}")


# -- (a) finished transactions die by refcount ---------------------------------

class TestFinishedTransactionsAreFreed:
    def test_instant_local_commit(self):
        run = Watched()
        run.system.add_item("x", CounterDomain(), total=400)
        run.submit("A", DecrementOp("x", 1))
        assert run.reasons() == ["ok"]
        run.assert_all_dead()

    def test_commit_after_work(self):
        run = Watched()
        run.system.add_item("x", CounterDomain(), total=400)
        run.submit("A", IncrementOp("x", 1), work=0.5)
        run.system.run_for(1.0)
        assert run.reasons() == ["ok"]
        run.assert_all_dead()

    def test_commit_after_pulling_remote_value(self):
        run = Watched()
        run.system.add_item("x", CounterDomain(), split={"A": 0, "B": 50})
        run.submit("A", DecrementOp("x", 5))
        run.system.run_for(8.0)
        assert run.reasons() == ["ok"]
        assert run.system.sim.metrics.total("vm.created") > 0
        run.assert_all_dead()

    def test_locked_abort(self):
        run = Watched()
        run.system.add_item("x", CounterDomain(), total=400)
        run.submit("A", DecrementOp("x", 1), work=2.0)
        run.submit("A", DecrementOp("x", 1))
        assert run.reasons() == ["locked"]
        run.system.run_for(3.0)
        assert run.reasons() == ["locked", "ok"]
        run.assert_all_dead()

    def test_timeout(self):
        run = Watched()
        run.system.add_item("x", CounterDomain(), total=40)
        run.submit("A", DecrementOp("x", 400))
        run.system.run_for(12.0)
        assert run.reasons() == ["timeout"]
        run.assert_all_dead()

    def test_crash_wipes_a_gathering_transaction(self):
        run = Watched()
        run.system.add_item("x", CounterDomain(), split={"A": 0, "B": 50})
        run.submit("A", DecrementOp("x", 5))
        assert run.refs[0]() is not None  # gathering: the site holds it
        run.system.crash("A")
        assert run.reasons() == []  # the client never hears
        run.assert_all_dead()

    def test_crash_wipes_a_computing_transaction(self):
        run = Watched()
        run.system.add_item("x", CounterDomain(), total=400)
        run.submit("A", DecrementOp("x", 1), work=2.0)
        run.system.crash("A")
        # Its scheduled commit still fires (and finds the site wiped);
        # the kernel lets go of it then.
        run.system.run_for(3.0)
        assert run.reasons() == []
        run.assert_all_dead()

    def test_conc2_commit_from_the_lock_queue(self):
        run = Watched(cc="conc2", sync_delay=1.0)
        run.system.add_item("x", CounterDomain(), total=400)
        run.submit("A", DecrementOp("x", 1), work=2.0)
        run.submit("A", DecrementOp("x", 1))  # queues behind the first
        assert run.reasons() == []
        run.system.run_for(5.0)
        assert run.reasons() == ["ok", "ok"]
        run.assert_all_dead()

    def test_conc2_timeout_in_the_lock_queue(self):
        run = Watched(cc="conc2", sync_delay=1.0, txn_timeout=3.0)
        run.system.add_item("x", CounterDomain(), total=400)
        run.submit("A", DecrementOp("x", 1), work=8.0)
        run.submit("A", DecrementOp("x", 1))  # waits past its timeout
        run.system.run_for(12.0)
        assert run.reasons() == ["timeout", "ok"]
        run.assert_all_dead()

    def test_through_the_serving_frontend(self):
        run = Watched()
        run.system.add_item("x", CounterDomain(), total=4000)
        frontend = ServingFrontend(run.system, ServingConfig(
            router="least-queue", max_inflight=1, max_depth=None))
        frontend.start()
        spec = TransactionSpec(ops=(DecrementOp("x", 1),), work=0.5)
        instant = TransactionSpec(ops=(IncrementOp("x", 1),))
        gc.collect()
        for index in range(12):
            # One slot per site: most of these wait in the queue.
            frontend.submit(SITES[index % 2], spec)
            frontend.submit(SITES[index % 2], instant)
        run.system.run_for(20.0)
        frontend.stop()
        assert run.reasons().count("ok") == 24
        run.assert_all_dead()
        # The slot's closures and its lease timer died by refcount too.
        assert gc.collect() == 0

    def test_on_done_is_released_after_use(self):
        # A callback that (like most test and harness code) closes
        # over the handle it was given must not pin the transaction.
        run = Watched()
        run.system.add_item("x", CounterDomain(), total=400)
        seen = []

        def submit():
            box = {}
            box["txn"] = run.system.submit(
                "A", TransactionSpec(ops=(DecrementOp("x", 1),), work=0.5),
                lambda result: seen.append((box["txn"].id, result.reason)))

        submit()
        run.system.run_for(1.0)
        assert seen == [("A#1", "ok")]
        run.assert_all_dead()


# -- (b) a cancelled event is a husk -------------------------------------------

class TestCancelledEventIsAHusk:
    @pytest.mark.parametrize("queue", [EventQueue, HeapEventQueue])
    def test_queued_corpse_references_no_callable(self, queue):
        sim = Simulator(seed=1, queue_factory=queue)
        fired = []

        class Target:
            def fire(self):
                fired.append("cancelled")

        target = Target()
        watch = weakref.ref(target)
        sim.after(1.0, lambda: fired.append("kept"))
        corpse = sim.after(2.0, target.fire, label="doomed")
        del target
        assert watch() is not None and sim.pending == 2
        corpse.cancel()
        assert corpse.cancelled and corpse.queue is not None  # still stored
        assert corpse.action is None
        assert watch() is None
        assert sim.pending == 1
        sim.run()
        assert fired == ["kept"] and sim.steps == 1 and sim.pending == 0

    def test_cancelled_timer_dies_with_its_owner(self):
        sim = Simulator(seed=1)

        class Owner:
            def __init__(self):
                self.timer = Timer(sim, self.expired)

            def expired(self):
                raise AssertionError("disarmed")

        # Cancelled: the queue holds a husk, only the owner the timer.
        owner = Owner()
        owner.timer.start(5.0)
        owner.timer.cancel()
        watch = weakref.ref(owner.timer)
        owner.timer = None
        assert watch() is None
        # Closed: owner <-> timer is no longer a cycle.
        owner = Owner()
        owner.timer.start(5.0)
        owner.timer.close()
        assert not owner.timer.armed
        watch = weakref.ref(owner)
        del owner
        assert watch() is None
        sim.run()
        assert sim.steps == 0

    def test_event_counts_are_what_they_were(self):
        # 40 local commits with work: each schedules its commit event
        # and nothing else. (Until ISSUE 17 each also armed a timeout
        # and cancelled it inside the same submit call: 80 / 120
        # scheduled, 40 of 120 cancelled.) Scheduled, executed and
        # cancelled counts — the suite's sim.cancel_share — are pinned.
        system = DvPSystem(SystemConfig(sites=SITES, seed=14))
        system.add_item("x", CounterDomain(), total=4000)
        scheduled = 0
        push = system.sim._queue.push

        def counting_push(*args, **kwargs):
            nonlocal scheduled
            scheduled += 1
            return push(*args, **kwargs)

        system.sim._queue.push = counting_push
        for index in range(40):
            system.sim.at_site(
                SITES[index % 4], 1.0 + index,
                lambda site=SITES[index % 4]: system.submit(
                    site, TransactionSpec(ops=(DecrementOp("x", 1),),
                                          work=0.25)),
                label="arrival")
        system.run_until(20.5)
        assert (scheduled, system.sim.steps, system.sim.pending) \
            == (60, 40, 20)
        system.run_until(100.0)
        assert (scheduled, system.sim.steps, system.sim.pending) \
            == (80, 80, 0)  # nothing cancelled


# -- (c) retained-object budget ------------------------------------------------

def _local_commit_run(ops: int, warm: int = 200, census=_census):
    """Single-op local commits with a service time, 16 items. *census*
    runs once, after *warm* requests (as in :func:`_served_run`)."""
    system = DvPSystem(SystemConfig(sites=SITES, seed=14, txn_timeout=30.0))
    items = [f"item{index}" for index in range(16)]
    for item in items:
        system.add_item(item, CounterDomain(), total=4_000_000)
    specs = [TransactionSpec(ops=(verb(item, 1 + index % 3),),
                             label=verb.__name__, work=0.004)
             for index, item in enumerate(items)
             for verb in (IncrementOp, DecrementOp)]
    before = None
    for index in range(warm + ops):
        if index == warm:
            gc.collect()
            before = census()
        site, spec = SITES[index % 4], specs[index % len(specs)]
        # One arrival every 0.01: an item is reused every 0.32, long
        # after its 0.004 of work released the lock.
        system.run_until(index * 0.01)
        system.submit(site, spec)
    system.run_until((warm + ops) * 0.01 + 60.0)
    return system, before


def _fanout_run(ops: int, warm: int = 80, census=_census):
    """Two-op transfers whose sources are funded only at the peers:
    commits pull remote value as Vm (the suite's transfer shape)."""
    system = DvPSystem(SystemConfig(
        sites=SITES, seed=14, txn_timeout=15.0, retransmit_period=12.0,
        link=LinkConfig(base_delay=2.0, jitter=1.0)))
    slots = 20
    for site in SITES:
        funded = {peer: 1_000_000 for peer in SITES if peer != site}
        for index in range(2 * slots):
            system.add_item(f"acct_{site}_{index}", CounterDomain(),
                            split=funded)
            system.add_item(f"sink_{site}_{index}", CounterDomain(),
                            split={name: 1 for name in SITES})
    before = None
    for index in range(warm + ops):
        if index == warm:
            gc.collect()
            before = census()
        site, peer = SITES[index % 4], SITES[(index + 1 + index // 4) % 4]
        if peer == site:
            peer = SITES[(index + 2) % 4]
        base = 2 * ((index // 4) % slots)
        # Growing amounts: what earlier pulls left behind never covers
        # the next need, so every transfer asks its peers again.
        amount = 10 + index
        spec = TransactionSpec(ops=tuple(
            TransferOp(f"acct_{site}_{base + j}", f"sink_{peer}_{base + j}",
                       amount) for j in range(2)), label="transfer")
        # One arrival per site every 2.0: a slot is reused after 40,
        # well past the 15 a transaction can hold its locks.
        system.run_until(index * 0.5)
        system.submit(site, spec)
    system.run_until((warm + ops) * 0.5 + 60.0)
    return system, before


def _served_run(ops: int, views: bool, warm: int = 200, census=_census):
    """Requests through a serving front-end, one arrival every 0.05.
    With *views*: mostly bounded view reads behind the view-aware
    router, beside a deposit in every eighth request; without: single-
    op local commits with a service time behind least-queue. *census*
    is what the returned ``before`` is: it runs once, after *warm*
    requests."""
    system = DvPSystem(SystemConfig(
        sites=SITES, seed=14, txn_timeout=30.0,
        link=LinkConfig(base_delay=1.0, jitter=0.5),
        views=ViewConfig(refresh_period=2.0) if views else None))
    items = [f"item{index}" for index in range(8)]
    for item in items:
        system.add_item(item, CounterDomain(), total=4_000_000)
    frontend = ServingFrontend(system, ServingConfig(
        router="view-aware" if views else "least-queue", max_inflight=4,
        max_depth=None))
    frontend.start()
    if views:
        specs = [TransactionSpec(ops=(ReadViewOp(item, bound=8.0),),
                                 label="estimate") for item in items]
        specs += [TransactionSpec(ops=(IncrementOp(item, 5),),
                                  label="deposit") for item in items[:1]]
    else:
        specs = [TransactionSpec(ops=(verb(item, 1 + index % 3),),
                                 label=verb.__name__, work=0.004)
                 for index, item in enumerate(items)
                 for verb in (IncrementOp, DecrementOp)]
    # Load starts once the first refresh round has landed everywhere:
    # no read waits out a fan-out behind a cold cache.
    start = 4.0
    before = None
    for index in range(warm + ops):
        if index == warm:
            gc.collect()
            before = census()
        system.run_until(start + index * 0.05)
        frontend.submit(SITES[index % 4], specs[index % len(specs)])
    system.run_until(start + (warm + ops) * 0.05 + 60.0)
    frontend.stop()
    return system, frontend, before


def _record_serves(monkeypatch) -> dict:
    """Transaction id → {item: the certificate its site's cache served
    it last} for every view read from now on."""
    served: dict[str, dict] = defaultdict(dict)
    serve = SiteViewCache.serve

    def recording(cache, item, bound, txn=""):
        cert = serve(cache, item, bound, txn)
        if cert is not None:
            served[txn][item] = cert
        return cert

    monkeypatch.setattr(SiteViewCache, "serve", recording)
    return served


def _retained_bytes(run, **kwargs):
    """Run ``run(census=..., **kwargs)`` under tracemalloc: the system
    and the bytes the heap grew by from the warm-up census to the end.

    The census counts tracked objects only; a tuple or dict of atoms
    is never tracked, and a histogram sample is no object at all, so
    bytes are what shows them."""
    at_warm = []

    def census():
        at_warm.append(tracemalloc.get_traced_memory()[0])
        return _census()

    tracemalloc.start()
    try:
        system, *_ = run(census=census, **kwargs)
        gc.collect()
        return system, tracemalloc.get_traced_memory()[0] - at_warm[0]
    finally:
        tracemalloc.stop()


def _assert_budget(system, before: Counter, ops: int, per_op: float,
                   what: str) -> None:
    committed = len(system.committed())
    assert committed == len(system.results), Counter(
        result.reason for result in system.results if not result.committed)
    cyclic = gc.collect()
    # The collector stops tracking a tuple of atoms when it sees it,
    # one level of nesting per pass: a result's ``view_rows`` (rows in
    # a tuple) needs the second; its ``delta_row`` is one flat row. A
    # live run's young passes do both long before anything reaches the
    # oldest generation.
    gc.collect()
    grown = _census() - before
    total = sum(grown.values())
    problems = []
    if cyclic:
        problems.append(
            f"the run left {cyclic} objects only the cycle collector "
            "could free — finished work must die by refcount")
    if total > per_op * ops:
        problems.append(
            f"{total} tracked objects retained over {ops} ops "
            f"({total / ops:.2f} per op, budget {per_op})")
    assert not problems, (
        f"{what}: {'; '.join(problems)}. Retained, by type:\n"
        f"{_table(grown)}")


@pytest.mark.skipif(
    not _untracks_tuples(),
    reason="this interpreter's collector does not untrack tuples of "
           "atoms, which the object budget relies on for a result's "
           "rows; the weakref and husk checks above still run")
class TestRetainedObjectBudget:
    # Measured: 1.02 (the TxnResult) and 1.29 per op; before ISSUE 14,
    # 4.9 and 44 — every log record and its rows, tracked for good.

    def test_local_commit(self):
        system, before = _local_commit_run(ops=2000)
        assert len(system.results) == 2200
        _assert_budget(system, before, 2000, 1.5, "local commit")

    def test_transfer_fanout(self):
        system, before = _fanout_run(ops=500)
        assert len(system.results) == 580
        assert system.sim.metrics.total("vm.created") >= 2 * 580
        _assert_budget(system, before, 500, 1.5, "transfer fan-out")

    def test_view_reads_behind_a_view_aware_frontend(self):
        # Measured: 1.0 per op (the TxnResult); 3.79 while a front-end
        # kept a ServeSample per request and a result its view_reads
        # dict and ViewCertificate.
        system, frontend, before = _served_run(ops=2000, views=True)
        assert len(frontend.samples) == len(system.results) == 2200
        served = [result for result in system.results if result.view_reads]
        assert len(served) > 1500
        _assert_budget(system, before, 2000, 1.5, "served view reads")

    def test_local_commit_retains_few_bytes(self):
        # Per op a result, its flat delta row, its id and two times, one
        # commit record's bytes in the log arena and an 8-byte latency
        # sample. Measured: 366 B per op; 477 while the log kept each
        # record as a tuple, and 536 before that while a sample was a
        # float in a list and the deltas a tuple of triples.
        system, retained = _retained_bytes(_local_commit_run, ops=2000)
        assert len(system.results) == 2200
        assert retained <= 420 * 2000, (
            f"{retained / 2000:.0f} B retained per op, budget 420")

    def test_transfer_fanout_retains_few_bytes(self):
        # Measured: 1239 B per op; 2099 while the log kept each record
        # as a tuple with the owner names, stamps and channel seqs only
        # it referenced, and 2446 before that while samples were floats
        # in lists, the deltas a tuple of triples, and every site fed a
        # demand ledger that no planner read.
        system, retained = _retained_bytes(_fanout_run, ops=500)
        assert len(system.results) == 580
        assert retained <= 1400 * 500, (
            f"{retained / 500:.0f} B retained per op, budget 1400")

    def test_view_reads_retain_few_bytes(self):
        # A dict or tuple of atoms is never tracked, so bytes are what
        # shows a per-read mapping or row. Measured: 381 B per op.
        system, retained = _retained_bytes(_served_run, ops=2000,
                                           views=True)
        assert len(system.results) == 2200
        assert retained <= 420 * 2000, (
            f"{retained / 2000:.0f} B retained per op, budget 420")

    def test_a_served_read_shares_its_mappings(self, monkeypatch):
        """A view-served read's ``read_values`` is the read-only mapping
        its entry was minted with — one object at every site the entry
        served — and single-item reads at one in-flight total share one
        ``inflight_at_commit``."""
        published = {}
        publish = ViewService.publish

        def recording(service):
            publish(service)
            for item, entry in service.latest.items():
                published[item, entry.as_of] = entry

        monkeypatch.setattr(ViewService, "publish", recording)
        system, _, _ = _served_run(ops=400, views=True)
        served = [result for result in system.results if result.view_rows]
        assert len(served) > 400
        sites = defaultdict(set)
        samples = defaultdict(set)
        for result in served:
            ((item, _value, as_of, *_rest),) = result.view_rows
            assert result.read_values is published[item, as_of].reads
            sites[id(result.read_values)].add(result.site)
            samples[item, result.inflight_at_commit[item]].add(
                id(result.inflight_at_commit))
        assert max(len(at) for at in sites.values()) == len(SITES)
        assert set(map(len, samples.values())) == {1}
        with pytest.raises(TypeError):
            served[0].read_values["item0"] = 0
        with pytest.raises(TypeError):
            served[0].inflight_at_commit["item0"] = 0

    def test_plain_serving(self):
        # Measured: 1.0 per op; 2.0 while a front-end kept a ServeSample
        # per request.
        system, frontend, before = _served_run(ops=2000, views=False)
        assert len(frontend.samples) == len(system.results) == 2200
        _assert_budget(system, before, 2000, 1.5, "plain serving")

    def test_certificates_are_rows_built_on_access(self, monkeypatch):
        # A result stores exact tuples of atoms and builds its
        # certificates anew, equal every time, on each access: the
        # certificates its site's cache served.
        served_certs = _record_serves(monkeypatch)
        system, _, _ = _served_run(ops=200, views=True, warm=0)
        served = [result for result in system.results if result.view_reads]
        assert served
        for result in served:
            assert result.view_reads == result.view_reads
            assert result.view_reads is not result.view_reads
            assert all(type(row) is tuple for row in result.view_rows)
            assert all(type(atom) in (str, int, float, type(None))
                       for row in result.view_rows for atom in row)
            assert result.view_reads == served_certs[result.txn_id]
        gc.collect()
        gc.collect()
        assert not any(gc.is_tracked(row) for result in served
                       for row in result.view_rows)

    def test_a_certified_read_shares_its_certificate_row(self,
                                                         monkeypatch):
        """Every read one view entry certifies under one bound, and
        decides in that instant, holds the same row object at every
        site — and still reads back the certificate it was served."""
        served_certs = _record_serves(monkeypatch)
        system, _, _ = _served_run(ops=400, views=True)
        rows = defaultdict(list)
        sites = defaultdict(set)
        for result in system.results:
            if not result.view_rows:
                continue
            ((item, _value, as_of, _checked, bound, _epoch),) = \
                result.view_rows
            rows[item, as_of, bound].append(result.view_rows)
            sites[item, as_of, bound].add(result.site)
            assert result.view_reads == served_certs[result.txn_id]
        assert sum(map(len, rows.values())) > 400
        for shared in rows.values():
            assert all(row is shared[0] for row in shared)
        assert max(map(len, sites.values())) == len(SITES)


# -- (d) a closed system dies by refcount ---------------------------------------

SITES_OF_PLAN = ChaosConfig().site_names()


def _build(**config) -> DvPSystem:
    system = DvPSystem(SystemConfig(
        sites=SITES, seed=15, txn_timeout=10.0, retransmit_period=3.0,
        checkpoint_interval=4, link=LinkConfig(base_delay=1.0, jitter=0.5),
        **config))
    # A holds nothing of "y" or "z": what it sells it must pull as Vm.
    system.add_item("x", CounterDomain(),
                    split={"A": 40, "B": 10, "C": 30, "D": 20})
    for item in ("y", "z"):
        system.add_item(item, CounterDomain(),
                        split={"A": 0, "B": 30, "C": 30, "D": 30})
    return system


def _ops(index: int):
    if index == 9:
        return (ReadFullOp("x"),)
    kind = index % 5
    if kind == 0:
        return (DecrementOp("y", 2 + index % 5),)
    if kind == 1:
        return (IncrementOp("x", 3),)
    if kind == 2:
        return (TransferOp("x", "y", 2),)
    if kind == 3:
        return (ReadViewOp("y", bound=8.0),)
    return (DecrementOp("x", 1 + index % 7),)


def _run_and_leave_work_pending(system: DvPSystem, submit=None) -> None:
    """Thirty busy sim units with a crash and a recovery in them, then
    stop in mid-air: A's last transaction has asked every peer for
    "z", the Vm answering it were swallowed by a partition and are
    being retransmitted, and its timeout is still ahead."""
    submit = submit or system.submit
    sim = system.sim
    for index in range(24):
        site = SITES[index % 4]
        sim.at_site(site, 0.5 + index,
                    lambda site=site, index=index:
                    system.sites[site].alive and submit(
                        site, TransactionSpec(ops=_ops(index), work=0.2)),
                    label="arrival")
    sim.at_site("B", 8.0, lambda: system.crash("B"), label="crash")
    sim.at_site("B", 16.0, lambda: system.recover("B"), label="recover")
    sim.at_site("A", 26.5,
                lambda: submit("A", TransactionSpec(
                    ops=(DecrementOp("z", 60),))),
                label="arrival")
    sim.at_global(28.2, lambda: system.network.partition([["A"]]),
                  label="partition")
    system.run_until(30.0)
    assert system.sites["B"].crash_count == 1
    assert system.sites["A"].active, "scenario left no undecided txn"
    assert sum(site.vm.unacked_count()
               for site in system.sites.values()) > 0, \
        "scenario left no Vm retransmitting"
    assert sim.pending > 0


def _close(system: DvPSystem) -> weakref.ref:
    """close() it; the caller drops it and hands the ref to _freed."""
    results = system.results
    decided = len(results)
    assert decided > 10
    system.close()
    # What the run produced outlives the close, in place.
    assert system.results is results and len(results) == decided
    assert system.sim.pending == 0
    return weakref.ref(system)


def _freed(watch: weakref.ref) -> bool:
    """Dead by refcount, and nothing left over for the collector."""
    assert watch() is None, (
        f"a closed, dropped system is still held by {_holders(watch())}")
    found = gc.collect()
    assert found == 0, (
        f"close() left {found} objects only the cycle collector could free")
    return True


class TestSystemLifetime:
    @pytest.mark.parametrize("config", [
        {},
        {"bundling": BundlingConfig(flush_delay=1.0)},
        {"shards": 2},
        {"shards": 2, "bundling": BundlingConfig(flush_delay=0.0)},
        {"cc": "conc2", "sync_delay": 1.0},
    ], ids=["plain", "bundling", "shards2", "shards2-bundled", "conc2"])
    def test_closed_system_is_freed_by_refcount(self, config):
        system = _build(**config)
        _run_and_leave_work_pending(system)
        closed = _close(system)
        del system
        assert _freed(closed)

    def test_an_unclosed_system_is_a_cyclic_blob(self):
        # The control: without close() the same run is garbage only
        # the collector can free — so the zeros above mean something.
        system = _build()
        _run_and_leave_work_pending(system)
        del system
        assert gc.collect() > 500

    def test_with_a_serving_frontend(self):
        system = _build()
        frontend = ServingFrontend(system, ServingConfig(
            router="least-queue", max_inflight=1, max_depth=8,
            board_period=4.0))
        frontend.start()
        _run_and_leave_work_pending(system, frontend.submit)
        assert any(queue.inflight for queue in frontend.queues.values()), \
            "scenario left no occupied slot (no armed lease)"
        samples = frontend.samples
        watch = weakref.ref(frontend)
        del frontend  # the system closes what attached itself to it
        closed = _close(system)
        del system
        assert _freed(closed)
        assert watch() is None and len(samples) > 10

    def test_with_views(self):
        system = _build(views=ViewConfig(refresh_period=4.0))
        _run_and_leave_work_pending(system)
        assert system.views.refreshes > 0
        assert any(result.view_reads for result in system.results)
        closed = _close(system)
        del system
        assert _freed(closed)

    def test_with_views_behind_a_view_aware_frontend(self):
        system = _build(views=ViewConfig(refresh_period=4.0),
                        bundling=BundlingConfig(flush_delay=0.0))
        frontend = ServingFrontend(system, ServingConfig(
            router="view-aware", max_inflight=2, board_period=4.0))
        frontend.start()
        _run_and_leave_work_pending(system, frontend.submit)
        del frontend
        closed = _close(system)
        del system
        assert _freed(closed)

    def test_with_rebalance_daemons(self):
        system = _build()
        daemons = install_rebalancing(system, RebalanceConfig(
            period=6.0, high_watermark=1.5, policy="demand-weighted"))
        _run_and_leave_work_pending(system)
        assert all(daemon.running for daemon in daemons.values())
        del daemons
        closed = _close(system)
        del system
        assert _freed(closed)

    def test_with_a_live_reshard(self):
        system = _build(partitioner="consistent", replicas=2)
        system.sim.at_global(12.0, lambda: system.add_site("E"),
                             label="join")
        # Fenced behind A's undecided transaction: still migrating
        # when the run stops.
        system.sim.at_global(27.0, lambda: system.reshard(1),
                             label="reshard")
        _run_and_leave_work_pending(system)
        assert "E" in system.sites and len(system.migrations) == 2
        assert system.reshard_in_progress
        closed = _close(system)
        del system
        assert _freed(closed)

    def test_close_twice_is_a_no_op(self):
        system = _build(bundling=BundlingConfig(flush_delay=0.0),
                        views=ViewConfig(refresh_period=4.0))
        frontend = ServingFrontend(system, ServingConfig())
        frontend.start()
        _run_and_leave_work_pending(system, frontend.submit)
        system.close()
        steps, decided = system.sim.steps, len(system.results)
        counters = [(counter.name, counter.labels, counter.value)
                    for counter in system.sim.metrics.counters()]
        system.close()
        frontend.close()
        assert (system.sim.steps, len(system.results)) == (steps, decided)
        assert [(counter.name, counter.labels, counter.value)
                for counter in system.sim.metrics.counters()] == counters
        del frontend
        closed = _close(system)
        del system
        assert _freed(closed)

    def test_a_crashed_incarnation_dies_by_refcount(self):
        """A crash drops the site: once recovery has replaced it and the
        last timer it armed has passed, nothing holds the old object."""
        system = _build()
        system.submit("A", TransactionSpec(ops=(ReadFullOp("x"),)))
        system.run_for(3.0)
        assert system.sites["B"].locks.holders  # B froze x for A's read
        crashed = weakref.ref(system.sites["B"])
        system.crash("B")
        system.recover("B")
        assert crashed() is not None  # the freeze timer still holds it
        system.run_for(system.config.txn_timeout)
        assert crashed() is None, f"held by {_holders(crashed())}"

    def test_recovery_closes_the_manager_it_replaces(self):
        system = _build()
        stale = weakref.ref(system.sites["B"].vm)
        system.crash("B")
        assert stale() is not None  # kept for the auditor's scans
        system.recover("B")
        assert stale() is None and system.sites["B"].vm is not None

    def test_explore_closes_each_plan_after_on_run(self):
        seen = []

        def on_run(index, result):
            # Live: every back-reference a caller may walk is there.
            system = result.system
            assert system.auditor.system is system
            assert all(site.on_result is not None
                       and site.network.sites == SITES_OF_PLAN
                       for site in system.sites.values())
            assert system.auditor.all_ok()
            seen.append((weakref.ref(system), system.results,
                         len(system.results)))

        config = ChaosConfig(bundle_flush_delay=1.0)
        report = explore(config, budget=8, master_seed=7, on_run=on_run)
        assert report.ok and len(seen) == 8
        for system, results, decided in seen:
            assert system() is None  # closed, dropped, freed — no gc
            assert len(results) == decided > 0  # the copy is intact
        assert gc.collect() == 0

    @pytest.mark.parametrize("config", [
        ChaosConfig(),
        ChaosConfig(serving="least-queue", views=12.0,
                    rebalance="demand-weighted", bundle_flush_delay=1.0),
    ], ids=["plain", "everything"])
    def test_explore_heap_does_not_grow_with_the_budget(self, config):
        def tracked_after(budget: int) -> int:
            report = explore(config, budget=budget, master_seed=11)
            assert report.ok
            del report
            assert gc.collect() == 0
            return len(gc.get_objects())

        tracked_after(3)  # warm every lazy import and cache
        assert tracked_after(30) == tracked_after(120)


# -- (e) every system under the contract ----------------------------------------

def _homed(cls):
    def build():
        system = cls(SITES, seed=15, link=LinkConfig(1.0, jitter=0.5),
                     config=BaselineConfig(txn_timeout=10.0,
                                           retry_period=3.0))
        for index, site in enumerate(SITES):
            system.add_item(f"i{index}", site, 100)
        return system
    return build


def _replicated(cls, *placement, **kwargs):
    def build():
        system = cls(SITES, seed=15, link=LinkConfig(1.0, jitter=0.5),
                     config=BaselineConfig(txn_timeout=10.0,
                                           retry_period=3.0), **kwargs)
        for index in range(4):
            system.add_item(f"i{index}", *placement, 100)
        return system
    return build


def _baseline_ops(index: int, multi_item: bool):
    item, other = f"i{index % 4}", f"i{(index + 1) % 4}"
    if multi_item and index % 3 == 0:
        return (TransferOp(item, other, 2),)
    if index % 3 == 1:
        return (IncrementOp(item, 3),)
    return (DecrementOp(item, 1 + index % 5),)


BASELINES = {
    "2pc": (_homed(TwoPCSystem), True),
    "paxos": (_homed(PaxosCommitSystem), True),
    "quorum": (_replicated(QuorumSystem), False),
    "primary-copy": (_replicated(PrimaryCopySystem, "A"), False),
    "central-lock": (_replicated(CentralCounterSystem, central="A",
                                 mode="lock"), False),
    "central-escrow": (_replicated(CentralCounterSystem, central="A",
                                   mode="escrow"), False),
}


class TestEverySystemUnderTheContract:
    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_closed_baseline_is_freed_by_refcount(self, name):
        build, multi_item = BASELINES[name]
        system = build()
        sim = system.sim
        for index in range(30):
            site = SITES[index % 4]

            def arrive(site=site, index=index) -> None:
                if site in system.sites and not system.sites[site].alive:
                    return  # a down site takes no work
                system.submit(site, TransactionSpec(
                    ops=_baseline_ops(index, multi_item), work=0.2))

            sim.at(0.5 + index, arrive, label="arrival")
        if system.sites:  # the central counter has no crash model
            sim.at(8.0, lambda: system.crash("B"), label="crash")
            sim.at(16.0, lambda: system.recover("B"), label="recover")
        # Stop in mid-air: the last arrivals' messages are swallowed by
        # a partition, their deadlines (and whatever loop re-sends for
        # them) still ahead.
        sim.at(28.2, lambda: system.network.partition([["A"]]),
               label="partition")
        system.run_until(31.0)
        assert sim.pending > 0
        logged = sum(len(site.log) for site in system.sites.values())
        closed = _close(system)
        system.close()  # twice is a no-op
        assert sum(len(site.log)
                   for site in system.sites.values()) == logged
        del system, sim
        assert _freed(closed)

    def test_an_unclosed_baseline_is_a_cyclic_blob(self):
        # The control, as for DvP: the zeros above mean something.
        system = _homed(TwoPCSystem)()
        system.submit("A", TransactionSpec(ops=(TransferOp("i0", "i1", 2),)))
        system.run_for(30.0)
        watch = weakref.ref(system)
        del system
        assert watch() is not None
        assert gc.collect() > 50 and watch() is None

    @pytest.mark.parametrize("path_sensitive", [False, True])
    def test_closed_hybrid_is_freed_with_the_system_it_wraps(
            self, path_sensitive):
        system = _build()
        hybrid = HybridSystem(system, path_sensitive=path_sensitive)
        system.sim.at(0.2, lambda: hybrid.consolidate("x", "A"),
                      label="consolidate")
        _run_and_leave_work_pending(system, hybrid.submit)
        # A forward whose reply cannot come back: its deadline is armed.
        hybrid.submit("C", TransactionSpec(ops=(DecrementOp("x", 1),)))
        assert hybrid.sim.metrics.total("hybrid.forwards") > 0
        assert hybrid._pending
        watch = weakref.ref(hybrid)
        results = hybrid.results
        hybrid.close()
        hybrid.close()
        assert hybrid.results is results and hybrid.sim.pending == 0
        del hybrid
        closed = _close(system)
        del system
        assert _freed(closed)
        assert watch() is None
