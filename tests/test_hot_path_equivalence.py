"""Golden pins for the DvP hot path (ISSUES 13 and 17).

Ten small fixed-seed scenarios, each recorded on the commit *before*
the hot-path subtraction it guards (five before the first subtraction,
the Conc2 retry ties and the serving slots before machinery was built
on demand, the certified view reads before the site decided them
without a ``Transaction``, the local commits before an adequate
transaction skipped the request wave, the Conc2 grants before a grant
inside the submitting call reused its wave's adequacy answer): a
change that only skips work must leave every kernel event
(``trace_fingerprint``), every decision (digest of the committed ids,
in decision order) and the exact counters ``net.sent`` /
``vm.created`` / ``log.forces`` byte-identical. The view-read,
local-commit and Conc2-grant scenarios also pin the trace bus's
timeline text, their own counters and the results' reprs. A diff here
means the optimisation reordered or dropped protocol work, not just
host time.

To re-record after a deliberate protocol change:
``PYTHONPATH=src python tests/test_hot_path_equivalence.py``.
"""

import hashlib
import random

import pytest

from repro.chaos.plan import (
    CrashSite,
    FaultPlan,
    HealNet,
    PartitionNet,
    RecoverSite,
)
from repro.chaos.runner import ChaosConfig, run_chaos
from repro.core.domain import CounterDomain
from repro.core.operators import Application, SetToZero
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    ApplyOp,
    DecrementOp,
    IncrementOp,
    ReadViewOp,
    TransactionSpec,
    TransferOp,
)
from repro.net.link import LinkConfig
from repro.net.outbox import BundlingConfig
from repro.obs.timeline import render_timeline
from repro.reads import ViewConfig
from repro.serving import ServingConfig, ServingFrontend

SITES = ["S0", "S1", "S2", "S3"]
ITEMS = [f"item{index}" for index in range(16)]


def _digest(rows) -> str:
    return hashlib.sha256(
        "\x1f".join(map(str, rows)).encode()).hexdigest()[:16]


def pins(system: DvPSystem) -> dict:
    """Everything a skip-only change must reproduce exactly."""
    committed = hashlib.sha256("\x1f".join(
        result.txn_id for result in system.results
        if result.committed).encode()).hexdigest()
    return {
        "fingerprint": system.sim.trace_fingerprint(),
        "committed": committed[:16],
        "decided": len(system.results),
        "net.sent": system.sim.metrics.total("net.sent"),
        "vm.created": system.sim.metrics.total("vm.created"),
        "log.forces": sum(site.log.forces
                          for site in system.sites.values()),
    }


def _transfer_system(**config) -> DvPSystem:
    """Ask-all transfers between items whose local quota is too small,
    so most commits pull remote value as Vm."""
    system = DvPSystem(SystemConfig(
        sites=SITES, seed=5, txn_timeout=12.0, **config))
    system.sim.enable_trace(limit=0)
    for item in ITEMS:
        system.add_item(item, CounterDomain(), total=24)
    rng = random.Random(17)
    for index in range(60):
        src, dst = rng.sample(ITEMS, 2)
        spec = TransactionSpec(
            ops=(TransferOp(src, dst, rng.randint(5, 12)),),
            label=f"t{index}")
        site = rng.choice(SITES)
        system.sim.at_site(site, rng.uniform(0.0, 40.0),
                           lambda site=site, spec=spec:
                           system.submit(site, spec),
                           label=f"arrival:{site}")
    return system


def transfers_unbundled() -> dict:
    system = _transfer_system(
        link=LinkConfig(base_delay=1.0, jitter=0.5))
    system.run_until(120.0)
    return pins(system)


def transfers_bundled() -> dict:
    system = _transfer_system(
        link=LinkConfig(base_delay=1.0, jitter=0.5),
        bundling=BundlingConfig(flush_delay=0.5))
    assert system.sites["S0"].vm._coalesce
    system.run_until(120.0)
    return pins(system)


def conc2_sharded() -> dict:
    system = _transfer_system(cc="conc2", sync_delay=1.0,
                              link=LinkConfig(base_delay=1.0), shards=4)
    system.run_until(120.0)
    return pins(system)


def views_beside_writes() -> dict:
    """View reads beside the writes that feed them, plus one mixed
    view+update transaction whose certificate ages out while it is
    still gathering: the escalation to the fan-out read happens at a
    *recheck* (another transaction's Vm delivery), not at one of its
    own absorptions — the one place the blanket recheck did real work.
    """
    system = DvPSystem(SystemConfig(
        sites=["A", "B", "C"], seed=3, txn_timeout=30.0,
        link=LinkConfig(base_delay=1.0),
        views=ViewConfig(refresh_period=5.0)))
    system.sim.enable_trace(limit=0)
    system.add_item("v", CounterDomain(), split={"A": 10, "B": 10, "C": 10})
    system.add_item("x", CounterDomain(), split={"A": 10, "B": 10, "C": 10})
    system.add_item("y", CounterDomain(), split={"A": 0, "B": 3, "C": 10})
    system.add_item("z", CounterDomain(), split={"A": 0, "B": 5, "C": 5})
    # C answers A slowly, so the mixed transaction is still gathering
    # y when its certificate for x passes its bound.
    system.network.configure_link("C", "A", LinkConfig(base_delay=6.0))
    outcomes = {}

    def submit(at, site, label, *ops):
        spec = TransactionSpec(ops=tuple(ops), label=label)
        system.sim.at_site(
            site, at,
            lambda: system.submit(site, spec,
                                  lambda r: outcomes.__setitem__(label, r)),
            label=f"arrival:{site}")

    rng = random.Random(23)
    for index in range(12):
        at = rng.uniform(0.5, 28.0)
        submit(at, rng.choice("BC"), f"w{index}",
               IncrementOp("v", rng.randint(1, 4)))
        submit(at + 0.25, rng.choice("ABC"), f"r{index}",
               ReadViewOp("v", bound=rng.choice((3.0, 6.0, None))))
    # Certified at t=7 from the t=5 snapshot (staleness 2 <= 4).
    submit(7.0, "A", "mixed", ReadViewOp("x", bound=4.0),
           DecrementOp("y", 10))
    # Its Vm reaches A at t=9.5 — the recheck that finds the
    # certificate aged (4.5 > 4) and the cache no fresher (the next
    # snapshot is cut at t=10).
    submit(7.5, "A", "poke", DecrementOp("z", 4))
    system.run_until(80.0)
    mixed = outcomes["mixed"]
    assert mixed.committed and mixed.view_fallbacks == ("x",), mixed
    assert not mixed.view_reads
    return pins(system)


def _view_reads_run(**config) -> dict:
    """Pure view reads, single- and multi-item, beside the writes that
    feed them: cold reads before the first refresh, certified reads,
    bound misses, a view read with work, and a two-item read whose
    second item (in sorted order) is cold because it was registered
    after the last refresh — its first item's certificate is minted
    before the miss and carried to the classic path."""
    system = DvPSystem(SystemConfig(
        sites=["A", "B", "C"], seed=13, txn_timeout=20.0, read_freeze=1.0,
        views=ViewConfig(refresh_period=5.0), **config))
    system.sim.enable_trace(limit=0)
    system.sim.obs.enable(ring_limit=None)
    for item in ("v", "w"):
        system.add_item(item, CounterDomain(),
                        split={"A": 10, "B": 10, "C": 10})
    system.sim.at(11.0, lambda: system.add_item(
        "z", CounterDomain(), split={"A": 4, "B": 4, "C": 4}),
        label="add:z")
    decided = []
    bounds = {}

    def submit(at, site, label, *ops, work=0.0):
        spec = TransactionSpec(ops=tuple(ops), label=label, work=work)
        bounds[label] = {op.item: op.bound for op in ops
                         if isinstance(op, ReadViewOp)}
        system.sim.at_site(site, at, lambda: system.submit(
            site, spec, decided.append), label=f"arrival:{site}")

    rng = random.Random(29)
    for index in range(16):
        at = rng.uniform(5.5, 40.0)
        item = rng.choice("vw")
        submit(at, rng.choice("BC"), f"w{index}",
               rng.choice((IncrementOp, DecrementOp))(item,
                                                      rng.randint(1, 3)))
        submit(at + 0.25, rng.choice("ABC"), f"r{index}",
               ReadViewOp(item, bound=rng.choice((0.5, 3.0, 6.0, None))))
        submit(at + 0.5, rng.choice("ABC"), f"rr{index}",
               ReadViewOp("w"), ReadViewOp("v", bound=6.0))
    submit(1.0, "A", "cold", ReadViewOp("v"))
    submit(11.5, "A", "one-cold", ReadViewOp("z"), ReadViewOp("v"))
    submit(12.5, "B", "worked", ReadViewOp("v"), work=0.5)
    submit(21.0, "C", "warm-z", ReadViewOp("z", bound=2.0),
           ReadViewOp("w"))
    system.run_until(60.0)
    one_cold = next(r for r in decided if r.label == "one-cold")
    assert one_cold.committed and one_cold.view_fallbacks == ("z",)
    assert set(one_cold.view_reads) == {"v"}
    # Every certificate carries the bound its op asked for, and holds.
    for result in decided:
        for item, cert in result.view_reads.items():
            bound = bounds[result.label][item]
            assert cert.bound == bound, (result, item)
            assert bound is None or cert.staleness <= bound, (result, item)
    metrics = system.sim.metrics
    return {**pins(system),
            "timeline": hashlib.sha256(render_timeline(
                system.sim.obs.events()).encode()).hexdigest(),
            "view.hits": metrics.total("view.hits"),
            "view.misses": metrics.total("view.misses"),
            "results": _digest(map(repr, system.results)),
            "decided_in_order": _digest(r.txn_id for r in decided)}


def view_reads_certified() -> dict:
    return {"conc1": _view_reads_run(link=LinkConfig(base_delay=1.0,
                                                     jitter=0.5)),
            "conc2": _view_reads_run(cc="conc2", sync_delay=1.0)}


class _Ineffective(SetToZero):
    """An operator no fragment ever takes: its transaction has no need,
    so it is covered at the lock grant and aborts at its commit."""

    def apply(self, domain, value):
        return Application(value, False)


def _local_commits_run(**config) -> dict:
    """Update-only transactions, most of them covered by their local
    fragments at the lock grant: increments, decrements and transfers
    with and without work, an ineffective operator, a decrement short
    locally that pulls Vm (the second peer's Vm is accepted while the
    transaction computes), a crash during work, and a one-site system
    (a covered commit and an ``insufficient-no-peers`` abort)."""
    system = DvPSystem(SystemConfig(
        sites=["A", "B", "C"], seed=19, txn_timeout=6.0, **config))
    system.sim.enable_trace(limit=0)
    system.sim.obs.enable(ring_limit=None)
    for item in ("x", "y", "z"):
        system.add_item(item, CounterDomain(),
                        split={"A": 20, "B": 20, "C": 20})
    decided = []

    def submit(at, site, label, *ops, work=0.0):
        spec = TransactionSpec(ops=tuple(ops), label=label, work=work)
        system.sim.at_site(site, at, lambda: system.submit(
            site, spec, decided.append), label=f"arrival:{site}")

    rng = random.Random(37)
    for index in range(40):
        src, dst = rng.sample("xz", 2)
        amount = rng.randint(1, 6)
        ops = rng.choice(((IncrementOp(src, amount),),
                          (DecrementOp(src, amount),),
                          (TransferOp(src, dst, amount),)))
        submit(rng.uniform(0.0, 40.0), rng.choice("ABC"), f"b{index}",
               *ops, work=rng.choice((0.0, 0.0, 0.5)))
    submit(10.0, "A", "never", ApplyOp("x", _Ineffective()))
    submit(12.0, "C", "never-worked", ApplyOp("z", _Ineffective()),
           work=1.0)
    # 25 of y at A, which holds 20: B and C are each asked for 5, their
    # Vm land in one instant, and the first makes it sufficient.
    submit(50.0, "A", "short", DecrementOp("y", 25), work=2.0)
    # B dies computing a covered decrement; it never commits.
    submit(60.0, "B", "crashed", DecrementOp("y", 1), work=3.0)
    system.sim.at_site("B", 61.0, lambda: system.crash("B"), label="crash")
    system.sim.at_site("B", 64.0, lambda: system.recover("B"),
                       label="recover")
    submit(66.0, "B", "after", DecrementOp("y", 1), work=0.5)
    # C gave 5 of its 20 to A: a transfer of 23 is short by 8.
    submit(75.0, "C", "short-transfer", TransferOp("y", "x", 23))
    system.run_until(90.0)
    labels = {result.label: result for result in decided}
    assert labels["never"].reason == "ineffective-operator"
    assert labels["never-worked"].reason == "ineffective-operator"
    assert labels["short"].committed and labels["short"].requests_sent == 2
    assert labels["short-transfer"].committed
    assert "crashed" not in labels and labels["after"].committed

    lone = DvPSystem(SystemConfig(sites=["A"], seed=19, **config))
    lone.sim.enable_trace(limit=0)
    lone.add_item("x", CounterDomain(), total=10)
    lone_results = []
    for at, spec in ((1.0, TransactionSpec(ops=(DecrementOp("x", 4),))),
                     (2.0, TransactionSpec(ops=(DecrementOp("x", 40),),
                                           work=1.0))):
        lone.sim.at_site("A", at, lambda spec=spec: lone.submit(
            "A", spec, lone_results.append), label="arrival:A")
    lone.run_until(20.0)
    assert [r.reason for r in lone_results] == ["ok",
                                                "insufficient-no-peers"]
    metrics = system.sim.metrics
    return {**pins(system),
            "timeline": hashlib.sha256(render_timeline(
                system.sim.obs.events()).encode()).hexdigest(),
            "vm.accepted": metrics.total("vm.accepted"),
            "results": _digest(map(repr, system.results)),
            "decided_in_order": _digest(r.txn_id for r in decided),
            "one-site": {**pins(lone),
                         "results": _digest(map(repr, lone.results))}}


def local_commits() -> dict:
    return {"conc1": _local_commits_run(link=LinkConfig(base_delay=1.0)),
            "conc2": _local_commits_run(cc="conc2", sync_delay=1.0)}


def conc2_grants() -> dict:
    """Conc2 lock grants on the synchronous network: covered and short
    updates granted inside their submitting call, grants from the lock
    queue (value may have moved while they waited), a waiter that timed
    out before its grant and the waiter granted after it, and a crash
    with a transaction in the queue."""
    system = DvPSystem(SystemConfig(
        sites=["A", "B", "C"], seed=23, cc="conc2", sync_delay=1.0,
        txn_timeout=6.0))
    system.sim.enable_trace(limit=0)
    system.sim.obs.enable(ring_limit=None)
    for item in ("x", "y", "z"):
        system.add_item(item, CounterDomain(),
                        split={"A": 20, "B": 20, "C": 20})
    decided = []

    def submit(at, site, label, *ops, work=0.0):
        spec = TransactionSpec(ops=tuple(ops), label=label, work=work)
        system.sim.at_site(site, at, lambda: system.submit(
            site, spec, decided.append), label=f"arrival:{site}")

    rng = random.Random(43)
    for index in range(40):
        src, dst = rng.sample("xyz", 2)
        amount = rng.randint(1, 12)
        ops = rng.choice(((DecrementOp(src, amount),),
                          (TransferOp(src, dst, amount),),
                          (IncrementOp(src, amount),)))
        submit(rng.randrange(0, 160) / 4, rng.choice("ABC"), f"g{index}",
               *ops, work=rng.choice((0.0, 0.0, 0.5, 1.0)))
    # Covered, granted in its call, computing while the next two queue.
    submit(50.0, "A", "holder", DecrementOp("x", 2), work=2.0)
    submit(50.5, "A", "queued-covered", DecrementOp("x", 1))
    submit(50.75, "A", "queued-short", DecrementOp("x", 30))
    # Short, granted in its call: its wave leaves at initiation.
    submit(60.0, "B", "short", DecrementOp("y", 35))
    # The holder outlasts the first waiter's timeout; the second waiter
    # is granted after the timed-out one gives its grant straight back.
    submit(70.0, "C", "long", DecrementOp("z", 1), work=9.0)
    submit(70.5, "C", "timed-out", DecrementOp("z", 2))
    submit(77.0, "C", "after-timeout", DecrementOp("z", 3))
    # C dies with a transaction in its lock queue.
    submit(90.0, "C", "crash-holder", DecrementOp("x", 1), work=3.0)
    submit(90.5, "C", "crash-waiter", DecrementOp("x", 2))
    system.sim.at_site("C", 91.0, lambda: system.crash("C"), label="crash")
    system.sim.at_site("C", 94.0, lambda: system.recover("C"),
                       label="recover")
    submit(96.0, "C", "after-crash", DecrementOp("x", 1))
    system.run_until(120.0)
    labels = {result.label: result for result in decided}
    assert labels["holder"].committed and labels["queued-covered"].committed
    assert labels["queued-short"].requests_sent > 0
    assert labels["short"].committed and labels["short"].requests_sent > 0
    assert labels["timed-out"].reason == "timeout"
    assert labels["after-timeout"].committed
    assert "crash-waiter" not in labels and labels["after-crash"].committed
    metrics = system.sim.metrics
    return {**pins(system),
            "timeline": hashlib.sha256(render_timeline(
                system.sim.obs.events()).encode()).hexdigest(),
            "vm.accepted": metrics.total("vm.accepted"),
            "results": _digest(map(repr, system.results)),
            "decided_in_order": _digest(r.txn_id for r in decided)}


def chaos_crash_partition() -> dict:
    plan = FaultPlan((
        CrashSite(at=18.0, site="S1"),
        PartitionNet(at=30.0, groups=(("S0", "S2"),)),
        RecoverSite(at=44.0, site="S1"),
        HealNet(at=58.0),
    ))
    # A tight quota so commits need remote value, and view reads on so
    # the crash also wipes transactions holding certificates.
    result = run_chaos(ChaosConfig(total=12, txns=80, views=6.0), plan,
                       seed=7)
    assert not result.failed, result.failures
    assert result.fingerprint == result.system.sim.trace_fingerprint()
    return pins(result.system)


def _conc2_retry_run(txn_timeout: float) -> dict:
    """Conc2 on the synchronous network, ``request_retries=2``, few
    items: every delivery, retry round and timeout lands on a multiple
    of 0.25 and many share an instant, where only the scheduling order
    (``seq``) separates them — S0's deliveries run at the timers'
    priority. Conflicting transactions wait in the lock queue."""
    system = DvPSystem(SystemConfig(
        sites=SITES, seed=9, cc="conc2", sync_delay=1.0,
        txn_timeout=txn_timeout, request_retries=2))
    system.sim.enable_trace(limit=0)
    items = ITEMS[:6]
    for item in items:
        system.add_item(item, CounterDomain(), total=24)
    rng = random.Random(31)
    for index in range(70):
        src, dst = rng.sample(items, 2)
        kind = rng.random()
        if kind < 0.6:
            ops = (TransferOp(src, dst, rng.randint(4, 14)),)
        elif kind < 0.8:
            ops = (DecrementOp(src, rng.randint(2, 9)),
                   IncrementOp(dst, 1))
        else:
            ops = (IncrementOp(src, rng.randint(1, 3)),)
        spec = TransactionSpec(ops=ops, label=f"t{index}",
                               work=rng.choice((0.0, 0.0, 0.5, 1.0)))
        site = rng.choice(SITES)
        # Quarter-unit arrivals: whole multiples of every delay in play.
        system.sim.at_site(site, rng.randrange(0, 160) / 4,
                           lambda site=site, spec=spec: left_as.append(
                               system.submit(site, spec).state.value),
                           label=f"arrival:{site}")
    left_as: list[str] = []  # each transaction's state as submit returns
    system.run_until(120.0)
    results = system.results
    per_round = len(SITES) - 1  # ask-all, one short item per spec
    assert {"waiting-locks", "gathering", "computing",
            "finished"} <= set(left_as), set(left_as)
    assert any(r.reason == "timeout" for r in results)
    assert any(r.committed and r.requests_sent > per_round
               for r in results), "no commit needed a retry round"
    return {**pins(system),
            "results": _digest(
                (r.txn_id, r.reason, r.finished_at, r.requests_sent)
                for r in results)}


def conc2_retry_ties() -> dict:
    # A round as long as one hop: a request reaches its peer at the
    # instant its sender's round ends. Two hops: so does the answer.
    return {"round=1hop": _conc2_retry_run(txn_timeout=3.0),
            "round=2hops": _conc2_retry_run(txn_timeout=6.0)}


def serving_slots() -> dict:
    """One service slot per site: requests decided inside their
    dispatch call, requests that outlive it, a crash that wipes a
    dispatched transaction (its lease reclaims the slot) and the
    backlog then dispatched to the down site (``SiteDown`` sheds)."""
    system = DvPSystem(SystemConfig(
        sites=SITES, seed=21, txn_timeout=8.0,
        link=LinkConfig(base_delay=1.0, jitter=0.5)))
    system.sim.enable_trace(limit=0)
    for item in ITEMS[:8]:
        system.add_item(item, CounterDomain(), total=40)
    frontend = ServingFrontend(system, ServingConfig(
        router="random", max_inflight=1, max_depth=6, board_period=4.0))
    frontend.start()
    rng = random.Random(41)
    for index in range(90):
        src, dst = rng.sample(ITEMS[:8], 2)
        kind = rng.random()
        if kind < 0.4:
            ops = (DecrementOp(src, rng.randint(1, 3)),)  # local, instant
        elif kind < 0.7:
            ops = (TransferOp(src, dst, rng.randint(8, 16)),)  # pulls Vm
        else:
            ops = (IncrementOp(src, 2),)
        spec = TransactionSpec(ops=ops, label=f"q{index}",
                               work=rng.choice((0.0, 0.0, 0.75)))
        site = rng.choice(SITES)
        system.sim.at_site(site, rng.uniform(0.0, 60.0),
                           lambda site=site, spec=spec:
                           frontend.submit(site, spec),
                           label=f"arrival:{site}")
    # S2 dies holding a dispatched transaction (it is pulling Vm) and
    # a backlog; it is back after the lease (8 + 4) reclaimed the slot.
    for index, at in enumerate((20.0, 20.1, 20.2)):
        spec = TransactionSpec(ops=(DecrementOp(ITEMS[index], 30),),
                               label=f"doomed{index}")
        system.sim.at_site("S2", at, lambda spec=spec:
                           frontend.queues["S2"].offer(spec, "S2"),
                           label="arrival:S2")
    system.sim.at_site("S2", 20.3, lambda: system.crash("S2"),
                       label="crash")
    system.sim.at_site("S2", 36.0, lambda: system.recover("S2"),
                       label="recover")
    system.run_until(62.0)
    frontend.quiesce()
    system.run_until(100.0)
    metrics = system.sim.metrics
    serve = {name: metrics.total(name)
             for name in ("serve.enqueued", "serve.dequeued",
                          "serve.shed", "serve.lease_expired")}
    reasons = sorted({overload.reason for overload in frontend.overloads})
    assert serve["serve.lease_expired"] >= 1 and "site-down" in reasons
    assert system.sites["S2"].txns_wiped >= 1
    assert all(queue.inflight == 0 for queue in frontend.queues.values())
    return {**pins(system), **serve,
            "shed_reasons": reasons,
            "dispatched": frontend.dispatched,
            "results": _digest(
                (r.txn_id, r.reason, r.finished_at, r.requests_sent)
                for r in system.results),
            "samples": _digest(
                (s.site, s.arrived_at, s.dispatched_at, s.finished_at,
                 s.committed) for s in frontend.samples),
            "overloads": _digest(
                (o.site, o.at, o.reason, o.depth)
                for o in frontend.overloads)}


SCENARIOS = {
    "transfers_unbundled": transfers_unbundled,
    "transfers_bundled": transfers_bundled,
    "conc2_sharded": conc2_sharded,
    "views_beside_writes": views_beside_writes,
    "view_reads_certified": view_reads_certified,
    "local_commits": local_commits,
    "conc2_grants": conc2_grants,
    "chaos_crash_partition": chaos_crash_partition,
    "conc2_retry_ties": conc2_retry_ties,
    "serving_slots": serving_slots,
}

GOLDEN: dict[str, dict] = {'chaos_crash_partition': {'committed': '25b580be8c897443',
                           'decided': 74,
                           'fingerprint': '1b6280fa489cccdde691ac9e0cc5da078b2359f87b94ad6d379e06389f8e246a',
                           'log.forces': 75,
                           'net.sent': 233,
                           'vm.created': 8},
 'conc2_grants': {'committed': '97d8d2cce2619497',
                  'decided': 48,
                  'decided_in_order': '42f7ca8a2c61e968',
                  'fingerprint': 'c1cb4874a7a3bd498533fb26d07097fcc9d87797c39d308e80fe0b7a0f240934',
                  'log.forces': 59,
                  'net.sent': 24,
                  'results': 'b7b893df865e6180',
                  'timeline': 'ef504bb0d92f30ef733dd655da52025e152bc283154e4b145a225a28f5d5b9e6',
                  'vm.accepted': 6,
                  'vm.created': 6},
 'conc2_retry_ties':{'round=1hop': {'committed': '53a7bde12df6defd',
                                     'decided': 70,
                                     'fingerprint': '2254f073ff2d0806f927e2997fe482e825ac4abeb720c994e5b3ee8efd12fbc3',
                                     'log.forces': 322,
                                     'net.sent': 599,
                                     'results': '1567084773173190',
                                     'vm.created': 136},
                      'round=2hops': {'committed': '3cd5c2267a716b3a',
                                      'decided': 70,
                                      'fingerprint': '1a43f8ce1fbd9de7b3b76bc921464e00d7fbedda29cbf36edee2b0b36755ac58',
                                      'log.forces': 294,
                                      'net.sent': 520,
                                      'results': '231418fff6fd8722',
                                      'vm.created': 122}},
 'conc2_sharded': {'committed': 'f52f3c984aee104f',
                   'decided': 60,
                   'fingerprint': 'f394f0d2e58a3fe97cad480b8a1f9985e94cdfa5f40b3aefd4b2c4fd1f7fd580',
                   'log.forces': 249,
                   'net.sent': 319,
                   'vm.created': 98},
 'local_commits': {'conc1': {'committed': '62cda554001acfaa',
                             'decided': 45,
                             'decided_in_order': '593d2e0a92a78c08',
                             'fingerprint': '6d935044c458407df69e7a65e6177b4d77860481d115c5fb8e736cc3ad64cb3e',
                             'log.forces': 58,
                             'net.sent': 38,
                             'one-site': {'committed': '6bd54eb3a57efe11',
                                          'decided': 2,
                                          'fingerprint': '758c063fa7df109b1bfe623d4acbaf0d5874217d877183e427c06f6d1975152a',
                                          'log.forces': 1,
                                          'net.sent': 0,
                                          'results': '64d6b3755279adbc',
                                          'vm.created': 0},
                             'results': 'af99d5d7b11fdd42',
                             'timeline': 'abc5eb5ca282680bcabe5f60b8573620d1c99f737fff9d7017c2a368c88d0e70',
                             'vm.accepted': 10,
                             'vm.created': 10},
                   'conc2': {'committed': 'cbc875379f3feb00',
                             'decided': 45,
                             'decided_in_order': '0b52350e7d9a23c8',
                             'fingerprint': '609f1c580f9fdd286c0c71766cbcf0743ed1d9fe4147869ae0bc856100d2736a',
                             'log.forces': 66,
                             'net.sent': 52,
                             'one-site': {'committed': '6bd54eb3a57efe11',
                                          'decided': 2,
                                          'fingerprint': '758c063fa7df109b1bfe623d4acbaf0d5874217d877183e427c06f6d1975152a',
                                          'log.forces': 1,
                                          'net.sent': 0,
                                          'results': '64d6b3755279adbc',
                                          'vm.created': 0},
                             'results': 'f097d18713bde35f',
                             'timeline': '2507c5a2baa5fd1e3fa8e7a25a76d8e53b49dbd52134b3f307c031c023c3f5ee',
                             'vm.accepted': 13,
                             'vm.created': 13}},
 'serving_slots': {'committed': '1e7a3e70e5f43632',
                   'decided': 85,
                   'dispatched': 86,
                   'fingerprint': '147155fcae32f9dbb3d17a73c60fb6d6832449c7e850290f643bf90993941eb1',
                   'log.forces': 187,
                   'net.sent': 208,
                   'overloads': 'ef67334b63f8d75e',
                   'results': '5f18208629794d56',
                   'samples': '9d44c7f339b0d1bd',
                   'serve.dequeued': 93,
                   'serve.enqueued': 93,
                   'serve.lease_expired': 1,
                   'serve.shed': 7,
                   'shed_reasons': ['site-down'],
                   'vm.created': 53},
 'transfers_bundled': {'committed': '9cdc9b36c9b9db93',
                       'decided': 60,
                       'fingerprint': 'af070a54cfb583320b96533bafb12b552e60749980c50739f8d819e64923de6c',
                       'log.forces': 197,
                       'net.sent': 209,
                       'vm.created': 77},
 'transfers_unbundled': {'committed': 'e13f90bfb7c3df3f',
                         'decided': 60,
                         'fingerprint': 'fad23389d0099e6bd082dfdec9b63389dec20062bcbb32beef45d4b3aa8c9699',
                         'log.forces': 216,
                         'net.sent': 280,
                         'vm.created': 84},
 'view_reads_certified': {'conc1': {'committed': '9ab321305a61282f',
                                    'decided': 52,
                                    'decided_in_order': '19db54a29e0d2c14',
                                    'fingerprint': '3eec7fde8d5c7400f4373aa5a8c7122bd5da31326561dcab69f7b2ce9b1d4625',
                                    'log.forces': 33,
                                    'net.sent': 68,
                                    'results': '4d8a4e1668f236bb',
                                    'timeline': '88b04088616158d942a683f01e12c765ab272916087b2212da853d6beb143d4e',
                                    'view.hits': 46,
                                    'view.misses': 8,
                                    'vm.created': 11},
                          'conc2': {'committed': '03d3787f571fe51d',
                                    'decided': 52,
                                    'decided_in_order': '36f829b90cd4f4cf',
                                    'fingerprint': '0ceaed9e543da547f0e34993ddc632121d32c5e2636242e449570d35b756d636',
                                    'log.forces': 56,
                                    'net.sent': 88,
                                    'results': '468ab4e6877c2fb1',
                                    'timeline': '97cbe9249218e05e2717d205ed3cdd53f6660f4f5b05b5835919ecf0b8125519',
                                    'view.hits': 46,
                                    'view.misses': 8,
                                    'vm.created': 20}},
 'views_beside_writes': {'committed': 'bdf5cf69e09751fb',
                         'decided': 26,
                         'fingerprint': 'e1ff72b0ee15dea129cfd18253ef9f4b02ecccd145c3de9e84670cf82e754b7c',
                         'log.forces': 24,
                         'net.sent': 57,
                         'vm.created': 7}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_its_pin(name):
    assert SCENARIOS[name]() == GOLDEN[name]


if __name__ == "__main__":
    import pprint
    pprint.pprint({name: scenario()
                   for name, scenario in SCENARIOS.items()}, width=76)
