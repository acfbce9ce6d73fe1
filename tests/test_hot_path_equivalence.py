"""Golden pins for the DvP hot path (ISSUES 13 and 17).

Seven small fixed-seed scenarios, each recorded on the commit *before*
the hot-path subtraction it guards (five before ISSUE 13's, the Conc2
retry ties and the serving slots before ISSUE 17's): a change that
only skips work must leave every kernel event (``trace_fingerprint``),
every decision (digest of the committed ids, in decision order) and
the exact counters ``net.sent`` / ``vm.created`` / ``log.forces``
byte-identical. A diff here means the optimisation reordered or
dropped protocol work, not just host time.

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
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadViewOp,
    TransactionSpec,
    TransferOp,
)
from repro.net.link import LinkConfig
from repro.net.outbox import BundlingConfig
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
 'conc2_retry_ties': {'round=1hop': {'committed': '53a7bde12df6defd',
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
