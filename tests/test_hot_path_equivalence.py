"""Golden pins for the DvP hot path (ISSUE 13).

Five small fixed-seed scenarios, recorded on the commit *before* the
hot-path subtraction: a change that only skips work must leave every
kernel event (``trace_fingerprint``), every decision (digest of the
committed ids, in decision order) and the exact counters ``net.sent`` /
``vm.created`` / ``log.forces`` byte-identical. A diff here means the
optimisation reordered or dropped protocol work, not just host time.

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

SITES = ["S0", "S1", "S2", "S3"]
ITEMS = [f"item{index}" for index in range(16)]


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
    assert system.sites["S0"].config.coalesce_acks
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


SCENARIOS = {
    "transfers_unbundled": transfers_unbundled,
    "transfers_bundled": transfers_bundled,
    "conc2_sharded": conc2_sharded,
    "views_beside_writes": views_beside_writes,
    "chaos_crash_partition": chaos_crash_partition,
}

GOLDEN: dict[str, dict] = {'chaos_crash_partition': {'committed': '25b580be8c897443',
                           'decided': 74,
                           'fingerprint': '1b6280fa489cccdde691ac9e0cc5da078b2359f87b94ad6d379e06389f8e246a',
                           'log.forces': 75,
                           'net.sent': 233,
                           'vm.created': 8},
 'conc2_sharded': {'committed': 'fe065e3f87dc455a',
                   'decided': 60,
                   'fingerprint': '2eebf29089e46db9077558c0567a3b7962d37a7cc4540561becbe2515b7052f3',
                   'log.forces': 249,
                   'net.sent': 365,
                   'vm.created': 98},
 'transfers_bundled': {'committed': '36a0919ae9e7e699',
                       'decided': 60,
                       'fingerprint': '55e3f41b6d93c1ba2816a594cec6b4deafec854252f1116cd2d89899d52aa662',
                       'log.forces': 196,
                       'net.sent': 235,
                       'vm.created': 76},
 'transfers_unbundled': {'committed': '3892248ef0a51a2e',
                         'decided': 60,
                         'fingerprint': '42f3ae5dacc75761ffa13b2d12b00ea2d32e5848c334cfb807dd20b530bac3da',
                         'log.forces': 218,
                         'net.sent': 346,
                         'vm.created': 85},
 'views_beside_writes': {'committed': 'bdf5cf69e09751fb',
                         'decided': 26,
                         'fingerprint': '4a3ed45f236b1173afda27d110f22c057155c28fad9940bc879156e9ba64ddd0',
                         'log.forces': 24,
                         'net.sent': 61,
                         'vm.created': 7}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_its_pin(name):
    assert SCENARIOS[name]() == GOLDEN[name]


if __name__ == "__main__":
    import pprint
    pprint.pprint({name: scenario()
                   for name, scenario in SCENARIOS.items()}, width=76)
