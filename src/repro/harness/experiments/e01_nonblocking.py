"""E1 — Non-blocking transaction processing under partitions.

Claim (Sections 2, 5): with DvP every transaction reaches a local
decision within a bounded number of local steps — operationally, within
its timeout — no matter when a partition strikes; with a traditional
2PC system the *client* may still get a timely abort from its
coordinator, but prepared participants hold locks for as long as the
partition lasts (unbounded).

Design: the same cross-site-transfer arrival process is run against a
DvP system and a 2PC system. A partition splits the sites mid-run for a
swept duration. We report, per partition duration:

* worst-case client decision time (submit -> commit/abort);
* worst-case lock-hold / blocked duration at any site;
* how many transactions were still undecided (or still holding locks)
  when the partition healed.

Expected shape: DvP's two worst cases stay pinned at the timeout while
2PC's lock-hold grows linearly with the partition duration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.baselines.common import BaselineConfig
from repro.baselines.twopc import TwoPCSystem
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    TransactionSpec,
    TransferOp,
)
from repro.harness.parallel import evaluate_cells
from repro.metrics.collector import Collector
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.workloads.base import WorkloadConfig, WorkloadDriver

EXPERIMENT = "E1"


@dataclass
class Params:
    sites: list[str] = field(default_factory=lambda: ["W", "X", "Y", "Z"])
    partition_durations: list[float] = field(
        default_factory=lambda: [20.0, 50.0, 100.0, 200.0])
    partition_start: float = 40.0
    arrival_rate: float = 0.15
    txn_timeout: float = 15.0
    initial_per_item: int = 120
    seed: int = 11
    link_delay: float = 2.0
    link_jitter: float = 1.0
    #: Sharded-kernel knobs (repro.sim.shard); defaults reproduce the
    #: classic single-queue run. The determinism suite reruns this
    #: experiment with several worker counts and pins the fingerprint.
    shards: int = 1
    shard_workers: int = 1

    @classmethod
    def quick(cls) -> "Params":
        return cls(partition_durations=[20.0, 80.0], arrival_rate=0.10)


class CrossSiteTransfers:
    """Each arrival moves value from the site's own item to another's.

    Items are named after sites; under 2PC item ``acct_S`` is homed at
    site S, so a transfer is the classic multi-site write that needs
    atomic commitment. Under DvP the same spec touches two local
    fragments — single-site, non-blocking.
    """

    def __init__(self, sites: list[str]) -> None:
        self.sites = sites

    @staticmethod
    def item_of(site: str) -> str:
        return f"acct_{site}"

    def make_spec(self, rng: random.Random, site: str) -> TransactionSpec:
        other = rng.choice([name for name in self.sites if name != site])
        amount = rng.randint(1, 4)
        return TransactionSpec(
            ops=(TransferOp(self.item_of(site), self.item_of(other),
                            amount),),
            label="transfer")


def _plant_victim(system, params: Params, spec: TransactionSpec,
                  collector: Collector) -> None:
    """Guarantee one transaction is mid-protocol when the partition
    strikes, by construction: submitted early enough that its first
    hop (at most delay + jitter) always lands before the cut, late
    enough that the reply (at least another delay) never returns. The
    spec is each system's vulnerable shape: for 2PC a cross-home
    transfer between a dedicated item pair no background transfer can
    lock (prepare lands, decision cannot); for DvP a decrement that
    must gather remote value (its requests land, the Vm cannot — and
    the timeout aborts it)."""
    victim_at = (params.partition_start - params.link_delay
                 - params.link_jitter - 0.5)

    def submit() -> None:
        collector.on_submit(at=system.sim.now)
        system.submit(params.sites[0], spec, collector.on_result)

    system.sim.at_site(params.sites[0], victim_at, submit,
                       label="victim")


def _run_dvp(params: Params, duration: float) -> dict:
    config = SystemConfig(
        sites=list(params.sites), seed=params.seed,
        txn_timeout=params.txn_timeout,
        link=LinkConfig(base_delay=params.link_delay,
                        jitter=params.link_jitter),
        shards=params.shards, shard_workers=params.shard_workers)
    system = DvPSystem(config)
    source = CrossSiteTransfers(params.sites)
    for site in params.sites:
        system.add_item(source.item_of(site), CounterDomain(),
                        total=params.initial_per_item)
    collector = Collector()
    run_length = params.partition_start + duration + 40.0
    driver = WorkloadDriver(
        system.sim, system, params.sites, source,
        WorkloadConfig(arrival_rate=params.arrival_rate,
                       duration=run_length), collector)
    driver.install()
    victim_spec = TransactionSpec(
        ops=(DecrementOp(source.item_of(params.sites[0]),
                         params.initial_per_item),),
        label="victim")
    _plant_victim(system, params, victim_spec, collector)
    half = len(params.sites) // 2
    # Topology-wide events run at consistent global cuts under sharding
    # (plain `at` on the single-queue kernel).
    system.sim.at_global(params.partition_start,
                         lambda: system.network.partition(
                             [params.sites[:half], params.sites[half:]]))
    system.sim.at_global(params.partition_start + duration,
                         system.network.heal)
    heal_at = params.partition_start + duration
    system.run_until(heal_at)
    # Resources blocked beyond the protocol's own bound at heal time:
    # active transactions older than the timeout (DvP: provably none).
    blocked_over_bound = sum(
        1 for site in system.sites.values()
        for txn in site.active.values()
        if system.sim.now - txn.submitted_at > params.txn_timeout + 1e-9)
    system.run_until(run_length)
    system.run_for(params.txn_timeout + 60.0)
    # In DvP the only "lock hold" is a transaction's own lifetime.
    max_hold = collector.max_latency()
    system.auditor.assert_ok()
    return {
        "decided": len(collector.results),
        "max_decision": collector.max_latency(),
        "max_lock_hold": max_hold,
        "blocked_at_heal": blocked_over_bound,
        "commit_rate": collector.commit_rate(),
    }


def _run_twopc(params: Params, duration: float) -> dict:
    system = TwoPCSystem(
        list(params.sites), seed=params.seed,
        link=LinkConfig(base_delay=params.link_delay,
                        jitter=params.link_jitter),
        config=BaselineConfig(txn_timeout=params.txn_timeout))
    source = CrossSiteTransfers(params.sites)
    for site in params.sites:
        system.add_item(source.item_of(site), site, params.initial_per_item)
    system.add_item("victim_src", params.sites[0], params.initial_per_item)
    system.add_item("victim_dst", params.sites[-1], params.initial_per_item)
    collector = Collector()
    run_length = params.partition_start + duration + 40.0
    driver = WorkloadDriver(
        system.sim, system, params.sites, source,
        WorkloadConfig(arrival_rate=params.arrival_rate,
                       duration=run_length), collector)
    driver.install()
    victim_spec = TransactionSpec(
        ops=(TransferOp("victim_src", "victim_dst", 2),), label="victim")
    _plant_victim(system, params, victim_spec, collector)
    half = len(params.sites) // 2
    system.sim.at(params.partition_start,
                  lambda: system.network.partition(
                      [params.sites[:half], params.sites[half:]]))
    heal_at = params.partition_start + duration
    system.sim.at(heal_at, system.network.heal)
    system.run_for(heal_at - system.sim.now)
    # Prepared participants already blocked past the protocol timeout:
    # these hold locks with no unilateral way out.
    blocked_over_bound = sum(
        1 for _site, _txn, age in system.blocked()
        if age > system.config.txn_timeout + 1e-9)
    system.run_for(run_length - system.sim.now + params.txn_timeout + 60.0)
    # A lock still held when the run ends has been held at least that
    # long: count it, not only the holds that ended.
    max_hold = max((hold for _s, _t, hold in
                    system.lock_holds + system.blocked()),
                   default=0.0)
    return {
        "decided": len(collector.results),
        "max_decision": collector.max_latency(),
        "max_lock_hold": max_hold,
        "blocked_at_heal": blocked_over_bound,
        "commit_rate": collector.commit_rate(),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent (system × partition-duration) grid behind E1."""
    params = params or Params()
    return [(fn, {"params": params, "duration": duration})
            for duration in params.partition_durations
            for fn in ("_run_dvp", "_run_twopc")]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E1: non-blocking behaviour across partition durations",
        ["partition", "system", "txns", "commit%", "max decision t",
         "max lock hold", "blocked>bound at heal"])
    for duration in params.partition_durations:
        for name in ("DvP", "2PC"):
            stats = next(results)
            table.add_row(
                duration, name, stats["decided"],
                round(100 * stats["commit_rate"], 1),
                round(stats["max_decision"], 1),
                round(stats["max_lock_hold"], 1),
                stats["blocked_at_heal"])
    table.add_note(
        f"DvP decision time and lock hold are bounded by the timeout "
        f"({params.txn_timeout}); 2PC lock holds track the partition.")
    return table


if __name__ == "__main__":
    print(run())
