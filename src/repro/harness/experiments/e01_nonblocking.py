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
from repro.core.system import DvPSystem, System, SystemConfig
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


def _build_dvp(params: Params, link: LinkConfig):
    """A decrement of the whole item must gather remote value: its
    requests land, the Vm cannot — and the timeout aborts it."""
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed,
        txn_timeout=params.txn_timeout, link=link,
        shards=params.shards, shard_workers=params.shard_workers))
    for site in params.sites:
        system.add_item(CrossSiteTransfers.item_of(site), CounterDomain(),
                        total=params.initial_per_item)
    victim = DecrementOp(CrossSiteTransfers.item_of(params.sites[0]),
                         params.initial_per_item)
    return system, victim


def _build_twopc(params: Params, link: LinkConfig):
    """A cross-home transfer between a dedicated item pair no
    background transfer can lock: prepare lands, decision cannot."""
    system = TwoPCSystem(list(params.sites), seed=params.seed, link=link,
                         config=BaselineConfig(
                             txn_timeout=params.txn_timeout))
    for site in params.sites:
        system.add_item(CrossSiteTransfers.item_of(site), site,
                        params.initial_per_item)
    system.add_item("victim_src", params.sites[0], params.initial_per_item)
    system.add_item("victim_dst", params.sites[-1], params.initial_per_item)
    return system, TransferOp("victim_src", "victim_dst", 2)


#: Per system: how it is built (with its victim's vulnerable shape), and
#: where the lock holds that *ended* are read — in DvP the only lock
#: hold is a transaction's own lifetime.
SYSTEMS = {
    "DvP": (_build_dvp, lambda system, collector:
            [result.latency for result in collector.results]),
    "2PC": (_build_twopc, lambda system, collector:
            [hold for _site, _txn, hold in system.lock_holds]),
}


def _assert_conserved(system: System, initial: dict[str, int]) -> None:
    """Through the contract alone: each item holds its *initial* value
    plus what the committed transactions did. (Sound wherever every
    commit is answered — no origin crashes here, and both coordinators'
    answers are authoritative.)"""
    expected = dict(initial)
    for result in system.results:
        if result.committed:
            for item, sign, amount in result.semantic_deltas:
                expected[item] += sign * amount
    for item, value in expected.items():
        held = system.total_value([item])
        if held != value:
            raise AssertionError(
                f"conservation violated: {item} holds {held}, the "
                f"committed history gives {value}")


def _run(name: str, params: Params, duration: float) -> dict:
    build, ended_holds = SYSTEMS[name]
    system, victim = build(params, LinkConfig(
        base_delay=params.link_delay, jitter=params.link_jitter))
    initial = {item: params.initial_per_item for item in
               map(CrossSiteTransfers.item_of, params.sites)}
    collector = Collector()
    run_length = params.partition_start + duration + 40.0
    WorkloadDriver(
        system.sim, system, params.sites, CrossSiteTransfers(params.sites),
        WorkloadConfig(arrival_rate=params.arrival_rate,
                       duration=run_length), collector).install()

    # One transaction is mid-protocol when the partition strikes, by
    # construction: submitted early enough that its first hop (at most
    # delay + jitter) always lands before the cut, late enough that the
    # reply (at least another delay) never returns.
    def submit_victim() -> None:
        collector.on_submit(at=system.sim.now)
        system.submit(params.sites[0],
                      TransactionSpec(ops=(victim,), label="victim"),
                      collector.on_result)

    system.sim.at_site(
        params.sites[0],
        params.partition_start - params.link_delay - params.link_jitter
        - 0.5, submit_victim, label="victim")
    half = len(params.sites) // 2
    heal_at = params.partition_start + duration
    # Topology-wide events run at consistent global cuts under sharding
    # (plain `at` on the single-queue kernel).
    system.sim.at_global(params.partition_start,
                         lambda: system.network.partition(
                             [params.sites[:half], params.sites[half:]]))
    system.sim.at_global(heal_at, system.network.heal)
    system.run_until(heal_at)
    # Still waiting at heal time after more than the protocol's own
    # bound: transactions older than the timeout (DvP: provably none),
    # prepared participants with no unilateral way out (2PC).
    blocked_over_bound = sum(
        1 for _site, _txn, age in system.blocked()
        if age > params.txn_timeout + 1e-9)
    system.run_until(run_length + params.txn_timeout + 60.0)
    # A lock still held when the run ends has been held at least that
    # long: count it, not only the holds that ended.
    max_hold = max(ended_holds(system, collector)
                   + [age for _site, _txn, age in system.blocked()],
                   default=0.0)
    _assert_conserved(system, initial)
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
    return [("_run", {"name": name, "params": params,
                      "duration": duration})
            for duration in params.partition_durations
            for name in SYSTEMS]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E1: non-blocking behaviour across partition durations",
        ["partition", "system", "txns", "commit%", "max decision t",
         "max lock hold", "blocked>bound at heal"])
    for duration in params.partition_durations:
        for name in SYSTEMS:
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


def claims(table: Table, params: Params) -> list[str]:
    """DvP's decision time and lock hold stay within the timeout, with
    nobody blocked at heal, whatever the partition length; 2PC's worst
    lock hold tracks the longest partition."""
    violated = []
    bound = params.txn_timeout + 1e-6
    rows = table.records()
    for row in rows:
        if row["system"] == "DvP" and (
                row["max decision t"] > bound
                or row["max lock hold"] > bound
                or row["blocked>bound at heal"] != 0):
            violated.append(
                f"DvP at a {row['partition']:g}-unit partition: decision "
                f"{row['max decision t']}, lock hold "
                f"{row['max lock hold']}, "
                f"{row['blocked>bound at heal']} blocked at heal — not "
                f"bounded by the timeout ({params.txn_timeout:g})")
    longest = max((row for row in rows if row["system"] == "2PC"),
                  key=lambda row: row["partition"])
    if not longest["max lock hold"] > 0.8 * longest["partition"]:
        violated.append(
            f"2PC's worst lock hold ({longest['max lock hold']}) does "
            f"not track the {longest['partition']:g}-unit partition")
    return violated


if __name__ == "__main__":
    print(run())
