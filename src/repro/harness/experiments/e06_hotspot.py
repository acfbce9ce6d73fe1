"""E6 — Hot-spot aggregate fields (Section 8, citing O'Neil's escrow).

Claim: aggregate fields updated by increments/decrements become lock
hot spots; escrow fixes the lock contention but stays centralized; DvP
"may alleviate the problem of contention by allowing several processes
to access a particular quantity simultaneously" — and does it with
purely local transactions.

Design: one hot counter, n client sites, fixed per-site arrival rate,
every transaction carrying ``work`` time (the computation done while
holding the lock/escrow). Three systems:

* ``lock``   — single central site, exclusive lock per transaction;
* ``escrow`` — single central site, O'Neil escrow accounting;
* ``DvP``    — the counter partitioned across the n sites.

Reported per n: committed throughput, commit rate, p95 latency.
Expected shape: lock saturates at 1/work regardless of n; escrow keeps
committing but pays two WAN round trips per transaction; DvP scales
linearly with n at local latency.

A second axis (Section 9's open question) compares *rebalance
policies* on a scarce variant of the hot spot: sellers with skewed
arrival rates start at a small even quota, a depot holds the marginal
reserve, and a daemon drips that reserve out on a fixed budget
(``max_ship`` per period — identical for every policy). ``static-rr``
sprays the budget uniformly; ``demand-weighted`` aims it at the
sellers whose shortfall requests the depot has seen; ``pull`` lets
short sellers fetch their deficit themselves. On-demand rescue is
deliberately slow (``ask-few(1)``, round trip longer than the
timeout) so pre-positioning — not rescue — decides the commit rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.common import BaselineConfig
from repro.baselines.escrow import CentralCounterSystem
from repro.core.domain import CounterDomain
from repro.core.rebalance import RebalanceConfig, install_rebalancing
from repro.core.system import DvPSystem, SystemConfig
from repro.harness.parallel import evaluate_cells
from repro.metrics.collector import Collector
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver
from repro.workloads.inventory import InventoryWorkload

EXPERIMENT = "E6"


@dataclass
class Params:
    site_counts: list[int] = field(default_factory=lambda: [1, 2, 4, 8])
    arrival_rate: float = 0.08      # per site -> offered load grows with n
    work: float = 2.0               # computation while holding lock/escrow
    duration: float = 400.0
    txn_timeout: float = 25.0
    initial: int = 10_000_000       # effectively infinite: isolate locking
    seed: int = 67
    link_delay: float = 2.0
    # Rebalance-policy axis: scarce stock, skewed sellers, equal
    # shipment budget (same period and max_ship for every policy).
    rebalance_policies: list[str] = field(
        default_factory=lambda: ["static-rr", "demand-weighted", "pull"])
    rebalance_sellers: int = 5
    rebalance_quota: int = 15       # even per-seller starting stock
    rebalance_reserve: int = 125    # marginal stock held at the depot
    rebalance_rate: float = 0.025   # per unit of seller weight
    rebalance_period: float = 8.0
    rebalance_max_ship: int = 5
    rebalance_timeout: float = 8.0
    rebalance_link_delay: float = 6.0  # rescue round trip > timeout
    #: Sharded-kernel knobs (repro.sim.shard); defaults reproduce the
    #: classic single-queue run.
    shards: int = 1
    shard_workers: int = 1

    @classmethod
    def quick(cls) -> "Params":
        return cls(site_counts=[1, 4], duration=200.0,
                   rebalance_policies=["static-rr", "demand-weighted"])


def _site_names(count: int) -> list[str]:
    return [f"S{index}" for index in range(count)]


def _drive(system, sites: list[str], params: Params) -> Collector:
    workload_config = WorkloadConfig(
        arrival_rate=params.arrival_rate, duration=params.duration,
        mix=OpMix(reserve=0.75, cancel=0.25), amount_low=1, amount_high=2,
        work=params.work)
    source = InventoryWorkload(["hot"], workload_config)
    collector = Collector()
    WorkloadDriver(system.sim, system, sites, source, workload_config,
                   collector).install()
    system.run_for(params.duration + params.txn_timeout + 4 * params.work
                   + 60.0)
    return collector


def _run_central(params: Params, count: int, mode: str) -> dict:
    sites = _site_names(count)
    system = CentralCounterSystem(
        sites, central=sites[0], mode=mode, seed=params.seed,
        link=LinkConfig(base_delay=params.link_delay),
        config=BaselineConfig(txn_timeout=params.txn_timeout))
    system.add_item("hot", params.initial)
    collector = _drive(system, sites, params)
    return _stats(collector, params)


def _run_dvp(params: Params, count: int) -> dict:
    sites = _site_names(count)
    system = DvPSystem(SystemConfig(
        sites=sites, seed=params.seed, txn_timeout=params.txn_timeout,
        link=LinkConfig(base_delay=params.link_delay),
        shards=params.shards, shard_workers=params.shard_workers))
    system.add_item("hot", CounterDomain(), total=params.initial)
    collector = _drive(system, sites, params)
    system.auditor.assert_ok()
    return _stats(collector, params)


def _seller_weights(count: int) -> list[int]:
    """Skewed demand: the first sellers are hot (8:4:2:1:1:... )."""
    return [2 ** max(0, 3 - index) for index in range(count)]


def _run_rebalance(params: Params, policy: str) -> dict:
    """Scarce-stock hot spot under one rebalance policy.

    Every policy gets the same shipment budget — identical period and
    ``max_ship`` — so commit-rate differences come purely from *where*
    the budget is aimed. Sellers start at an even quota (their
    auto-captured target) that the skewed demand outruns at the hot
    end; the depot's reserve, dripped out ``max_ship`` per period, is
    the only slack, and the link delay makes the on-demand path too
    slow to save a waiting sale (its grants arrive after the abort, so
    misplaced stock corrects only sluggishly). A policy has to observe
    the skew to beat round-robin here.
    """
    depot = "D"
    sellers = [f"S{index}" for index in range(params.rebalance_sellers)]
    system = DvPSystem(SystemConfig(
        sites=[depot] + sellers, seed=params.seed,
        txn_timeout=params.rebalance_timeout,
        policy="ask-few", policy_kwargs={"fanout": 1},
        link=LinkConfig(base_delay=params.rebalance_link_delay),
        shards=params.shards, shard_workers=params.shard_workers))
    split = {depot: params.rebalance_reserve}
    split.update({seller: params.rebalance_quota for seller in sellers})
    system.add_item("hot", CounterDomain(), split=split)
    # Watermarks: sellers (target = their quota, captured at start)
    # hold what they are given rather than bouncing it onward; the
    # depot (target 0) pushes its whole reserve out, budgeted.
    daemons = install_rebalancing(system, RebalanceConfig(
        period=params.rebalance_period, high_watermark=1.5,
        low_watermark=0.6, policy=policy,
        max_ship=params.rebalance_max_ship))
    daemons[depot].set_target("hot", 0)
    collector = Collector()
    for seller, weight in zip(sellers, _seller_weights(len(sellers))):
        # One driver per seller: the sellers differ only in their rate.
        workload_config = WorkloadConfig(
            arrival_rate=params.rebalance_rate * weight,
            duration=params.duration, mix=OpMix(reserve=1.0, cancel=0.0),
            amount_low=1, amount_high=2)
        WorkloadDriver(system.sim, system, [seller],
                       InventoryWorkload(["hot"], workload_config),
                       workload_config, collector).install()
    system.run_for(params.duration + params.rebalance_timeout + 60.0)
    system.auditor.assert_ok()
    stats = _stats(collector, params)
    stats["shipments"] = sum(daemon.shipments + daemon.pulls
                             for daemon in daemons.values())
    return stats


def _stats(collector: Collector, params: Params) -> dict:
    summary = collector.latency_summary()
    return {
        "throughput": collector.throughput(params.duration),
        "commit_rate": collector.commit_rate(),
        "p95": summary.p95,
        "decided": len(collector.results),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent (site-count × system) grid behind E6."""
    params = params or Params()
    grid: list[tuple[str, dict]] = []
    for count in params.site_counts:
        for name in ("lock", "escrow", "DvP"):
            if name == "DvP":
                grid.append(("_run_dvp",
                             {"params": params, "count": count}))
            else:
                grid.append(("_run_central",
                             {"params": params, "count": count,
                              "mode": name}))
    for policy in params.rebalance_policies:
        grid.append(("_run_rebalance",
                     {"params": params, "policy": policy}))
    return grid


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E6: hot-spot counter throughput "
        f"(work={params.work}, rate/site={params.arrival_rate})",
        ["sites", "system", "offered", "throughput", "commit%",
         "p95 latency"])
    for count in params.site_counts:
        offered = round(params.arrival_rate * count, 3)
        for name in ("lock", "escrow", "DvP"):
            stats = next(results)
            table.add_row(count, name, offered,
                          round(stats["throughput"], 3),
                          round(100 * stats["commit_rate"], 1),
                          round(stats["p95"], 1))
    weights = _seller_weights(params.rebalance_sellers)
    offered = round(params.rebalance_rate * sum(weights), 3)
    for policy in params.rebalance_policies:
        stats = next(results)
        table.add_row(1 + params.rebalance_sellers, f"DvP+{policy}",
                      offered, round(stats["throughput"], 3),
                      round(100 * stats["commit_rate"], 1),
                      round(stats["p95"], 1))
    table.add_note("lock saturates near 1/work; escrow overlaps clients "
                   "but pays central round trips; DvP commits locally.")
    table.add_note("DvP+<policy> rows: scarce depot stock, skewed "
                   "sellers, equal shipment budget — demand-aware "
                   "policies out-commit static-rr by aiming it.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """At the largest site count run under all three systems the
    exclusive lock has saturated while escrow and DvP keep scaling, and
    DvP's local commits beat the central escrow's p95; at an equal
    shipment budget a demand-aware rebalance policy out-commits
    static-rr."""
    violated = []
    rows = table.records()
    systems: dict[int, dict[str, dict]] = {}
    for row in rows:
        systems.setdefault(row["sites"], {})[row["system"]] = row
    largest = max(count for count, rows in systems.items()
                  if {"lock", "escrow", "DvP"} <= set(rows))
    lock, escrow, dvp = (systems[largest][name]
                         for name in ("lock", "escrow", "DvP"))
    for rival in (escrow, dvp):
        if not rival["throughput"] > lock["throughput"]:
            violated.append(
                f"at {largest} sites {rival['system']}'s throughput "
                f"({rival['throughput']}) is not above the lock's "
                f"({lock['throughput']})")
    if not dvp["p95 latency"] < escrow["p95 latency"]:
        violated.append(
            f"at {largest} sites DvP's p95 ({dvp['p95 latency']}) is "
            f"not below escrow's ({escrow['p95 latency']})")
    policies = {row["system"]: row["commit%"] for row in rows
                if row["system"].startswith("DvP+")}
    static = policies.pop("DvP+static-rr")
    if not max(policies.values()) > static:
        violated.append(
            f"no demand-aware policy out-commits static-rr ({static}%): "
            f"{policies}")
    return violated


if __name__ == "__main__":
    print(run())
