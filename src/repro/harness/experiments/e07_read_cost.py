"""E7 — The cost of reading the full value.

Claim (Sections 3, 8): "there is a high overhead in reading the entire
value of a particular data item" — a full read must drain every remote
fragment (requests to all sites, a Vm from each, freezes at every
responder), while a partitionable update is usually free of any
network traffic at all.

Design: for each site count n, scatter value across the sites with a
warm-up churn, quiesce, then issue (a) one local update and (b) one
full read, measuring messages sent and latency for each in isolation.
A second phase measures the *collateral* cost: the abort rate of
update traffic while a read (and its freezes) is in progress.

Expected shape: update cost stays O(1)/zero-message; read cost grows
linearly in n (2n request+drain messages plus acks) and read-time
freezes abort concurrent updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
)
from repro.harness.parallel import evaluate_cells
from repro.metrics.tables import Table
from repro.net.link import LinkConfig

EXPERIMENT = "E7"


@dataclass
class Params:
    site_counts: list[int] = field(default_factory=lambda: [2, 4, 8, 16])
    total: int = 1000
    txn_timeout: float = 40.0
    read_freeze: float = 40.0
    seed: int = 71
    link_delay: float = 1.0

    @classmethod
    def quick(cls) -> "Params":
        return cls(site_counts=[2, 8])


def _build(params: Params, count: int) -> DvPSystem:
    sites = [f"S{index}" for index in range(count)]
    system = DvPSystem(SystemConfig(
        sites=sites, seed=params.seed, txn_timeout=params.txn_timeout,
        read_freeze=params.read_freeze,
        link=LinkConfig(base_delay=params.link_delay)))
    system.add_item("pool", CounterDomain(), total=params.total)
    # Churn so fragments are uneven (each site has touched the item).
    rng = system.sim.rng.stream("e07-churn")
    for index, site in enumerate(sites):
        amount = rng.randint(1, 5)
        system.sim.at(index * 2.0 + 0.25, lambda s=site, a=amount:
                      system.submit(s, TransactionSpec(
                          ops=(DecrementOp("pool", a),), label="churn")))
    system.run_for(count * 2.0 + 30.0)
    return system


def _measure(system: DvPSystem, spec: TransactionSpec) -> tuple[float, int,
                                                                bool]:
    """(latency, messages, committed) for one transaction in isolation."""
    sent_before = system.network.total_sent
    outcomes = []
    system.submit(list(system.sites)[0], spec, outcomes.append)
    system.run_for(system.config.txn_timeout + 120.0)
    result = outcomes[0]
    return (result.latency, system.network.total_sent - sent_before,
            result.committed)


def _collateral(params: Params, count: int) -> float:
    """Abort rate of update traffic racing one full read."""
    system = _build(params, count)
    sites = list(system.sites)
    outcomes = []
    start = system.sim.now
    system.submit(sites[0], TransactionSpec(
        ops=(ReadFullOp("pool"),), label="read"), outcomes.append)
    # Updates at every other site while the read's freezes are live.
    for offset, site in enumerate(sites[1:]):
        system.sim.at(start + 2.0 + offset * 0.5,
                      lambda s=site: system.submit(s, TransactionSpec(
                          ops=(IncrementOp("pool", 1),), label="racer"),
                          outcomes.append))
    system.run_for(params.txn_timeout + params.read_freeze + 120.0)
    racers = [result for result in outcomes if result.label == "racer"]
    if not racers:
        return 0.0
    return sum(1 for result in racers if not result.committed) / len(racers)


def _cell(params: Params, count: int) -> dict:
    """All E7 measurements for one site count (one grid cell)."""
    system = _build(params, count)
    update_latency, update_msgs, _ok = _measure(
        system, TransactionSpec(ops=(IncrementOp("pool", 3),),
                                label="update"))
    system2 = _build(params, count)
    read_latency, read_msgs, read_ok = _measure(
        system2, TransactionSpec(ops=(ReadFullOp("pool"),),
                                 label="read"))
    return {
        "update_latency": update_latency,
        "update_msgs": update_msgs,
        "read_latency": read_latency,
        "read_msgs": read_msgs,
        "read_ok": read_ok,
        "collateral": _collateral(params, count),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent site-count grid behind E7."""
    params = params or Params()
    return [("_cell", {"params": params, "count": count})
            for count in params.site_counts]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E7: full-read cost vs update cost as sites grow",
        ["sites", "update msgs", "update t", "read msgs", "read t",
         "read ok", "racer abort% during read"])
    for count in params.site_counts:
        stats = next(results)
        table.add_row(count, stats["update_msgs"],
                      round(stats["update_latency"], 2),
                      stats["read_msgs"], round(stats["read_latency"], 2),
                      "yes" if stats["read_ok"] else "no",
                      round(100 * stats["collateral"], 1))
    table.add_note("read messages grow ~3n (request + drain + ack per "
                   "peer); updates on a funded fragment cost zero "
                   "messages; freezes abort concurrent update traffic "
                   "under Conc1.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """An update on a funded fragment costs no message at any scale; a
    full read costs at least a request and a drain per peer, so its
    message count grows with the site count."""
    violated = []
    rows = table.records()
    for row in rows:
        if row["update msgs"] != 0:
            violated.append(f"an update at {row['sites']} sites cost "
                            f"{row['update msgs']} messages")
        if row["read msgs"] < 2 * (row["sites"] - 1):
            violated.append(
                f"a full read at {row['sites']} sites cost "
                f"{row['read msgs']} messages, fewer than two per peer")
    smallest = min(rows, key=lambda row: row["sites"])
    largest = max(rows, key=lambda row: row["sites"])
    if not largest["read msgs"] > smallest["read msgs"]:
        violated.append(
            f"read messages do not grow from {smallest['sites']} to "
            f"{largest['sites']} sites")
    return violated


if __name__ == "__main__":
    print(run())
