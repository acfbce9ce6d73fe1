"""E8 — Redistribution policy ablation.

Claim (Section 9, future work): "performance studies to find the best
ways to distribute the data, to design the transactions and to reduce
the message traffic are needed". This experiment maps a slice of that
design space with the three implemented policies:

* ``ask-all``        — broadcast the deficit to every peer (fastest,
  most message traffic, over-transfers);
* ``ask-few(k)``     — ask k random peers (thrifty, risks aborts);
* ``reserving(f)``   — ask everyone but responders keep a reserve
  fraction at home (protects the responder's own customers).

Workload: demand is skewed onto one site (a "flash sale" at S0) while
value starts spread evenly, so almost every S0 transaction needs
redistribution. Reported per policy: commit rate at the hot site,
commit rate at the other sites (responder starvation), messages per
committed transaction, and mean commit latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
)
from repro.harness.parallel import evaluate_cells
from repro.metrics.collector import Collector
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.workloads.base import WorkloadConfig, WorkloadDriver

EXPERIMENT = "E8"


@dataclass
class Params:
    sites: list[str] = field(
        default_factory=lambda: ["S0", "S1", "S2", "S3", "S4", "S5"])
    policies: list[tuple[str, dict]] = field(default_factory=lambda: [
        ("ask-all", {}),
        ("ask-few", {"fanout": 1}),
        ("ask-few", {"fanout": 2}),
        ("reserving", {"reserve_fraction": 0.5}),
    ])
    total: int = 160
    duration: float = 300.0
    hot_rate: float = 0.25       # arrivals at the flash-sale site
    cold_rate: float = 0.05      # arrivals elsewhere
    txn_timeout: float = 15.0
    seed: int = 83

    @classmethod
    def quick(cls) -> "Params":
        return cls(duration=150.0, policies=[("ask-all", {}),
                                             ("ask-few", {"fanout": 1})])


class FlashSale:
    """Hot site sells hard; cold sites trickle along."""

    def __init__(self, hot_site: str) -> None:
        self.hot_site = hot_site

    def make_spec(self, rng: random.Random, site: str) -> TransactionSpec:
        if site == self.hot_site:
            return TransactionSpec(
                ops=(DecrementOp("sku", rng.randint(3, 10)),), label="hot")
        if rng.random() < 0.3:
            return TransactionSpec(
                ops=(IncrementOp("sku", rng.randint(1, 3)),),
                label="restock")
        return TransactionSpec(
            ops=(DecrementOp("sku", rng.randint(1, 3)),), label="cold")


def _run_one(params: Params, policy: str, kwargs: dict) -> dict:
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed,
        policy=policy, policy_kwargs=kwargs,
        txn_timeout=params.txn_timeout,
        link=LinkConfig(base_delay=1.0, jitter=0.5)))
    system.add_item("sku", CounterDomain(), total=params.total)
    source = FlashSale(params.sites[0])
    hot_collector = Collector()
    cold_collector = Collector()
    WorkloadDriver(system.sim, system, [params.sites[0]], source,
                   WorkloadConfig(arrival_rate=params.hot_rate,
                                  duration=params.duration,
                                  seed_stream="hot"),
                   hot_collector).install()
    WorkloadDriver(system.sim, system, params.sites[1:], source,
                   WorkloadConfig(arrival_rate=params.cold_rate,
                                  duration=params.duration,
                                  seed_stream="cold"),
                   cold_collector).install()
    system.run_for(params.duration + params.txn_timeout + 200.0)
    system.auditor.assert_ok()
    committed = (len(hot_collector.committed)
                 + len(cold_collector.committed))
    latencies = [result.latency for result in hot_collector.committed]
    return {
        "hot_rate": hot_collector.commit_rate(),
        "cold_rate": cold_collector.commit_rate(),
        "msgs_per_commit": (system.network.total_sent / committed
                            if committed else float("inf")),
        "hot_latency": (sum(latencies) / len(latencies)
                        if latencies else float("nan")),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent policy grid behind E8."""
    params = params or Params()
    return [("_run_one", {"params": params, "policy": policy,
                          "kwargs": kwargs})
            for policy, kwargs in params.policies]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E8: redistribution policies under a flash sale at S0",
        ["policy", "hot commit%", "cold commit%", "msgs/commit",
         "hot mean latency"])
    for policy, kwargs in params.policies:
        stats = next(results)
        label = policy
        if kwargs:
            inner = ",".join(str(value) for value in kwargs.values())
            label = f"{policy}({inner})"
        table.add_row(label, round(100 * stats["hot_rate"], 1),
                      round(100 * stats["cold_rate"], 1),
                      round(stats["msgs_per_commit"], 2),
                      round(stats["hot_latency"], 2))
    table.add_note("ask-all trades messages for commit rate; ask-few(1) "
                   "saves traffic but starves the hot site; reserving "
                   "protects cold-site customers.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """Asking one peer costs fewer messages per commit than
    broadcasting the request."""
    cost = {row["policy"]: row["msgs/commit"] for row in table.records()}
    if not cost["ask-few(1)"] < cost["ask-all"]:
        return [f"ask-few(1) pays {cost['ask-few(1)']} msgs/commit, not "
                f"fewer than ask-all's {cost['ask-all']}"]
    return []


if __name__ == "__main__":
    print(run())
