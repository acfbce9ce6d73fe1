"""E9 — Timeout pessimism and the retry variation.

Claim (Section 5): "This step exemplifies the pessimism that we
incorporate ... a timeout always results in the abortion of the
transaction. There are variations to our scheme where such a drastic
action is not required. For example, the requests could be re-tried a
few more times."

Design: redistribution-dependent workload on a lossy network, sweeping
the timeout budget and the number of request retry rounds within it.
Reported per (timeout, retries): commit rate, mean commit latency,
worst-case decision time (== the timeout: the non-blocking bound), and
messages per committed transaction.

Expected shape: a frontier — longer timeouts and more retries buy
commit rate at the price of worst-case decision time and message
traffic; the bound is always honoured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.harness.parallel import evaluate_cells
from repro.metrics.collector import Collector
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver
from repro.workloads.inventory import InventoryWorkload

EXPERIMENT = "E9"


@dataclass
class Params:
    sites: list[str] = field(
        default_factory=lambda: ["S0", "S1", "S2", "S3"])
    timeouts: list[float] = field(
        default_factory=lambda: [4.0, 8.0, 16.0, 32.0])
    retry_counts: list[int] = field(default_factory=lambda: [0, 2])
    loss: float = 0.35
    duration: float = 300.0
    arrival_rate: float = 0.06
    total: int = 60
    seed: int = 97

    @classmethod
    def quick(cls) -> "Params":
        return cls(timeouts=[4.0, 16.0], retry_counts=[0, 2],
                   duration=150.0)


def _run_one(params: Params, timeout: float, retries: int) -> dict:
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed,
        txn_timeout=timeout, request_retries=retries,
        retransmit_period=3.0,
        link=LinkConfig(base_delay=1.0, jitter=1.0,
                        loss_probability=params.loss)))
    system.add_item("stock", CounterDomain(), total=params.total)
    workload_config = WorkloadConfig(
        arrival_rate=params.arrival_rate, duration=params.duration,
        mix=OpMix(reserve=0.5, cancel=0.5), amount_low=4, amount_high=14)
    source = InventoryWorkload(["stock"], workload_config)
    collector = Collector()
    WorkloadDriver(system.sim, system, params.sites, source,
                   workload_config, collector).install()
    system.run_for(params.duration + timeout + 300.0)
    system.auditor.assert_ok()
    committed = collector.committed
    latencies = [result.latency for result in committed]
    return {
        "commit_rate": collector.commit_rate(),
        "mean_latency": (sum(latencies) / len(latencies)
                         if latencies else float("nan")),
        "max_decision": collector.max_latency(),
        "msgs_per_commit": (system.network.total_sent / len(committed)
                            if committed else float("inf")),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent (timeout × retries) grid behind E9."""
    params = params or Params()
    return [("_run_one", {"params": params, "timeout": timeout,
                          "retries": retries})
            for timeout in params.timeouts
            for retries in params.retry_counts]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        f"E9: timeout/retry frontier (loss={params.loss})",
        ["timeout", "retries", "commit%", "mean commit t",
         "max decision t", "msgs/commit"])
    for timeout in params.timeouts:
        for retries in params.retry_counts:
            stats = next(results)
            table.add_row(timeout, retries,
                          round(100 * stats["commit_rate"], 1),
                          round(stats["mean_latency"], 2),
                          round(stats["max_decision"], 2),
                          round(stats["msgs_per_commit"], 2))
    table.add_note("max decision time never exceeds the timeout — the "
                   "non-blocking bound holds at every point of the "
                   "frontier.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """The non-blocking bound: at every point of the frontier the
    slowest decision arrives within the timeout."""
    return [
        f"timeout {row['timeout']:g}, {row['retries']} retries: a "
        f"decision took {row['max decision t']}"
        for row in table.records()
        if row["max decision t"] > row["timeout"] + 1e-6]


if __name__ == "__main__":
    print(run())
