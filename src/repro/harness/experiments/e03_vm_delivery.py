"""E3 — Virtual messages never lose value, whatever the links do.

Claim (Section 4.2): a Vm exists from the sender's log force to the
receiver's accept force; real messages may be lost, duplicated,
reordered or delayed arbitrarily, and sites may crash, yet the value in
flight is never lost and never applied twice. The conservation
invariant Σ fragments + Σ live Vm = d holds at all times.

Design: a redistribution-heavy workload (small quotas, demands that
exceed them) on four sites, swept across message-loss probabilities,
with duplication and reordering enabled and one mid-run crash+recovery.
After a settling period every Vm must have landed exactly once.

Reported per loss rate: transactions committed, Vm created, mean/max
delivery latency (create → accept), retransmissions per Vm, residual
live Vm after settling (must be 0), and the conservation verdict.
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

EXPERIMENT = "E3"


@dataclass
class Params:
    sites: list[str] = field(
        default_factory=lambda: ["S0", "S1", "S2", "S3"])
    loss_rates: list[float] = field(
        default_factory=lambda: [0.0, 0.2, 0.5, 0.8])
    duration: float = 300.0
    settle: float = 600.0
    arrival_rate: float = 0.08
    txn_timeout: float = 25.0
    retransmit_period: float = 4.0
    total: int = 40
    crash_site_index: int = 3
    crash_at: float = 120.0
    recover_at: float = 180.0
    seed: int = 31

    @classmethod
    def quick(cls) -> "Params":
        return cls(loss_rates=[0.0, 0.5], duration=150.0, settle=400.0)


def _run_one(params: Params, loss: float) -> dict:
    link = LinkConfig(base_delay=1.0, jitter=2.0, loss_probability=loss,
                      duplicate_probability=0.1)
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed,
        txn_timeout=params.txn_timeout,
        retransmit_period=params.retransmit_period,
        request_retries=2, link=link))
    system.add_item("stock", CounterDomain(), total=params.total)
    workload_config = WorkloadConfig(
        arrival_rate=params.arrival_rate, duration=params.duration,
        mix=OpMix(reserve=0.5, cancel=0.5), amount_low=4, amount_high=14)
    source = InventoryWorkload(["stock"], workload_config)
    collector = Collector()
    WorkloadDriver(system.sim, system, params.sites, source,
                   workload_config, collector).install()
    crash_site = params.sites[params.crash_site_index]
    system.sim.at(params.crash_at, lambda: system.crash(crash_site))
    system.sim.at(params.recover_at, lambda: system.recover(crash_site))
    system.run_until(params.duration)
    mid_audit_ok = system.auditor.all_ok()
    system.run_for(params.settle)

    # From the registry, which outlives the crashed site's VmManager.
    metrics = system.sim.metrics
    created = metrics.total("vm.created")
    retransmissions = metrics.total("vm.retransmissions")
    latencies = [value for histogram in metrics.histograms("vm.delivery")
                 for value in histogram.values]
    live = sum(1 for _entry in system.auditor.live_entries())
    system.auditor.assert_ok()
    return {
        "committed": len(collector.committed),
        "decided": len(collector.results),
        "created": created,
        "mean_latency": (sum(latencies) / len(latencies)
                         if latencies else 0.0),
        "max_latency": max(latencies, default=0.0),
        "retx_per_vm": retransmissions / created if created else 0.0,
        "residual_live": live,
        "mid_audit_ok": mid_audit_ok,
        "conservation_ok": system.auditor.all_ok(),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent loss-rate grid behind E3."""
    params = params or Params()
    return [("_run_one", {"params": params, "loss": loss})
            for loss in params.loss_rates]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E3: Vm delivery under message loss (+dup/reorder, 1 crash)",
        ["loss", "txns", "commit", "Vm created", "mean deliver t",
         "max deliver t", "retx/Vm", "live Vm after settle",
         "conserved"])
    for loss in params.loss_rates:
        stats = next(results)
        table.add_row(
            loss, stats["decided"], stats["committed"], stats["created"],
            round(stats["mean_latency"], 1), round(stats["max_latency"], 1),
            round(stats["retx_per_vm"], 2), stats["residual_live"],
            "yes" if stats["conservation_ok"] and stats["mid_audit_ok"]
            else "NO")
    table.add_note("accepted-exactly-once is implied by live Vm = 0 plus "
                   "conservation; latency grows with loss but no value is "
                   "ever lost.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """At every loss rate value is conserved and no Vm is left live
    after the settle; retransmissions per Vm rise with the loss."""
    violated = []
    rows = table.records()
    for row in rows:
        if row["conserved"] != "yes" or row["live Vm after settle"] != 0:
            violated.append(
                f"loss {row['loss']:g}: conserved={row['conserved']}, "
                f"{row['live Vm after settle']} Vm still live")
    calm = min(rows, key=lambda row: row["loss"])
    lossy = max(rows, key=lambda row: row["loss"])
    if lossy["retx/Vm"] < calm["retx/Vm"]:
        violated.append(
            f"retx/Vm falls from {calm['retx/Vm']} at loss "
            f"{calm['loss']:g} to {lossy['retx/Vm']} at {lossy['loss']:g}")
    return violated


if __name__ == "__main__":
    print(run())
