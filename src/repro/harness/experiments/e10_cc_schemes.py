"""E10 — Conc1 vs Conc2 (and what Conc2 costs in assumptions).

Claim (Section 6): Conc1 (timestamp ordering, never waits) works on any
network; Conc2 (strict 2PL, FIFO waits) avoids many aborts but is only
sound "under certain reasonable characteristics of the system" —
message-order synchronicity and atomic ordered broadcast.

Design: the same mixed workload runs under

* conc1 on the lossy asynchronous network (the paper's base system),
* conc1 on the synchronous network (isolates the network effect),
* conc2 on the synchronous network it requires,
* conc2 on the asynchronous network — OUTSIDE its assumptions; its
  serializability report is shown, not asserted.

Reported: commit rate, throughput, abort reasons, serializability
verdict (read mismatches / negative dips from the replay checker).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.harness.parallel import evaluate_cells
from repro.harness.serial import check_serializable
from repro.metrics.collector import Collector
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.workloads.airline import AirlineWorkload
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver

EXPERIMENT = "E10"

#: (scheme, synchronous) cases in display order.
CASES = [
    ("conc1", False), ("conc1", True),
    ("conc2", True), ("conc2", False),
]


@dataclass
class Params:
    sites: list[str] = field(
        default_factory=lambda: ["S0", "S1", "S2", "S3"])
    flights: list[str] = field(
        default_factory=lambda: ["flightA", "flightB"])
    duration: float = 300.0
    arrival_rate: float = 0.2
    txn_timeout: float = 20.0
    seats: int = 150
    seed: int = 103
    loss: float = 0.05

    @classmethod
    def quick(cls) -> "Params":
        return cls(duration=150.0, arrival_rate=0.15)


def _run_one(params: Params, scheme: str, synchronous: bool) -> dict:
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed, cc=scheme,
        synchronous=synchronous, sync_delay=1.0,
        txn_timeout=params.txn_timeout,
        link=LinkConfig(base_delay=1.0, jitter=1.0,
                        loss_probability=params.loss)))
    initial, domains = {}, {}
    for flight in params.flights:
        system.add_item(flight, CounterDomain(), total=params.seats)
        initial[flight] = params.seats
        domains[flight] = CounterDomain()
    workload_config = WorkloadConfig(
        arrival_rate=params.arrival_rate, duration=params.duration,
        mix=OpMix(reserve=0.45, cancel=0.35, transfer=0.12, read=0.08))
    source = AirlineWorkload(list(params.flights), workload_config)
    collector = Collector()
    WorkloadDriver(system.sim, system, params.sites, source,
                   workload_config, collector).install()
    system.run_for(params.duration + params.txn_timeout + 300.0)
    report = check_serializable(collector.results, initial, domains)
    reasons = collector.abort_reasons()
    return {
        "commit_rate": collector.commit_rate(),
        "throughput": collector.throughput(params.duration),
        "ts_aborts": reasons.get("timestamp-refused", 0)
        + reasons.get("locked", 0),
        "timeout_aborts": reasons.get("timeout", 0),
        "violations": (len(report.read_mismatches)
                       + len(report.negative_dips)),
        "reads": report.reads_checked,
        "conserved": system.auditor.all_ok(),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent (scheme × network) grid behind E10."""
    params = params or Params()
    return [("_run_one", {"params": params, "scheme": scheme,
                          "synchronous": synchronous})
            for scheme, synchronous in CASES]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E10: concurrency control schemes and their assumptions",
        ["scheme", "network", "commit%", "throughput", "cc aborts",
         "timeout aborts", "reads", "serializability violations",
         "conserved"])
    for scheme, synchronous in CASES:
        stats = next(results)
        table.add_row(
            scheme, "sync" if synchronous else "async",
            round(100 * stats["commit_rate"], 1),
            round(stats["throughput"], 3),
            stats["ts_aborts"], stats["timeout_aborts"], stats["reads"],
            stats["violations"], "yes" if stats["conserved"] else "NO")
    table.add_note("conc2/async runs outside its soundness assumptions: "
                   "its violation count is reported, not asserted. "
                   "Conservation holds regardless (redistribution can "
                   "never create value).")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """Value is conserved under every scheme and network; Conc1 is
    serializable on both networks; Conc2 on its synchronous network
    turns Conc1's aborts into waits, so it commits at least as much."""
    violated = []
    rows = {(row["scheme"], row["network"]): row
            for row in table.records()}
    for (scheme, network), row in rows.items():
        if row["conserved"] != "yes":
            violated.append(f"{scheme}/{network} did not conserve value")
        if scheme == "conc1" and row["serializability violations"] != 0:
            violated.append(
                f"conc1/{network}: "
                f"{row['serializability violations']} serializability "
                "violations")
    conc2, conc1 = rows[("conc2", "sync")], rows[("conc1", "async")]
    if conc2["commit%"] < conc1["commit%"]:
        violated.append(
            f"conc2/sync commits {conc2['commit%']}%, below "
            f"conc1/async's {conc1['commit%']}%")
    return violated


if __name__ == "__main__":
    print(run())
