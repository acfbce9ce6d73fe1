"""E4 — Serializability subject to redistribution.

Claim (Section 6): under Conc1 (and under Conc2 on a synchronous
network) any concurrent execution is equivalent to some serial
execution of the committed real transactions; the distribution of
fragments may differ but the *values* cannot.

Design: a mixed workload (reserves, cancels, cross-item transfers and
full reads) runs at several concurrency levels. Afterwards the checker
in :mod:`repro.harness.serial` replays the committed transactions in
commit order: every full read must have returned the replayed running
total and no replayed decrement may dip below zero. Conservation is
audited as well.

Reported per (scheme, arrival-rate): committed/aborted, reads checked,
read mismatches (must be 0), dips (must be 0), conservation verdict,
and the abort-reason mix (how the scheme pays for correctness).
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

EXPERIMENT = "E4"


@dataclass
class Params:
    sites: list[str] = field(
        default_factory=lambda: ["S0", "S1", "S2", "S3"])
    flights: list[str] = field(
        default_factory=lambda: ["flightA", "flightB", "flightC"])
    arrival_rates: list[float] = field(
        default_factory=lambda: [0.05, 0.15, 0.3])
    schemes: list[str] = field(default_factory=lambda: ["conc1", "conc2"])
    duration: float = 250.0
    settle: float = 300.0
    txn_timeout: float = 20.0
    seats: int = 120
    seed: int = 41

    @classmethod
    def quick(cls) -> "Params":
        return cls(arrival_rates=[0.15], duration=150.0, settle=200.0)


def _run_one(params: Params, scheme: str, rate: float) -> dict:
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed, cc=scheme,
        txn_timeout=params.txn_timeout,
        link=LinkConfig(base_delay=1.0, jitter=1.0)))
    initial_totals = {}
    domains = {}
    for flight in params.flights:
        system.add_item(flight, CounterDomain(), total=params.seats)
        initial_totals[flight] = params.seats
        domains[flight] = CounterDomain()
    workload_config = WorkloadConfig(
        arrival_rate=rate, duration=params.duration,
        mix=OpMix(reserve=0.45, cancel=0.3, transfer=0.15, read=0.1))
    source = AirlineWorkload(list(params.flights), workload_config)
    collector = Collector()
    WorkloadDriver(system.sim, system, params.sites, source,
                   workload_config, collector).install()
    system.run_until(params.duration)
    system.run_for(params.settle)
    report = check_serializable(collector.results, initial_totals, domains)
    reasons = collector.abort_reasons()
    return {
        "committed": len(collector.committed),
        "aborted": len(collector.aborted),
        "reads": report.reads_checked,
        "mismatches": len(report.read_mismatches),
        "dips": len(report.negative_dips),
        "conserved": system.auditor.all_ok(),
        "top_abort": reasons.most_common(1)[0][0] if reasons else "-",
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent (scheme × arrival-rate) grid behind E4."""
    params = params or Params()
    return [("_run_one", {"params": params, "scheme": scheme,
                          "rate": rate})
            for scheme in params.schemes
            for rate in params.arrival_rates]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E4: serializability check (commit-order replay)",
        ["scheme", "rate", "commit", "abort", "reads ok",
         "read mismatch", "neg dips", "conserved", "top abort reason"])
    for scheme in params.schemes:
        for rate in params.arrival_rates:
            stats = next(results)
            table.add_row(
                scheme, rate, stats["committed"], stats["aborted"],
                stats["reads"], stats["mismatches"], stats["dips"],
                "yes" if stats["conserved"] else "NO",
                stats["top_abort"])
    table.add_note("conc2 runs on the order-synchronous network it "
                   "requires; mismatch and dip columns must be zero.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """Under both schemes and every rate the commit-order replay finds
    no read mismatch and no negative dip, and value is conserved."""
    return [
        f"{row['scheme']} at rate {row['rate']:g}: "
        f"{row['read mismatch']} read mismatches, {row['neg dips']} "
        f"negative dips, conserved={row['conserved']}"
        for row in table.records()
        if row["read mismatch"] != 0 or row["neg dips"] != 0
        or row["conserved"] != "yes"]


if __name__ == "__main__":
    print(run())
