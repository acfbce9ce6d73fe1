"""E13 — Elastic topology: commit rate under reshard-under-load.

Claim context (Section 9 and docs/PARTITIONING.md): the paper leaves
"the best ways to distribute the data" open, and data-value
partitioning makes redistribution cheap precisely because moving value
is just another transfer-mode Vm. This experiment stresses the elastic
extreme: while a decrement workload runs at every site, a new site
joins mid-run and an original site is decommissioned shortly after —
each reshard re-partitioning the directory and migrating fragment
value through ordinary Vm traffic, fenced behind in-flight old-epoch
transactions.

Design: N sites (16–64) on the sharded kernel, a consistent-hash
directory with a few replicas per item, Poisson decrements everywhere.
``add_site`` fires at 35% of the horizon and ``remove_site`` at 60%
(waiting out any still-running migration), splitting commits into
before/during/after phases by submission time. Reported per cell:
phase commit rates, migration shipments and migrated value, directory
epochs, total messages, and the conservation verdict (mid-run
``verify_full`` probes plus the incremental auditor at quiescence).

Expected shape: commit rate dips slightly *during* the reshard window
(value in migration Vm is unavailable until accepted; the epoch fence
delays moves, not transactions) and recovers after; migration traffic
scales with the value the leaver held plus what the joiner gains —
roughly 1/N of the total under consistent hashing, not a full
reshuffle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.harness.parallel import evaluate_cells
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver
from repro.workloads.inventory import InventoryWorkload

EXPERIMENT = "E13"

#: Horizon fractions of the two topology changes and the probes.
ADD_AT = 0.35
REMOVE_AT = 0.60
PROBE_FRACTIONS = (0.3, 0.5, 0.8)


@dataclass
class Params:
    site_counts: list[int] = field(default_factory=lambda: [16, 32, 64])
    reshard: list[bool] = field(default_factory=lambda: [False, True])
    items: int = 6
    replicas: int = 3
    total: int = 240               # per item, spread over its owners
    duration: float = 300.0
    rate: float = 0.02             # decrement arrivals per site
    txn_timeout: float = 12.0
    shards: int = 4
    seed: int = 211

    @classmethod
    def quick(cls) -> "Params":
        return cls(site_counts=[16], items=4, duration=150.0,
                   shards=2)


def _run_one(params: Params, sites: int, reshard: bool) -> dict:
    names = [f"S{index}" for index in range(sites)]
    system = DvPSystem(SystemConfig(
        sites=names, seed=params.seed,
        txn_timeout=params.txn_timeout,
        link=LinkConfig(base_delay=1.0, jitter=0.5),
        shards=params.shards,
        partitioner="consistent", replicas=params.replicas))
    items = [f"item{index}" for index in range(params.items)]
    for item in items:
        system.add_item(item, CounterDomain(), total=params.total)

    workload = WorkloadConfig(
        arrival_rate=params.rate, duration=params.duration,
        mix=OpMix(reserve=0.75, cancel=0.25), amount_low=1, amount_high=3)
    driver = WorkloadDriver(system.sim, system, names,
                            InventoryWorkload(items, workload), workload)
    driver.install()
    results = driver.collector.results

    add_at = ADD_AT * params.duration
    remove_at = REMOVE_AT * params.duration
    if reshard:
        system.sim.at_global(add_at, lambda: system.add_site("E0"),
                             label="e13:add-site")

        def try_remove():
            # The join's migration may still be shipping; topology
            # changes are serialized, so wait it out.
            if system.reshard_in_progress:
                system.sim.at_global(system.sim.now + 5.0, try_remove,
                                     label="e13:remove-site")
                return
            system.remove_site(names[-1])

        system.sim.at_global(remove_at, try_remove,
                             label="e13:remove-site")

    probe_failures = []
    for fraction in PROBE_FRACTIONS:
        def probe(fraction=fraction):
            for report in system.auditor.verify_full():
                if not report.ok:
                    probe_failures.append(f"{fraction:g}: {report}")
        system.sim.at_global(fraction * params.duration, probe,
                             label="e13-probe")

    system.run_until(params.duration)
    system.run_for(params.txn_timeout + 200.0)
    system.auditor.assert_ok()
    if probe_failures:
        raise AssertionError(f"conservation probes failed: {probe_failures}")
    if system.reshard_in_progress:
        raise AssertionError("a reshard is still in progress at the end")

    def window_rate(begin, end):
        pool = [r for r in results if begin <= r.submitted_at < end]
        if not pool:
            return float("nan")
        return sum(1 for r in pool if r.committed) / len(pool)

    return {
        "before": window_rate(0.0, add_at),
        "during": window_rate(add_at, remove_at + params.txn_timeout),
        "after": window_rate(remove_at + params.txn_timeout,
                             params.duration),
        "ships": system.sim.metrics.counter("migrate.ships").value,
        "migrated": system.sim.metrics.counter("migrate.value").value,
        "epochs": system.directory.epoch,
        "messages": system.network.total_sent,
        "decided": len(results),
    }


def _grid(params: Params) -> list[tuple[int, bool]]:
    return [(sites, reshard) for sites in params.site_counts
            for reshard in params.reshard]


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent (sites × reshard on/off) grid behind E13."""
    params = params or Params()
    return [("_run_one", {"params": params, "sites": sites,
                          "reshard": reshard})
            for sites, reshard in _grid(params)]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E13: commit rate and migration traffic under reshard-under-load",
        ["sites", "reshard", "commit% before", "during", "after",
         "migration ships", "value moved", "epochs", "total msgs"])
    for sites, reshard in _grid(params):
        stats = next(results)
        table.add_row(sites, "join+leave" if reshard else "off",
                      round(100 * stats["before"], 1),
                      round(100 * stats["during"], 1),
                      round(100 * stats["after"], 1),
                      stats["ships"], stats["migrated"],
                      stats["epochs"], stats["messages"])
    table.add_note("join at 35% / decommission at 60% of the horizon; "
                   "migrations are ordinary transfer Vm fenced behind "
                   "old-epoch transactions, so the auditor and probes "
                   "check every move. Consistent hashing keeps the "
                   "moved value near 1/N of the total per change.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """Without topology changes nothing migrates and no epoch passes;
    a join plus a decommission is exactly two epochs and ships value;
    and no phase's commit rate falls more than 20 points below the
    undisturbed run at the same scale."""
    violated = []
    rows = {(row["sites"], row["reshard"]): row
            for row in table.records()}
    for sites in sorted({sites for sites, _reshard in rows}):
        off, on = rows[(sites, "off")], rows[(sites, "join+leave")]
        if off["migration ships"] != 0 or off["epochs"] != 0:
            violated.append(
                f"{sites} sites, reshard off: {off['migration ships']} "
                f"ships and {off['epochs']} epochs")
        if (on["epochs"] != 2 or on["migration ships"] <= 0
                or on["value moved"] <= 0):
            violated.append(
                f"{sites} sites, join+leave: {on['epochs']} epochs, "
                f"{on['migration ships']} ships moving "
                f"{on['value moved']}")
        for phase in ("commit% before", "during", "after"):
            if on[phase] < off[phase] - 20.0:
                violated.append(
                    f"{sites} sites, {phase}: {on[phase]}% under "
                    f"reshard vs {off[phase]}% undisturbed")
    return violated


if __name__ == "__main__":
    print(run())
