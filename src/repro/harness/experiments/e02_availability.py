"""E2 — Availability during network partitions.

Claim (Sections 3, 8): with DvP "each site is able to access at least
its local quota", so *every* partition group keeps committing
transactions from local value; replicated designs serve at most one
group (the quorum-holding one, or the primary's) and starve the rest.

Design: the same reserve-heavy airline arrival process runs against
DvP, quorum replication and primary-copy replication while the network
is split into k groups for the middle of the run. We report the commit
rate *inside the partition window*, overall and for the worst-served
group.

Expected shape: DvP stays near its unpartitioned commit rate in every
group; quorum serves only a majority group (and nobody when k groups
are all minorities); primary-copy serves only the primary's group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.common import BaselineConfig
from repro.baselines.primarycopy import PrimaryCopySystem
from repro.baselines.quorum import QuorumSystem
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.harness.parallel import evaluate_cells
from repro.metrics.collector import Collector
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.workloads.airline import AirlineWorkload
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver

EXPERIMENT = "E2"


@dataclass
class Params:
    sites: list[str] = field(
        default_factory=lambda: ["S0", "S1", "S2", "S3"])
    groupings: list[int] = field(default_factory=lambda: [1, 2, 4])
    window: tuple[float, float] = (60.0, 260.0)
    run_length: float = 320.0
    arrival_rate: float = 0.025
    txn_timeout: float = 12.0
    seats: int = 100_000  # plentiful: isolate availability, not stock-outs
    seed: int = 23
    link_delay: float = 1.0

    @classmethod
    def quick(cls) -> "Params":
        return cls(groupings=[2, 4], window=(40.0, 160.0),
                   run_length=200.0)


def _groups(sites: list[str], count: int) -> list[list[str]]:
    """Split sites into *count* contiguous groups."""
    size = len(sites) // count
    return [sites[index * size:(index + 1) * size]
            for index in range(count)]


def _window_rates(collector: Collector, window: tuple[float, float],
                  site_group: dict[str, int]) -> tuple[float, float]:
    """(overall, worst-group) commit rate for submissions in window."""
    in_window = collector.in_window(*window)
    per_group: dict[int, list[bool]] = {}
    for result in in_window.results:
        per_group.setdefault(site_group[result.site], []).append(
            result.committed)
    if not per_group:
        return 0.0, 0.0
    group_rates = [sum(flags) / len(flags)
                   for flags in per_group.values()]
    return in_window.commit_rate(), min(group_rates)


def _dvp(params: Params, link: LinkConfig):
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed,
        txn_timeout=params.txn_timeout, link=link))
    system.add_item("flightA", CounterDomain(), total=params.seats)
    return system, system.auditor.assert_ok


def _quorum(params: Params, link: LinkConfig):
    system = QuorumSystem(
        list(params.sites), seed=params.seed, link=link,
        config=BaselineConfig(txn_timeout=params.txn_timeout))
    system.add_item("flightA", params.seats)
    return system, lambda: None


def _primary_copy(params: Params, link: LinkConfig):
    system = PrimaryCopySystem(
        list(params.sites), seed=params.seed, link=link,
        config=BaselineConfig(txn_timeout=params.txn_timeout))
    system.add_item("flightA", params.sites[0], params.seats)
    return system, lambda: None


#: Per compared system, (params, link) -> the system with the flight
#: registered (registration really differs) and its own end-of-run
#: audit (DvP keeps conservation books); everything in between goes
#: through the ``System`` contract.
SYSTEMS = {"DvP": _dvp, "quorum": _quorum, "primary-copy": _primary_copy}


def _run_one(name: str, params: Params, group_count: int) -> tuple:
    groups = _groups(params.sites, group_count)
    workload_config = WorkloadConfig(
        arrival_rate=params.arrival_rate, duration=params.run_length,
        mix=OpMix(reserve=0.7, cancel=0.3))
    source = AirlineWorkload(["flightA"], workload_config)
    collector = Collector()
    system, audit = SYSTEMS[name](
        params, LinkConfig(base_delay=params.link_delay))

    driver = WorkloadDriver(system.sim, system, params.sites, source,
                            workload_config, collector)
    driver.install()
    if group_count > 1:
        system.sim.at(params.window[0],
                      lambda: system.network.partition(groups))
        system.sim.at(params.window[1], system.network.heal)
    system.run_until(params.run_length + params.txn_timeout + 30.0)

    site_group = {site: index for index, group in enumerate(groups)
                  for site in group}
    overall, worst = _window_rates(collector, params.window, site_group)
    audit()
    return overall, worst


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent (system × grouping) grid behind E2."""
    params = params or Params()
    return [("_run_one", {"name": name, "params": params,
                          "group_count": group_count})
            for group_count in params.groupings
            for name in SYSTEMS]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E2: commit rate inside the partition window",
        ["groups", "system", "window commit%", "worst-group commit%"])
    for group_count in params.groupings:
        for name in SYSTEMS:
            overall, worst = next(results)
            table.add_row(group_count, name, round(100 * overall, 1),
                          round(100 * worst, 1))
    table.add_note("groups=1 is the no-failure control; quorum needs a "
                   "majority group; the primary lives in the first group.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """Under any real split (groups > 1) every DvP group keeps
    committing while quorum and primary-copy starve their worst group
    entirely."""
    violated = []
    for row in table.records():
        if row["groups"] == 1:
            continue
        worst = row["worst-group commit%"]
        if row["system"] == "DvP":
            if worst < 90.0:
                violated.append(
                    f"DvP's worst of {row['groups']} groups commits "
                    f"only {worst}% inside the window")
        elif worst != 0.0:
            violated.append(
                f"{row['system']}'s worst of {row['groups']} groups "
                f"still commits {worst}% — the split is inert")
    return violated


if __name__ == "__main__":
    print(run())
