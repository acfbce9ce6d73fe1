"""Common scenario plumbing for the experiments.

A scenario = a DvP system + registered items + a workload + optional
failure injection (partitions, crashes), run for a duration and then
settled (so in-flight Vm land) before measuring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.domain import CounterDomain, Domain
from repro.core.system import DvPSystem, SystemConfig
from repro.metrics.collector import Collector
from repro.net.partitions import PartitionSchedule, PartitionScheduler
from repro.workloads.base import SpecSource, WorkloadConfig, WorkloadDriver


@dataclass
class ScenarioResult:
    """Everything an experiment needs to build its table rows."""

    system: DvPSystem
    collector: Collector
    duration: float
    conservation_ok: bool
    audits: list = field(default_factory=list)

    @property
    def commit_rate(self) -> float:
        return self.collector.commit_rate()

    @property
    def throughput(self) -> float:
        return self.collector.throughput(self.duration)


def run_dvp_scenario(
        system_config: SystemConfig,
        items: dict[str, tuple[Domain, Any]],
        source: SpecSource,
        workload_config: WorkloadConfig,
        partition_schedule: PartitionSchedule | None = None,
        crashes: list[tuple[float, str]] | None = None,
        recoveries: list[tuple[float, str]] | None = None,
        settle: float = 120.0) -> ScenarioResult:
    """Build, fail-inject, drive, settle, audit. Deterministic per seed.

    *items* maps item name -> (domain, split-dict or integer total).
    """
    system = DvPSystem(system_config)
    for name, (domain, split) in items.items():
        if isinstance(split, dict):
            system.add_item(name, domain, split=split)
        else:
            system.add_item(name, domain, total=split)
    collector = Collector()
    driver = WorkloadDriver(system.sim, system, system_config.sites,
                            source, workload_config, collector)
    driver.install()
    if partition_schedule is not None:
        PartitionScheduler(system.sim, system.network,
                           partition_schedule).install()
    for time, site in (crashes or []):
        system.sim.at(time, lambda s=site: system.crash(s),
                      label=f"crash:{site}")
    for time, site in (recoveries or []):
        system.sim.at(time, lambda s=site: system.recover(s),
                      label=f"recover:{site}")
    system.run_until(workload_config.duration)
    # Settle: heal, let timers/retransmissions finish so audits see a
    # quiescent system.
    system.network.heal()
    for site in system.sites.values():
        if not site.alive:
            site.recover()
    system.run_for(settle)
    audits = system.audit()
    return ScenarioResult(
        system=system, collector=collector,
        duration=workload_config.duration,
        conservation_ok=all(report.ok for report in audits),
        audits=audits)


def counter_items(names: list[str], total: int) -> dict[str, tuple]:
    """Shorthand: each name is a CounterDomain item split evenly."""
    return {name: (CounterDomain(), total) for name in names}
