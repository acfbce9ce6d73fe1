"""E15 — Commit-protocol showdown under partitions and crashes.

Claim (Sections 3, 8 + the Gray & Lamport comparison): coordinated
commit protocols pay for atomicity with availability when the network
splits — 2PC blocks on its coordinator, quorum serves one group, Paxos
Commit decides wherever a majority of acceptors lives but still makes
the minority wait — while DvP keeps committing from local quotas in
*every* group, and the path-sensitive hybrid keeps the locally provable
subset of a centralized workload flowing.

Design: one account item per site. Each site submits a Poisson stream
mixing local increments/decrements on its own account with cross-site
operations on a random peer's account (single-item, so every protocol
can run the identical stream). Mid-run a fault window opens: one site
crashes and the network splits into a two-site minority and the rest;
both heal at the window's end. Protocols:

* ``dvp``       — every account value-partitioned across all sites;
* ``hybrid-ps`` — every account consolidated at its owner under the
  hybrid manager with the Soethout path-sensitive fast path enabled;
* ``2pc``       — accounts homed at their owner, two-phase commit;
* ``paxos``     — accounts homed at their owner, Paxos Commit
  (2F+1 acceptors, F<=2);
* ``quorum``    — accounts fully replicated, majority lock quorum.

Reported per protocol and site count: in-window availability
(committed / submitted, lost counts against), the worst-served
partition group, committed-latency p50/p99, participants still blocked
at the window's end, and messages per commit. Expected shape: DvP near
100% in both groups; hybrid-ps between DvP and the coordinated
protocols (its increments survive the partition); Paxos commits
through the crash with a long latency tail in the minority; 2PC aborts
or blocks on the dead/unreachable coordinator; quorum serves only the
majority group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.baselines.common import BaselineConfig
from repro.baselines.paxoscommit import PaxosCommitSystem
from repro.baselines.quorum import QuorumSystem
from repro.baselines.twopc import TwoPCSystem
from repro.chaos.plan import (
    CrashSite,
    FaultPlan,
    HealNet,
    PartitionNet,
    RecoverSite,
)
from repro.core.domain import CounterDomain
from repro.core.site import SiteDown
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
    UnsupportedSpec,
)
from repro.harness.parallel import evaluate_cells
from repro.hybrid import HybridSystem
from repro.metrics.collector import Collector
from repro.metrics.stats import percentile_sorted
from repro.metrics.tables import Table
from repro.net.link import LinkConfig

EXPERIMENT = "E15"


@dataclass
class Params:
    site_counts: list[int] = field(default_factory=lambda: [10, 40, 100])
    window: tuple[float, float] = (60.0, 240.0)
    run_length: float = 300.0
    arrival_rate: float = 0.04       # per site
    cross_fraction: float = 0.4      # ops that touch a peer's account
    txn_timeout: float = 12.0
    per_item: int = 10_000
    seed: int = 31
    link_delay: float = 1.0

    @classmethod
    def quick(cls) -> "Params":
        return cls(site_counts=[10], window=(40.0, 140.0),
                   run_length=200.0)


def _sites(count: int) -> list[str]:
    return [f"S{index}" for index in range(count)]


def fault_plan(sites: list[str],
               window: tuple[float, float]) -> FaultPlan:
    """Crash one minority site and split a two-site minority off."""
    minority = tuple(sites[:2])
    return FaultPlan((
        CrashSite(at=window[0], site=sites[1]),
        PartitionNet(at=window[0], groups=(minority,)),
        RecoverSite(at=window[1], site=sites[1]),
        HealNet(at=window[1]),
    ))


def _dvp(sites: list[str], params: Params, link: LinkConfig):
    system = DvPSystem(SystemConfig(
        sites=list(sites), seed=params.seed,
        txn_timeout=params.txn_timeout, link=link))
    for index in range(len(sites)):
        system.add_item(f"acct_{index}", CounterDomain(),
                        total=params.per_item)
    return system, system.auditor.assert_ok


def _hybrid(sites: list[str], params: Params, link: LinkConfig):
    system, audit = _dvp(sites, params, link)
    hybrid = HybridSystem(system, path_sensitive=True)
    for index, site in enumerate(sites):
        system.sim.at(1.0 + 0.05 * index,
                      lambda item=f"acct_{index}", home=site:
                      hybrid.consolidate(item, home))
    return hybrid, audit


def _baseline(cls: type, homed: bool = True):
    """Accounts homed at their owner (2PC, Paxos Commit) or fully
    replicated (quorum)."""
    def build(sites: list[str], params: Params, link: LinkConfig):
        system = cls(list(sites), seed=params.seed, link=link,
                     config=BaselineConfig(txn_timeout=params.txn_timeout))
        for index, site in enumerate(sites):
            placement = (site,) if homed else ()
            system.add_item(f"acct_{index}", *placement, params.per_item)
        return system, lambda: None
    return build


#: Per protocol, (sites, params, link) -> the system with its accounts
#: registered (registration really differs), and its own end-of-run
#: audit (DvP keeps conservation books; a Paxos Commit takeover can
#: commit a transaction whose origin crashed and never answered, so no
#: history of answers audits it). Everything in between goes through
#: the ``System`` contract.
BUILD = {
    "dvp": _dvp,
    "hybrid-ps": _hybrid,
    "2pc": _baseline(TwoPCSystem),
    "paxos": _baseline(PaxosCommitSystem),
    "quorum": _baseline(QuorumSystem, homed=False),
}

PROTOCOLS = tuple(BUILD)


def _schedule_traffic(system, sites: list[str], params: Params,
                      collectors: dict[str, Collector]) -> None:
    """The identical single-item op stream for every protocol.

    Scripted here and not on ``WorkloadDriver``: these clients live on
    their site's host — an arrival while the host is down is skipped,
    not counted as lost — and report to one collector per site, neither
    of which is the driver's contract. The streams are per site and
    seeded by name, so the offered load is the same for every protocol.
    """
    for index, site in enumerate(sites):
        rng = random.Random(f"e15:{params.seed}:{site}")
        time = 0.0
        while True:
            time += rng.expovariate(params.arrival_rate)
            if time >= params.run_length:
                break
            if rng.random() < params.cross_fraction:
                peer = rng.randrange(len(sites) - 1)
                peer = peer if peer < index else peer + 1
                item = f"acct_{peer}"
            else:
                item = f"acct_{index}"
            amount = rng.randint(1, 3)
            if rng.random() < 0.6:
                spec = TransactionSpec(ops=(DecrementOp(item, amount),),
                                       label="dec")
            else:
                spec = TransactionSpec(ops=(IncrementOp(item, amount),),
                                       label="inc")
            collector = collectors[site]

            def arrive(s=site, sp=spec, c=collector) -> None:
                if not system.sites[s].alive:
                    # The client host itself is down — that demand is
                    # lost for every protocol alike, so counting it
                    # would only dilute the between-protocol contrast.
                    return
                c.on_submit(at=system.sim.now)
                try:
                    system.submit(s, sp, c.on_result)
                except (SiteDown, UnsupportedSpec):
                    pass

            system.sim.at(time, arrive)


def _run_one(protocol: str, params: Params, site_count: int) -> dict:
    sites = _sites(site_count)
    system, audit = BUILD[protocol](
        sites, params, LinkConfig(base_delay=params.link_delay))
    collectors = {site: Collector() for site in sites}
    _schedule_traffic(system, sites, params, collectors)
    fault_plan(sites, params.window).compile(system)

    blocked_at_window_end = []
    system.sim.at(params.window[1] - 0.5,
                  lambda: blocked_at_window_end.extend(system.blocked()))
    system.run_until(params.run_length + 10 * params.txn_timeout)
    audit()

    minority = set(sites[:2])
    windows = {site: collector.in_window(*params.window)
               for site, collector in collectors.items()}
    group_stats = {True: [0, 0], False: [0, 0]}  # in_minority -> [c, s]
    latencies: list[float] = []
    for site, window in windows.items():
        stats = group_stats[site in minority]
        stats[0] += len(window.committed)
        stats[1] += window.submitted
        latencies.extend(result.latency for result in window.committed)
    submitted = sum(stats[1] for stats in group_stats.values())
    committed = sum(stats[0] for stats in group_stats.values())
    group_rates = [c / s for c, s in group_stats.values() if s]
    latencies.sort()
    total_committed = sum(len(c.committed) for c in collectors.values())
    return {
        "availability": committed / submitted if submitted else 0.0,
        "worst_group": min(group_rates) if group_rates else 0.0,
        "p50": (percentile_sorted(latencies, 50) if latencies
                else float("nan")),
        "p99": (percentile_sorted(latencies, 99) if latencies
                else float("nan")),
        "blocked": len(blocked_at_window_end),
        "msgs_per_commit": (system.network.total_sent / total_committed
                            if total_committed else float("inf")),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent (protocol × site count) grid behind E15."""
    params = params or Params()
    return [("_run_one", {"protocol": protocol, "params": params,
                          "site_count": site_count})
            for site_count in params.site_counts
            for protocol in PROTOCOLS]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E15: availability and latency through a crash + partition window",
        ["sites", "protocol", "window avail%", "worst group%",
         "p50", "p99", "blocked@end", "msgs/commit"])
    for site_count in params.site_counts:
        for protocol in PROTOCOLS:
            stats = next(results)
            table.add_row(
                site_count, protocol,
                round(100 * stats["availability"], 1),
                round(100 * stats["worst_group"], 1),
                round(stats["p50"], 2), round(stats["p99"], 2),
                stats["blocked"],
                round(stats["msgs_per_commit"], 1))
    table.add_note(
        "window = one crashed site + a 2-site minority split; "
        "availability counts lost submissions against the protocol. "
        "Paxos commits through the window (long minority tail); 2PC "
        "aborts or blocks on the coordinator; quorum serves the "
        "majority group; DvP serves every group from local quotas.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """Through the crash + partition window DvP's availability, overall
    and in the worst-served group, is at least that of every
    coordinated protocol and strictly greater somewhere, at every site
    count — and DvP leaves no one blocked."""
    violated = []
    rows = {(row["sites"], row["protocol"]): row
            for row in table.records()}
    for sites in sorted({sites for sites, _protocol in rows}):
        dvp = rows[(sites, "dvp")]
        if dvp["blocked@end"] != 0:
            violated.append(f"n={sites}: dvp left {dvp['blocked@end']} "
                            "blocked at the window's end")
        strictly = False
        for rival in ("2pc", "paxos", "quorum"):
            for metric in ("window avail%", "worst group%"):
                theirs = rows[(sites, rival)][metric]
                if dvp[metric] < theirs:
                    violated.append(
                        f"n={sites}: dvp {metric} {dvp[metric]} below "
                        f"{rival}'s {theirs}")
                strictly = strictly or dvp[metric] > theirs
        if not strictly:
            violated.append(f"n={sites}: dvp never strictly dominates "
                            "— the fault window is inert")
    return violated


if __name__ == "__main__":
    print(run())
