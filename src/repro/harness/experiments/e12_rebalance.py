"""E12 — Proactive rebalancing vs demand-driven redistribution.

Claim context (Sections 3 and 9): the base protocol moves value only
on demand ("requests other sites ... in the case of being unable to
proceed"), and the paper leaves "the best ways to distribute the data"
open. The :mod:`repro.core.rebalance` daemon is the natural proactive
complement: ship surplus above the initial quota to peers before anyone
asks.

Design: a lopsided steady state — cancellations (increments) land at
one "returns depot" site while sales (decrements) happen everywhere —
so value continually pools where it is not needed. Swept: daemon off /
daemon at several periods × rebalance policy (``static-rr`` sprays
surplus round-robin, ``demand-weighted`` aims it at the sites whose
shortfall requests the depot has seen, ``pull`` has short sites fetch
the deficit themselves). Reported: sales commit rate, mean sale
latency, demand requests sent, daemon shipments+pulls, total messages
(the daemon's traffic is not free), and the conservation verdict.

Expected shape: without rebalancing, sales at non-depot sites starve
(every one needs an on-demand gather); with it, commit rate and latency
improve at the cost of background message traffic, with diminishing
returns as the period shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.domain import CounterDomain
from repro.core.rebalance import RebalanceConfig, install_rebalancing
from repro.core.system import DvPSystem, SystemConfig
from repro.harness.parallel import evaluate_cells
from repro.metrics.collector import Collector
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver
from repro.workloads.inventory import InventoryWorkload

EXPERIMENT = "E12"


@dataclass
class Params:
    sites: list[str] = field(
        default_factory=lambda: ["depot", "S1", "S2", "S3"])
    periods: list[float | None] = field(
        default_factory=lambda: [None, 40.0, 20.0, 10.0])
    policies: list[str] = field(
        default_factory=lambda: ["static-rr", "demand-weighted", "pull"])
    duration: float = 400.0
    sale_rate: float = 0.05        # per non-depot site
    return_rate: float = 0.25      # at the depot
    total: int = 40                # scarce: distribution matters
    txn_timeout: float = 12.0
    seed: int = 127

    @classmethod
    def quick(cls) -> "Params":
        return cls(periods=[None, 20.0], duration=200.0,
                   policies=["static-rr", "demand-weighted"])


def _run_one(params: Params, period: float | None,
             policy: str = "static-rr") -> dict:
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed,
        txn_timeout=params.txn_timeout,
        link=LinkConfig(base_delay=1.0, jitter=0.5)))
    system.add_item("stock", CounterDomain(), total=params.total)
    daemons = {}
    if period is not None:
        daemons = install_rebalancing(system, RebalanceConfig(
            period=period, high_watermark=1.5, policy=policy))
    # Returns pour into the depot while sales happen at the other
    # sites: two arrival processes, each on its own streams.
    depot, sellers = params.sites[0], params.sites[1:]
    returns = WorkloadConfig(
        arrival_rate=params.return_rate, duration=params.duration,
        mix=OpMix(reserve=0.0, cancel=1.0), amount_low=1, amount_high=2,
        seed_stream="returns")
    WorkloadDriver(system.sim, system, [depot],
                   InventoryWorkload(["stock"], returns), returns).install()
    selling = WorkloadConfig(
        arrival_rate=params.sale_rate, duration=params.duration,
        mix=OpMix(reserve=1.0, cancel=0.0), amount_low=1, amount_high=3,
        seed_stream="sales")
    sales = Collector()
    WorkloadDriver(system.sim, system, sellers,
                   InventoryWorkload(["stock"], selling), selling,
                   sales).install()
    system.run_until(params.duration + params.txn_timeout + 200.0)
    system.auditor.assert_ok()
    requests = sum(site.requests_honored + site.requests_ignored
                   for site in system.sites.values())
    latencies = [result.latency for result in sales.committed]
    return {
        "commit": sales.commit_rate(),
        "latency": (sum(latencies) / len(latencies)
                    if latencies else float("nan")),
        "requests": requests,
        "ships": sum(daemon.shipments + daemon.pulls
                     for daemon in daemons.values()),
        "messages": system.network.total_sent,
    }


def _grid(params: Params) -> list[tuple[float | None, str]]:
    """(period, policy) rows: one daemon-off row, then the sweep."""
    rows: list[tuple[float | None, str]] = []
    for period in params.periods:
        if period is None:
            rows.append((None, "static-rr"))
        else:
            rows.extend((period, policy) for policy in params.policies)
    return rows


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent (period × policy) grid behind E12."""
    params = params or Params()
    return [("_run_one", {"params": params, "period": period,
                          "policy": policy})
            for period, policy in _grid(params)]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E12: proactive rebalancing under a returns-depot imbalance",
        ["daemon period", "policy", "sale commit%", "sale mean latency",
         "demand requests", "ships", "total msgs"])
    for period, policy in _grid(params):
        stats = next(results)
        table.add_row("off" if period is None else period,
                      "-" if period is None else policy,
                      round(100 * stats["commit"], 1),
                      round(stats["latency"], 2),
                      stats["requests"], stats["ships"],
                      stats["messages"])
    table.add_note("value pools at the depot; the daemon ships surplus "
                   "before sales have to go asking for it. "
                   "demand-weighted aims the same shipments at the "
                   "sites that have been short; pull fetches on need.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """With the daemon off nothing is shipped; with it on, under at
    least two policies, every cell ships, the best one lifts the sale
    commit rate and the best one cuts the on-demand request traffic."""
    violated = []
    rows = table.records()
    off_rows = [row for row in rows if row["daemon period"] == "off"]
    daemons = [row for row in rows if row["daemon period"] != "off"]
    if len(off_rows) != 1 or not daemons:
        return [f"{len(off_rows)} daemon-off rows and {len(daemons)} "
                "daemon rows: nothing to compare"]
    off, = off_rows
    if off["policy"] != "-" or off["ships"] != 0:
        violated.append(f"the daemon-off row carries policy "
                        f"{off['policy']!r} and {off['ships']} ships")
    idle = [row for row in daemons if row["ships"] <= 0]
    if idle:
        violated.append(
            "a running daemon shipped nothing: "
            + ", ".join(f"{row['policy']}@{row['daemon period']:g}"
                        for row in idle))
    if not max(row["sale commit%"] for row in daemons) \
            > off["sale commit%"]:
        violated.append("no daemon cell lifts the sale commit rate "
                        f"above the daemon-off {off['sale commit%']}%")
    if not min(row["demand requests"] for row in daemons) \
            < off["demand requests"]:
        violated.append("no daemon cell sends fewer demand requests "
                        f"than the daemon-off {off['demand requests']}")
    if len({row["policy"] for row in daemons}) < 2:
        violated.append("fewer than two rebalance policies swept")
    return violated


if __name__ == "__main__":
    print(run())
