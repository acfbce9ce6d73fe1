"""E16 — Bounded-staleness Π(b) views vs exact fan-out reads.

Claim (ROADMAP read-scaling item; docs/READS.md): the paper concedes
"there is a high overhead in reading the entire value" — E7 measured
the O(n) drain and its collateral aborts. The Π(b) view tier converts
that cost into a bounded-staleness contract: a ``ReadViewOp(bound=b)``
commits in O(1) messages whenever the site's view cache holds a
staleness certificate within *b*, and falls back to the classic fan-out
only when it cannot. Three things should fall out of the sweep:

* at read-heavy mixes (100:1 and beyond) view-served reads cost **zero
  redistribution messages** per read where the fan-out baseline pays
  O(n) — and the certificates' measured staleness never exceeds the
  configured bound;
* on multi-region WAN topologies the gap becomes latency, not just
  messages: a stale-but-local read answers in microseconds of virtual
  time while the exact drain pays two WAN crossings — p99 collapses by
  well over 5x;
* the write path is untouched: commit rates match the fan-out runs at
  every ratio (views are observation, never coordination).

Traffic is **app-level** (the PR 10 serving satellite): a
:class:`~repro.apps.bank.Bank` façade submits *via* the serving
front-end — ``estimate_balance(bound=b)`` in view cells (view-aware
router), ``audit_balance`` in fan-out cells (locality router).

Reported per (sites, wan, ratio, mode): offered load, commit%, shed%,
committed reads, view-served share, redistribution messages per read,
read p50/p99, and the worst certificate staleness against the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.bank import Bank
from repro.core.system import DvPSystem, SystemConfig
from repro.harness.parallel import evaluate_cells
from repro.metrics.collector import Collector
from repro.metrics.stats import percentile_sorted
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.reads import ViewConfig
from repro.serving import ServingConfig, ServingFrontend
from repro.workloads.apps import AppWorkloadDriver, BankAppTraffic
from repro.workloads.base import OpMix, WorkloadConfig

EXPERIMENT = "E16"

MODES = ("view", "fanout")


@dataclass
class Params:
    site_counts: list[int] = field(default_factory=lambda: [8, 32, 64])
    #: Read:write ratios (reads per write, the sweep axis).
    ratios: list[int] = field(default_factory=lambda: [1, 10, 100, 1000])
    #: WAN off and on; on partitions the sites into *regions* regions
    #: with *wan_delay* between regions and *lan_delay* inside one.
    wan_settings: list[bool] = field(default_factory=lambda: [False, True])
    regions: int = 4
    lan_delay: float = 1.0
    wan_delay: float = 20.0
    link_jitter: float = 0.3
    #: The per-reader staleness bound b. Must cover one refresh period
    #: plus a WAN crossing, or WAN caches can never certify and every
    #: view read lawfully falls back (staler -> fallback, never wrong).
    bound: float = 30.0
    refresh_period: float = 4.0
    accounts: int = 8
    arrival_rate: float = 0.06
    duration: float = 80.0
    settle: float = 60.0
    #: Above 2 * wan_delay so exact WAN drains decide by commit, not
    #: timeout — the latency comparison needs both paths to finish.
    txn_timeout: float = 50.0
    zipf_skew: float = 0.4
    max_inflight: int = 4
    max_depth: int = 16
    board_period: float = 4.0
    replicas: int = 2
    balance: int = 10_000       # plentiful: read cost, not stock-outs
    seed: int = 16

    @classmethod
    def quick(cls) -> "Params":
        return cls(site_counts=[32], ratios=[1, 100, 1000],
                   duration=60.0, settle=50.0)


def _wire_regions(system: DvPSystem, params: Params) -> dict[str, int]:
    """Round-robin sites into regions; cross-region links pay WAN."""
    sites = list(system.sites)
    region = {site: index % params.regions
              for index, site in enumerate(sites)}
    wan = LinkConfig(base_delay=params.wan_delay,
                     jitter=params.link_jitter)
    for src in sites:
        for dst in sites:
            if src != dst and region[src] != region[dst]:
                system.network.configure_link(src, dst, wan)
    return region


def _run_one(params: Params, sites_n: int, wan: bool, ratio: int,
             mode: str) -> tuple:
    sites = [f"S{index}" for index in range(sites_n)]
    system = DvPSystem(SystemConfig(
        sites=sites, seed=params.seed, txn_timeout=params.txn_timeout,
        link=LinkConfig(base_delay=params.lan_delay,
                        jitter=params.link_jitter),
        partitioner="hash", replicas=params.replicas,
        # TTL = the bound, not the 2x-refresh default: a WAN refresh
        # is already ~wan_delay old on arrival, which the reader's
        # bound tolerates but the LAN-calibrated default TTL would not.
        views=(ViewConfig(refresh_period=params.refresh_period,
                          ttl=params.bound)
               if mode == "view" else None)))
    if wan:
        _wire_regions(system, params)

    collector = Collector()
    frontend = ServingFrontend(system, ServingConfig(
        router="view-aware" if mode == "view" else "locality",
        max_inflight=params.max_inflight, max_depth=params.max_depth,
        board_period=params.board_period), collector)
    bank = Bank(system, via=frontend)
    accounts = [f"acct{index}" for index in range(params.accounts)]
    for account in accounts:
        bank.open_account(account, _even_split(sites, params.balance))

    # reads:writes = ratio:1 in expectation; the read family is the
    # only thing that changes between modes, so every other draw (and
    # hence the write traffic) is identical across the comparison.
    mix = (OpMix(reserve=0.5, cancel=0.5, read_view=float(ratio))
           if mode == "view"
           else OpMix(reserve=0.5, cancel=0.5, read=float(ratio)))
    workload = WorkloadConfig(
        arrival_rate=params.arrival_rate, duration=params.duration,
        zipf_skew=params.zipf_skew, mix=mix)
    source = BankAppTraffic(bank, accounts, workload,
                            view_bound=params.bound)
    driver = AppWorkloadDriver(system.sim, sites, source, workload,
                               collector)
    frontend.start()
    driver.install()
    system.sim.run_until(params.duration)
    frontend.quiesce()
    system.sim.run_until(params.duration + params.txn_timeout
                         + params.settle)
    system.auditor.assert_ok()

    results = collector.results
    reads = [txn for txn in results
             if txn.label.startswith(("estimate:", "audit:"))]
    committed_reads = [txn for txn in reads if txn.committed]
    served = [txn for txn in committed_reads if txn.view_reads]
    latencies = sorted(txn.latency for txn in committed_reads)
    messages = [txn.requests_sent for txn in committed_reads]
    stale_max = max((cert.staleness for txn in served
                     for cert in txn.view_reads.values()), default=0.0)
    offered = collector.submitted
    decided = len(results)
    committed = sum(1 for txn in results if txn.committed)
    return (
        offered,
        100.0 * committed / decided if decided else 0.0,
        100.0 * collector.shed / offered if offered else 0.0,
        len(committed_reads),
        (100.0 * len(served) / len(committed_reads)
         if committed_reads else 0.0),
        (sum(messages) / len(messages)) if messages else 0.0,
        percentile_sorted(latencies, 50) if latencies else 0.0,
        percentile_sorted(latencies, 99) if latencies else 0.0,
        stale_max,
    )


def _even_split(sites: list[str], total: int) -> dict[str, int]:
    base, extra = divmod(total, len(sites))
    return {site: base + (1 if index < extra else 0)
            for index, site in enumerate(sites)}


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The (sites x wan x ratio x mode) grid behind E16."""
    params = params or Params()
    return [("_run_one", {"params": params, "sites_n": sites_n,
                          "wan": wan, "ratio": ratio, "mode": mode})
            for sites_n in params.site_counts
            for wan in params.wan_settings
            for ratio in params.ratios
            for mode in MODES]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E16: Π(b) views vs exact fan-out — messages and latency per read",
        ["sites", "wan", "r:w", "mode", "offered", "commit%", "shed%",
         "reads", "served%", "msg/read", "p50", "p99", "stale_max"])
    for sites_n in params.site_counts:
        for wan in params.wan_settings:
            for ratio in params.ratios:
                for mode in MODES:
                    (offered, commit, shed, reads, served, msgs,
                     p50, p99, stale) = next(results)
                    table.add_row(
                        sites_n, "wan" if wan else "lan",
                        f"{ratio}:1", mode, offered,
                        round(commit, 1), round(shed, 1), reads,
                        round(served, 1), round(msgs, 2),
                        round(p50, 2), round(p99, 2), round(stale, 2))
    return table


def claims(table: Table, params: Params) -> list[str]:
    """A certificate-served read sends no message — a view cell's
    messages per read are all accounted for by its fallbacks at fan-out
    cost — and never overshoots the reader's bound; the view tier
    serves most committed reads where the exact read pays a message per
    peer; on the WAN at the largest scale the view cell commits more
    reads and, wherever the fan-out commits any, holds a p99 at least
    5x below it."""
    violated = []
    cells: dict[tuple, dict[str, dict]] = {}
    for row in table.records():
        cells.setdefault((row["sites"], row["wan"], row["r:w"]),
                         {})[row["mode"]] = row
    largest = max(sites for sites, _wan, _ratio in cells)
    for (sites, wan, ratio), modes in cells.items():
        where = f"n={sites} {wan} {ratio}"
        view, fanout = modes["view"], modes["fanout"]
        peers = sites - 1
        # The table rounds served% to 0.1 and msg/read to 0.01.
        fallback_cost = ((1 - view["served%"] / 100) * peers
                         + 0.0005 * peers + 0.005)
        if view["reads"] == 0:
            violated.append(f"{where}: no committed view reads")
        if view["msg/read"] > fallback_cost:
            violated.append(
                f"{where}: {view['msg/read']} msg/read with "
                f"{view['served%']}% served — certificate-served reads "
                "are sending messages")
        if view["served%"] < 50.0:
            violated.append(f"{where}: views served only "
                            f"{view['served%']}% of committed reads")
        if view["stale_max"] > params.bound + 1e-9:
            violated.append(
                f"{where}: a certificate {view['stale_max']} stale was "
                f"accepted against the bound {params.bound:g}")
        if fanout["reads"] and fanout["msg/read"] < peers:
            violated.append(
                f"{where}: the exact read paid {fanout['msg/read']} "
                f"msg/read, fewer than one per peer ({peers})")
        if wan == "wan" and sites == largest:
            if not view["reads"] > fanout["reads"]:
                violated.append(
                    f"{where}: views commit {view['reads']} reads, "
                    f"the fan-out {fanout['reads']}")
            if fanout["reads"] and not view["p99"] * 5 <= fanout["p99"]:
                violated.append(
                    f"{where}: view p99 {view['p99']} not 5x below "
                    f"the fan-out's {fanout['p99']}")
    return violated
