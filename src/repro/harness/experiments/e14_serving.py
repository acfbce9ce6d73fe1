"""E14 — Saturation knee of the serving front-end per policy.

Claim (ROADMAP serving item; docs/SERVING.md): DvP's local commits
only matter under load, so we drive the system open-loop — arrivals
keep coming whether or not the system keeps up — and sweep the offered
load across routing/admission policies. Three things should fall out:

* every policy has a *saturation knee*: a rate beyond which p99
  client-perceived latency (enqueue to decision) turns sharply up;
* locality routing (commit where the fragments live) holds a lower
  p99 than random spraying at every load, and keeps the knee further
  out — the paper's local-commit sweet spot, measured;
* admission control converts saturation into bounded latency plus
  sheds, where the unbounded queue's latency grows without limit
  (queue collapse).

Policies: ``random``, ``least-queue`` (JSQ + origin slack) and
``locality`` run with a depth bound; ``lq-unbounded`` is least-queue
with admission disabled — the collapse control.

Reported per (sites, policy, rate): commit%, abort%, shed%, p50/p99
client latency, and the per-policy knee rate in the table footer
columns (knee = lowest swept rate where p99 exceeds 2.5x the
lowest-rate p99 or more than 5% of offered load is shed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.apps.airline import ReservationSystem
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.harness.parallel import evaluate_cells
from repro.metrics.collector import Collector
from repro.metrics.stats import percentile_sorted
from repro.metrics.tables import Table
from repro.net.link import LinkConfig
from repro.serving import ServingConfig, ServingFrontend
from repro.workloads.apps import AirlineAppTraffic, AppWorkloadDriver
from repro.workloads.base import OpMix, WorkloadConfig

EXPERIMENT = "E14"

#: (label, router, admission on)
POLICIES = (
    ("random", "random", True),
    ("least-queue", "least-queue", True),
    ("locality", "locality", True),
    ("lq-unbounded", "least-queue", False),
)


@dataclass
class Params:
    site_counts: list[int] = field(default_factory=lambda: [16, 64])
    rates: list[float] = field(
        default_factory=lambda: [0.5, 1.0, 2.0, 3.0, 4.0])
    items: int = 64
    duration: float = 100.0
    settle: float = 70.0
    txn_timeout: float = 12.0
    link_delay: float = 1.0
    #: Lock-hold per txn. Under strict 2PL the item lock is held for
    #: the whole work period, so this must stay *below* the remote
    #: round trip for locality's concentration to beat random's
    #: redistribution — the trade-off the experiment measures.
    work: float = 0.5
    zipf_skew: float = 0.6
    max_inflight: int = 4
    max_depth: int = 16
    board_period: float = 2.0
    shards: int = 4
    replicas: int = 2
    stock: int = 100_000         # plentiful: saturation, not stock-outs
    seed: int = 11

    @classmethod
    def quick(cls) -> "Params":
        return cls(site_counts=[16], rates=[0.5, 2.0, 4.0],
                   duration=60.0, settle=50.0)


def knee_rate(rates: list[float], p99s: list[float],
              shed_rates: list[float],
              latency_factor: float = 2.5,
              shed_threshold: float = 0.05) -> float | None:
    """Lowest rate where the latency tail or the shed rate gives out.

    The latency trigger is relative to the lowest-rate p99 (each
    policy's own unloaded tail — random routing pays remote gathers
    even unloaded, so an absolute bound would misread it); the shed
    trigger catches policies whose admission control sheds before the
    tail moves.
    """
    if not rates:
        return None
    base = p99s[0]
    for rate, p99, shed in zip(rates, p99s, shed_rates):
        saturated_tail = (math.isfinite(base) and math.isfinite(p99)
                          and p99 > latency_factor * base)
        if saturated_tail or shed > shed_threshold:
            return rate
    return None


def _run_one(params: Params, sites_n: int, policy: str,
             rate: float) -> tuple:
    label_to_policy = {label: (router, admit)
                       for label, router, admit in POLICIES}
    router, admit = label_to_policy[policy]
    sites = [f"S{index}" for index in range(sites_n)]
    # Conc2 (strict 2PL): lock conflicts *queue* instead of the
    # timestamp scheme's instant aborts, so contention surfaces as
    # latency — the quantity a saturation experiment must measure.
    system = DvPSystem(SystemConfig(
        sites=sites, seed=params.seed, txn_timeout=params.txn_timeout,
        cc="conc2", sync_delay=params.link_delay,
        link=LinkConfig(base_delay=params.link_delay),
        shards=params.shards, shard_workers=1,
        partitioner="hash", replicas=params.replicas))
    items = [f"flight{index}" for index in range(params.items)]

    workload = WorkloadConfig(
        arrival_rate=rate, duration=params.duration,
        zipf_skew=params.zipf_skew, work=params.work,
        mix=OpMix(reserve=0.7, cancel=0.3))
    collector = Collector()
    frontend = ServingFrontend(system, ServingConfig(
        router=router, max_inflight=params.max_inflight,
        max_depth=params.max_depth if admit else None,
        board_period=params.board_period), collector)
    # App-level traffic: the reservation façade submits *via* the
    # front-end, so routed/queued/shed requests are real app calls.
    reservations = ReservationSystem(system, via=frontend)
    for item in items:
        reservations.add_flight(item, params.stock)
    source = AirlineAppTraffic(reservations, items, workload)
    driver = AppWorkloadDriver(system.sim, sites, source, workload,
                               collector)
    frontend.start()
    driver.install()
    system.sim.run_until(params.duration)
    frontend.stop()
    system.sim.run_until(params.duration + params.settle)
    system.auditor.assert_ok()

    # "p99 commit latency": the client-perceived tail over requests
    # that committed (enqueue to decision; queue wait included).
    latencies = sorted(sample.latency for sample in frontend.samples
                       if sample.committed)
    offered = collector.submitted
    decided = len(collector.results)
    committed = len(latencies)
    return (
        offered,
        100.0 * committed / decided if decided else 0.0,
        100.0 * (decided - committed) / decided if decided else 0.0,
        100.0 * collector.shed / offered if offered else 0.0,
        percentile_sorted(latencies, 50),
        percentile_sorted(latencies, 99),
    )


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The (sites x policy x rate) grid behind E14."""
    params = params or Params()
    return [("_run_one", {"params": params, "sites_n": sites_n,
                          "policy": label, "rate": rate})
            for sites_n in params.site_counts
            for label, _router, _admit in POLICIES
            for rate in params.rates]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E14: serving knee — p50/p99 client latency vs offered load",
        ["sites", "policy", "rate/site", "offered", "commit%", "abort%",
         "shed%", "p50", "p99", "knee"])
    for sites_n in params.site_counts:
        for label, _router, _admit in POLICIES:
            rows = []
            for rate in params.rates:
                offered, commit, abort, shed, p50, p99 = next(results)
                rows.append((rate, offered, commit, abort, shed, p50, p99))
            knee = knee_rate([row[0] for row in rows],
                             [row[6] for row in rows],
                             [row[4] / 100.0 for row in rows])
            for rate, offered, commit, abort, shed, p50, p99 in rows:
                table.add_row(sites_n, label, rate, offered,
                              round(commit, 1), round(abort, 1),
                              round(shed, 1), round(p50, 2),
                              round(p99, 2),
                              knee if knee is not None else "-")
    return table


#: The grid where informed routing must already win from 80% of
#: random's knee load: small enough that locality's hot owners never
#: saturate on absolute load, so the comparison isolates the routing
#: policy. Larger grids owe the win only strictly past the knee.
HEADLINE_SITES = 16
KNEE_FRACTION = 0.8


def claims(table: Table, params: Params) -> list[str]:
    """The sweep crosses saturation (random and lq-unbounded both reach
    a knee); from the knee on, the better informed router holds a
    lower p99 than random; past the unbounded queue's knee, the bounded
    queue holds a lower p99 by shedding, where the unbounded one never
    sheds."""
    violated = []
    series: dict[tuple[int, str], dict[float, dict]] = {}
    knees: dict[tuple[int, str], float | str] = {}
    for row in table.records():
        key = (row["sites"], row["policy"])
        series.setdefault(key, {})[row["rate/site"]] = row
        knees[key] = row["knee"]
    for sites_n in sorted({sites_n for sites_n, _policy in series}):
        for policy in ("random", "lq-unbounded"):
            if knees[(sites_n, policy)] == "-":
                violated.append(f"n={sites_n} {policy}: no saturation "
                                f"knee inside rates {params.rates}")
        knee = knees[(sites_n, "random")]
        if knee != "-":
            threshold = (KNEE_FRACTION * knee if sites_n == HEADLINE_SITES
                         else knee + 1e-9)
            for rate, row in series[(sites_n, "random")].items():
                informed = min(
                    series[(sites_n, "least-queue")][rate]["p99"],
                    series[(sites_n, "locality")][rate]["p99"])
                if rate >= threshold and not informed < row["p99"]:
                    violated.append(
                        f"n={sites_n} rate={rate:g}: best informed p99 "
                        f"{informed} not below random's {row['p99']}")
        knee = knees[(sites_n, "lq-unbounded")]
        if knee != "-":
            for rate, row in series[(sites_n, "lq-unbounded")].items():
                if rate <= knee:
                    continue
                bounded = series[(sites_n, "least-queue")][rate]
                if not bounded["p99"] < row["p99"]:
                    violated.append(
                        f"n={sites_n} rate={rate:g}: bounded p99 "
                        f"{bounded['p99']} not below unbounded "
                        f"{row['p99']}")
                if not bounded["shed%"] > 0:
                    violated.append(
                        f"n={sites_n} rate={rate:g}: the bounded queue "
                        "shed nothing past the knee")
                if row["shed%"] != 0:
                    violated.append(
                        f"n={sites_n} rate={rate:g}: the unbounded "
                        f"queue shed {row['shed%']}%")
    return violated
