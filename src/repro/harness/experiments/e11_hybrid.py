"""E11 — Dynamically interchanging DvP and a traditional scheme.

Claim (Section 8): "it may be preferable to design systems that can
respond to different situations by dynamically interchanging between a
DvP scheme and some traditional scheme" — DvP when updates dominate (it
"should work well until a read ... is required"), traditional when
"several of the data-values need to be accessed" (read-heavy phases).

Design: a two-phase workload on one item — an update-heavy phase
followed by a read-heavy phase — run under three regimes:

* ``dvp``     — pure DvP throughout;
* ``central`` — the item consolidated at one site from the start
  (every remote transaction is a forwarded round trip);
* ``hybrid``  — DvP during the update phase, consolidated at the phase
  boundary, centralized during the read phase.

Reported per regime and phase: commit rate, mean latency, messages per
committed transaction. Expected shape: dvp wins phase 1, central wins
phase 2, hybrid matches the winner in each phase (paying one
consolidation read in between).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.domain import CounterDomain
from repro.core.site import SiteDown
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    UnsupportedSpec,
)
from repro.harness.parallel import evaluate_cells
from repro.hybrid import HybridSystem
from repro.metrics.collector import Collector
from repro.metrics.tables import Table
from repro.net.link import LinkConfig

EXPERIMENT = "E11"

REGIMES = ("dvp", "central", "hybrid")


@dataclass
class Params:
    sites: list[str] = field(
        default_factory=lambda: ["S0", "S1", "S2", "S3"])
    phase_length: float = 200.0
    arrival_rate: float = 0.05     # per site, both phases
    read_fraction_phase2: float = 0.7
    txn_timeout: float = 15.0
    total: int = 100_000
    seed: int = 113

    @classmethod
    def quick(cls) -> "Params":
        return cls(phase_length=100.0)


def _schedule_phase(system, hybrid: HybridSystem, params: Params,
                    start: float, read_fraction: float,
                    collector: Collector) -> None:
    """One phase's arrivals, scripted here and not on ``WorkloadDriver``.

    The table compares regimes that each hinge on one ``consolidate``
    read, which nothing retries: on the driver's arrival instants a
    peer commits an update inside that read's gather window in both
    ``central`` and ``hybrid``, the read aborts ``timeout`` and the
    regime never forms (ROADMAP, item 6). Until
    ``consolidate`` retries, the instants it was designed on stay.
    """
    rng = random.Random(params.seed + int(start))
    for site in params.sites:
        time = start
        while True:
            time += rng.expovariate(params.arrival_rate)
            if time >= start + params.phase_length:
                break
            if rng.random() < read_fraction:
                spec = TransactionSpec(ops=(ReadFullOp("item"),),
                                       label="read")
            elif rng.random() < 0.6:
                spec = TransactionSpec(
                    ops=(DecrementOp("item", rng.randint(1, 3)),),
                    label="update")
            else:
                spec = TransactionSpec(
                    ops=(IncrementOp("item", rng.randint(1, 3)),),
                    label="update")

            def arrive(s=site, sp=spec) -> None:
                collector.on_submit(at=system.sim.now)
                try:
                    hybrid.submit(s, sp, collector.on_result)
                except (SiteDown, UnsupportedSpec):
                    # Typed refusals only — the submission is lost (a
                    # down site, a spec the router cannot place), which
                    # the collector's submitted-vs-results accounting
                    # absorbs. Anything else is a programming error in
                    # the routing path and must propagate.
                    pass

            system.sim.at(time, arrive)


def _run_one(params: Params, regime: str) -> dict:
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed,
        txn_timeout=params.txn_timeout,
        link=LinkConfig(base_delay=1.5, jitter=0.5)))
    system.add_item("item", CounterDomain(), total=params.total)
    hybrid = HybridSystem(system)
    collector = Collector()
    boundary = params.phase_length
    _schedule_phase(system, hybrid, params, 0.0, 0.02, collector)
    _schedule_phase(system, hybrid, params, boundary,
                    params.read_fraction_phase2, collector)
    home = params.sites[0]
    if regime == "central":
        system.sim.at(0.05, lambda: hybrid.consolidate("item", home))
    elif regime == "hybrid":
        system.sim.at(boundary - 1.0,
                      lambda: hybrid.consolidate("item", home))
    sent_marks = {}

    def mark(label):
        sent_marks[label] = system.network.total_sent

    system.sim.at(boundary, lambda: mark("phase1"))
    system.run_until(2 * boundary + params.txn_timeout + 60.0)
    mark("phase2")
    system.auditor.assert_ok()

    def phase_stats(window, messages):
        sub = collector.in_window(*window)
        latencies = [result.latency for result in sub.committed]
        return {
            "commit": sub.commit_rate(),
            "latency": (sum(latencies) / len(latencies)
                        if latencies else float("nan")),
            "msgs": (messages / len(sub.committed)
                     if sub.committed else float("inf")),
        }

    return {
        "phase1": phase_stats((0.0, boundary), sent_marks["phase1"]),
        "phase2": phase_stats((boundary, 2 * boundary),
                              sent_marks["phase2"] - sent_marks["phase1"]),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The independent regime grid behind E11."""
    params = params or Params()
    return [("_run_one", {"params": params, "regime": regime})
            for regime in REGIMES]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = iter(evaluate_cells(EXPERIMENT, cells(params), evaluate))
    table = Table(
        "E11: hybrid mode across an update-heavy then read-heavy phase",
        ["regime", "phase", "commit%", "mean latency", "msgs/commit"])
    for regime in REGIMES:
        stats = next(results)
        for phase in ("phase1", "phase2"):
            label = "updates" if phase == "phase1" else "reads"
            entry = stats[phase]
            table.add_row(regime, label,
                          round(100 * entry["commit"], 1),
                          round(entry["latency"], 2),
                          round(entry["msgs"], 2))
    table.add_note("phase1 is 98% updates; phase2 is "
                   f"{int(100 * params.read_fraction_phase2)}% full "
                   "reads; hybrid consolidates at the boundary.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """DvP wins the update phase on latency, the centralized regime
    wins the read phase on commit rate, and the hybrid matches the
    winner's side of each comparison."""
    rows = {(row["regime"], row["phase"]): row
            for row in table.records()}
    latency = {regime: rows[(regime, "updates")]["mean latency"]
               for regime in REGIMES}
    commit = {regime: rows[(regime, "reads")]["commit%"]
              for regime in REGIMES}
    violated = []
    if not latency["dvp"] < latency["central"]:
        violated.append(f"update latency: dvp {latency['dvp']} is not "
                        f"below central {latency['central']}")
    if not commit["central"] > commit["dvp"]:
        violated.append(f"read commit%: central {commit['central']} is "
                        f"not above dvp {commit['dvp']}")
    if latency["hybrid"] > latency["central"]:
        violated.append(f"update latency: hybrid {latency['hybrid']} is "
                        f"above central {latency['central']}")
    if commit["hybrid"] < commit["dvp"]:
        violated.append(f"read commit%: hybrid {commit['hybrid']} is "
                        f"below dvp {commit['dvp']}")
    return violated


if __name__ == "__main__":
    print(run())
