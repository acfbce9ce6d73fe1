"""E5 — Independent recovery.

Claim (Section 7): a recovering DvP site consults only its own stable
log — zero messages to other sites before normal processing resumes —
and this holds even if *every* site fails and only one comes back. A
2PC participant, in contrast, re-locks its in-doubt items on recovery
and cannot release them until the coordinator answers; if the
coordinator is unreachable the items stay locked indefinitely.

Scenarios:

* ``dvp-one``      — one site crashes mid-run with Vm in flight;
  recovers; measure what it sends from the recovery to its first
  decision (0), the locks it holds after recovery (0), redo work, and
  time from recovery to its first local commit.
* ``dvp-all``      — every site crashes; a single site recovers alone
  (others stay down) and must immediately commit local transactions.
* ``2pc-reachable``— a participant crashes after voting YES; recovers
  while its coordinator is reachable; counts the decision-request
  messages it needs before the in-doubt items free up.
* ``2pc-cut-off``  — same, but the coordinator is partitioned away;
  the items remain locked until the partition heals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.common import BaselineConfig
from repro.baselines.twopc import TwoPCSystem
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
    TransferOp,
)
from repro.harness.parallel import evaluate_cells
from repro.metrics.tables import Table
from repro.net.link import LinkConfig

EXPERIMENT = "E5"


@dataclass
class Params:
    sites: list[str] = field(default_factory=lambda: ["A", "B", "C", "D"])
    total: int = 400
    txn_timeout: float = 15.0
    checkpoint_interval: int = 8
    seed: int = 57
    warmup_txns: int = 30

    @classmethod
    def quick(cls) -> "Params":
        return cls(warmup_txns=12)


def _warm_dvp(params: Params) -> DvPSystem:
    """A DvP system with churn so logs and channels are non-trivial."""
    system = DvPSystem(SystemConfig(
        sites=list(params.sites), seed=params.seed,
        txn_timeout=params.txn_timeout,
        checkpoint_interval=params.checkpoint_interval,
        link=LinkConfig(base_delay=1.0, jitter=0.5,
                        loss_probability=0.1)))
    system.add_item("stock", CounterDomain(), total=params.total)
    rng = system.sim.rng.stream("e05")
    for index in range(params.warmup_txns):
        site = params.sites[index % len(params.sites)]
        amount = rng.randint(1, 150)  # large demands force Vm traffic
        spec = TransactionSpec(ops=(DecrementOp("stock", amount),)
                               if index % 3 else
                               (IncrementOp("stock", amount),),
                               label="warm")
        system.sim.at(index * 3.0 + 0.5,
                      lambda s=site, sp=spec: system.submit(s, sp))
    system.run_for(params.warmup_txns * 3.0 + 5.0)
    return system


def _recover_and_resume(system: DvPSystem, name: str, amount: int,
                        label: str, window: float) -> dict:
    """Recover *name* and submit one local increment there at once.

    Measured: the locks the new incarnation holds right after recovery,
    and what *name* sends from the ``recover`` call to that increment's
    decision (to the end of *window* if it never decides) — read off
    the trace, so a recovery that asked anyone anything would show."""
    obs = system.sim.obs
    obs.enable(ring_limit=None)
    recovery_instant = system.sim.now
    report = system.recover(name)
    locked = len(system.sites[name].locks.holders)
    commit_times: list[float] = []

    def decided(result) -> None:
        obs.enabled = False
        commit_times.append(result.finished_at)

    system.submit(name, TransactionSpec(
        ops=(IncrementOp("stock", amount),), label=label), decided)
    system.run_for(window)
    obs.enabled = False
    return {
        "messages_before_resume": sum(
            1 for event in obs.events()
            if event.kind == "net.send" and event.src == name),
        "redo": report.redo_applied,
        "vm_rebuilt": report.vm_rebuilt,
        "scanned": report.scanned_records,
        "from_checkpoint": report.from_checkpoint,
        "resume_latency": (commit_times[0] - recovery_instant
                           if commit_times else float("nan")),
        "locked_after_recovery": locked,
    }


def _dvp_one(params: Params) -> dict:
    system = _warm_dvp(params)
    victim = params.sites[1]
    sent_before = system.network.total_sent
    system.crash(victim)
    system.run_for(3.0)
    # Retransmissions of old Vm resume later, but the first local
    # commit needs no network at all.
    stats = _recover_and_resume(system, victim, 5, "post-recovery", 60.0)
    system.run_for(300.0)  # settle retransmissions
    system.auditor.assert_ok()
    stats["note"] = f"net sent before crash {sent_before}"
    return stats


def _dvp_all(params: Params) -> dict:
    system = _warm_dvp(params)
    for site in params.sites:
        system.crash(site)
    system.run_for(5.0)
    stats = _recover_and_resume(system, params.sites[0], 1,
                                "lone-survivor", 30.0)
    # Bring the rest back so conservation can be audited quiescently.
    for site in params.sites[1:]:
        system.recover(site)
    system.run_for(400.0)
    system.auditor.assert_ok()
    stats["note"] = "all sites down; one recovers alone"
    return stats


def _twopc(params: Params, coordinator_reachable: bool) -> dict:
    system = TwoPCSystem(
        list(params.sites), seed=params.seed,
        link=LinkConfig(base_delay=1.0),
        config=BaselineConfig(txn_timeout=params.txn_timeout,
                              retry_period=2.0))
    for site in params.sites:
        system.add_item(f"acct_{site}", site, 100)
    coordinator, participant = params.sites[0], params.sites[1]
    # A transfer that prepares at the participant...
    system.submit(coordinator, TransactionSpec(
        ops=(TransferOp(f"acct_{coordinator}", f"acct_{participant}", 7),),
        label="in-doubt"))
    system.run_for(1.5)          # prepare delivered, vote in flight
    system.crash(participant)    # crashes while prepared
    system.run_for(40.0)         # coordinator decides meanwhile
    if not coordinator_reachable:
        system.network.partition([[coordinator],
                                  params.sites[1:]])
    messages_before = system.recovery_messages
    report = system.recover(participant)
    system.run_for(30.0)
    messages_needed = system.recovery_messages - messages_before
    locked = len(system.sites[participant].locks)
    if not coordinator_reachable:
        system.network.heal()
        system.run_for(30.0)
    locked_after_heal = len(system.sites[participant].locks)
    return {
        "messages_before_resume": max(messages_needed,
                                      report["messages_needed"]),
        "redo": 0,
        "vm_rebuilt": 0,
        "scanned": report["scanned"],
        "from_checkpoint": False,
        "resume_latency": float("nan"),
        "locked_after_recovery": locked,
        "note": (f"in-doubt items freed only after coordinator contact; "
                 f"locked after heal: {locked_after_heal}"),
    }


def cells(params: Params | None = None) -> list[tuple[str, dict]]:
    """The four independent recovery scenarios behind E5."""
    params = params or Params()
    return [
        ("_dvp_one", {"params": params}),
        ("_dvp_all", {"params": params}),
        ("_twopc", {"params": params, "coordinator_reachable": True}),
        ("_twopc", {"params": params, "coordinator_reachable": False}),
    ]


def run(params: Params | None = None, evaluate=None) -> Table:
    params = params or Params()
    results = evaluate_cells(EXPERIMENT, cells(params), evaluate)
    table = Table(
        "E5: recovery independence",
        ["scenario", "msgs before resume", "redo applied", "Vm rebuilt",
         "records scanned", "used ckpt", "resume latency",
         "items still locked"])
    scenarios = list(zip(
        ("dvp-one", "dvp-all", "2pc-reachable", "2pc-cut-off"), results))
    for name, stats in scenarios:
        table.add_row(
            name, stats["messages_before_resume"], stats["redo"],
            stats["vm_rebuilt"], stats["scanned"],
            "yes" if stats["from_checkpoint"] else "no",
            round(stats["resume_latency"], 2)
            if stats["resume_latency"] == stats["resume_latency"] else "-",
            stats["locked_after_recovery"])
    table.add_note("DvP resumes with zero messages even as the lone "
                   "survivor; 2PC must reach the coordinator to free "
                   "in-doubt items.")
    return table


def claims(table: Table, params: Params) -> list[str]:
    """A DvP site resumes after exchanging no message and holding no
    lock, even as the lone survivor; a 2PC participant must reach its
    coordinator, and cut off from it keeps its in-doubt items locked."""
    violated = []
    rows = {row["scenario"]: row for row in table.records()}
    for scenario in ("dvp-one", "dvp-all"):
        messages = rows[scenario]["msgs before resume"]
        if messages != 0:
            violated.append(f"{scenario} exchanged {messages} messages "
                            "before resuming")
        if rows[scenario]["items still locked"] != 0:
            violated.append(f"{scenario} recovered holding a lock")
    for scenario in ("2pc-reachable", "2pc-cut-off"):
        if rows[scenario]["msgs before resume"] < 1:
            violated.append(f"{scenario} resumed without a message")
    if rows["2pc-cut-off"]["items still locked"] < 1:
        violated.append("2pc-cut-off left no item locked")
    return violated


if __name__ == "__main__":
    print(run())
