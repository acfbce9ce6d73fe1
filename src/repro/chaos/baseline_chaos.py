"""Budgeted chaos exploration of the Paxos Commit baseline.

The DvP explorer (:mod:`repro.chaos.explore`) samples fault plans and
judges runs with DvP-specific oracles (fragment conservation books,
Vm exactly-once). The coordinated baselines need the same adversarial
treatment with their own invariants, so this module drives
:class:`~repro.baselines.paxoscommit.PaxosCommitSystem` through sampled
crash/recover and partition/heal schedules — the fault families the
baseline systems implement — under a conservation-preserving transfer
workload, and judges each run with three oracles:

* **conservation** — after settling, the summed store values equal the
  initial allocation (an atomic-commit protocol must never half-apply
  a transfer);
* **agreement** — the union of all stable logs never shows two leaders
  deciding differently for one transaction, nor one participant
  committing while another aborts it;
* **liveness** — once every site is recovered and the network healed,
  no participant is still blocked on an undecided transaction (the
  anti-2PC property: any majority of acceptors unblocks).

Everything derives from ``(master seed, index)`` with the simulator's
stream derivation, so a failing index reproduces from the printed seed
alone, and the closing digest is byte-stable for a given
``(budget, seed, config)`` — same contract as the DvP explorer.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.baselines.common import BaselineConfig
from repro.baselines.paxoscommit import PaxosCommitSystem
from repro.chaos.plan import (
    CrashSite,
    FaultAction,
    FaultPlan,
    HealNet,
    PartitionNet,
    RecoverSite,
)
from repro.chaos.runner import ChaosConfig
from repro.core.transactions import TransactionSpec, TransferOp
from repro.net.link import LinkConfig
from repro.sim.random import derive_seed


def sample_baseline_plan(master_seed: int, index: int,
                         config: ChaosConfig) -> FaultPlan:
    """The fault plan of baseline run *index* (pure function).

    Only crash/recover and partition/heal motifs: those are the fault
    families the baseline systems implement (link windows and elastic
    topology are DvP-side machinery).
    """
    rng = random.Random(derive_seed(master_seed,
                                    f"chaos:baseline-plan:{index}"))
    sites = config.site_names()
    actions: list[FaultAction] = []
    for _ in range(rng.randint(1, 3)):
        start = rng.uniform(0.05 * config.duration, 0.75 * config.duration)
        if rng.random() < 0.6:
            victim = rng.choice(sites)
            actions.append(CrashSite(at=start, site=victim))
            if rng.random() < 0.8:
                actions.append(RecoverSite(
                    at=start + rng.uniform(3.0, 0.4 * config.duration),
                    site=victim))
        else:
            shuffled = sites[:]
            rng.shuffle(shuffled)
            cut = rng.randint(1, len(shuffled) - 1)
            actions.append(PartitionNet(
                at=start, groups=(tuple(shuffled[:cut]),
                                  tuple(shuffled[cut:]))))
            if rng.random() < 0.9:
                actions.append(HealNet(
                    at=start + rng.uniform(3.0, 0.4 * config.duration)))
    return FaultPlan(tuple(actions))


@dataclass
class BaselineChaosResult:
    """One judged run of the Paxos Commit baseline."""

    index: int
    seed: int
    plan: FaultPlan
    submitted: int = 0
    committed: int = 0
    aborted: int = 0
    total_value: int = 0
    blocked: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def summary(self) -> str:
        verdict = ("FAIL " + ",".join(sorted(self.failures))
                   if self.failures else "ok")
        return (f"plan={len(self.plan)} submitted={self.submitted} "
                f"committed={self.committed} aborted={self.aborted} "
                f"total={self.total_value} blocked={self.blocked} "
                f"{verdict}")


def _check_agreement(system: PaxosCommitSystem) -> list[str]:
    """Scan every stable log for split-brain decisions."""
    problems: list[str] = []
    decisions: dict[str, set[bool]] = {}
    participant_outcomes: dict[str, dict[str, bool]] = {}
    for site in system.sites.values():
        for envelope in site.log.scan():
            record = envelope.record
            if record[0] == "coord-decision":
                decisions.setdefault(record[1], set()).add(record[2])
            elif record[0] == "participant-commit":
                participant_outcomes.setdefault(
                    record[1], {})[site.name] = True
            elif record[0] == "participant-abort":
                participant_outcomes.setdefault(
                    record[1], {})[site.name] = False
    for txn_id, verdicts in sorted(decisions.items()):
        if len(verdicts) > 1:
            problems.append(f"{txn_id}: leaders decided both ways")
    for txn_id, outcomes in sorted(participant_outcomes.items()):
        if len(set(outcomes.values())) > 1:
            problems.append(
                f"{txn_id}: participants disagree: {sorted(outcomes)}")
        chosen = decisions.get(txn_id)
        if chosen is not None and len(chosen) == 1 and \
                set(outcomes.values()) != chosen:
            problems.append(f"{txn_id}: participants applied "
                            f"{sorted(set(outcomes.values()))} but the "
                            f"decision was {sorted(chosen)}")
    return problems


def run_baseline_chaos(config: ChaosConfig, plan: FaultPlan,
                       seed: int, index: int = 0) -> BaselineChaosResult:
    """One deterministic Paxos Commit run under *plan*."""
    sites = config.site_names()
    system = PaxosCommitSystem(
        sites, seed=seed,
        link=LinkConfig(base_delay=config.base_delay,
                        jitter=config.base_jitter),
        config=BaselineConfig(txn_timeout=config.txn_timeout,
                              retry_period=config.retransmit_period))
    items = config.item_names()
    per_item = config.total // len(items)
    for position, item in enumerate(items):
        system.add_item(item, sites[position % len(sites)], per_item)
    initial_total = per_item * len(items)

    result = BaselineChaosResult(index=index, seed=seed, plan=plan)
    rng = random.Random(derive_seed(seed, "baseline-workload"))
    outcomes: list[bool] = []
    for _ in range(config.txns):
        at = rng.uniform(1.0, config.duration)
        origin = rng.choice(sites)
        src, dst = rng.sample(items, 2) if len(items) > 1 \
            else (items[0], items[0])
        amount = rng.randint(1, 3)
        spec = TransactionSpec(
            ops=(TransferOp(src, dst, amount),) if src != dst
            else (), label="transfer")
        if not spec.ops:
            continue

        def arrive(o=origin, sp=spec) -> None:
            if not system.sites[o].alive:
                return
            result.submitted += 1
            system.submit(o, sp,
                          lambda r: outcomes.append(r.committed))

        system.sim.at(at, arrive)

    plan.compile(system)
    system.sim.run_until(config.duration)
    # Settle: lift everything the plan left broken, then let takeover
    # rounds and decision retransmissions drain.
    system.network.heal()
    for name in sites:
        if not system.sites[name].alive:
            system.recover(name)
    system.sim.run_until(config.duration + config.settle)

    result.committed = sum(outcomes)
    result.aborted = len(outcomes) - result.committed
    result.total_value = system.total_value()
    result.blocked = len(system.blocked())

    if result.total_value != initial_total:
        result.failures.setdefault("conservation", []).append(
            f"total {result.total_value} != initial {initial_total}")
    agreement = _check_agreement(system)
    if agreement:
        result.failures["agreement"] = agreement
    if result.blocked:
        result.failures.setdefault("liveness", []).append(
            f"{result.blocked} participant(s) still blocked after "
            f"settle: {system.blocked()[:3]}")
    return result


@dataclass
class BaselineChaosReport:
    """Outcome of a budgeted baseline schedule search."""

    budget: int
    master_seed: int
    config: ChaosConfig
    runs: int = 0
    failures: list[BaselineChaosResult] = field(default_factory=list)
    run_summaries: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> str:
        combined = hashlib.sha256()
        for line in self.run_summaries:
            combined.update(line.encode())
            combined.update(b"\n")
        return combined.hexdigest()

    def describe(self) -> str:
        lines = [f"baseline chaos explore (paxos-commit): "
                 f"budget={self.budget} seed={self.master_seed} "
                 f"sites={self.config.sites} items={self.config.items} "
                 f"txns={self.config.txns} "
                 f"duration={self.config.duration:g}",
                 f"plans run: {self.runs}  failing: {len(self.failures)}"]
        for case in self.failures:
            lines.append(f"  plan #{case.index} (run seed {case.seed}) "
                         f"FAILED {sorted(case.failures)}")
            lines.append(f"    {case.plan.describe()}")
            for oracle, messages in sorted(case.failures.items()):
                for message in messages[:3]:
                    lines.append(f"    [{oracle}] {message}")
        lines.append(f"exploration digest: {self.digest()}")
        return "\n".join(lines)


def explore_baseline(config: ChaosConfig, budget: int,
                     master_seed: int) -> BaselineChaosReport:
    """Sample and judge *budget* plans against the Paxos baseline."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    report = BaselineChaosReport(budget=budget, master_seed=master_seed,
                                 config=config)
    for index in range(budget):
        plan = sample_baseline_plan(master_seed, index, config)
        seed = derive_seed(master_seed, f"chaos:baseline-run:{index}")
        result = run_baseline_chaos(config, plan, seed, index=index)
        report.runs += 1
        report.run_summaries.append(f"#{index} {result.summary()}")
        if result.failed:
            report.failures.append(result)
    return report


__all__ = ["BaselineChaosReport", "BaselineChaosResult",
           "explore_baseline", "run_baseline_chaos",
           "sample_baseline_plan"]
