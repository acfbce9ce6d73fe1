"""Schedule search: sample fault plans from a weighted grammar and run
each against the workload until the budget is spent.

The grammar produces *motifs*, not raw actions: a crash is (usually)
paired with a recovery, a partition with a heal, a link fault with its
window end — so sampled plans explore the interesting corners (value
stranded on a dead site, Vm crossing a healing partition, retransmits
into a lossy window) rather than degenerate permanently-broken
topologies. The settle phase of every run lifts whatever the plan left
broken, so unpaired motifs are still fair game.

Everything is derived from ``(master seed, plan index)`` via the same
SHA-256 stream derivation the simulator uses: exploration is fully
deterministic, and any failure is reproducible from the printed seed
and index alone — no state carried between runs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.chaos.plan import (
    AddSite,
    CrashSite,
    FaultAction,
    FaultPlan,
    HealNet,
    LinkFaultWindow,
    PartitionNet,
    RecoverSite,
    RemoveSite,
    Reshard,
    SkewTick,
)

from repro.chaos.runner import SCENARIOS, ChaosConfig, ChaosResult, run_chaos
from repro.sim.random import derive_seed

#: Names AddSite motifs draw from, in preference order. Fixed so the
#: sampled plan is a pure function of (seed, index) and needs no config
#: field; guards skip a name that already joined.
JOINER_POOL = ("E0", "E1", "E2")


@dataclass(frozen=True)
class GrammarWeights:
    """Relative odds of each fault motif in a sampled plan."""

    crash: float = 3.0
    partition: float = 2.0
    link_loss: float = 2.0
    link_dup: float = 1.0
    link_down: float = 1.0
    link_reorder: float = 1.0
    skew: float = 1.0
    #: Elastic-topology motifs (docs/PARTITIONING.md). Default weight 0
    #: keeps every pre-existing exploration digest byte-stable: the
    #: zero-weight tail entries can never be drawn, and appending them
    #: to the cumulative-weight table does not change which index any
    #: existing draw selects. Use :func:`reshard_grammar` to enable.
    add_site: float = 0.0
    remove_site: float = 0.0
    reshard: float = 0.0

    def normalized(self) -> list[tuple[str, float]]:
        pairs = [(name, getattr(self, name)) for name in (
            "crash", "partition", "link_loss", "link_dup", "link_down",
            "link_reorder", "skew",
            "add_site", "remove_site", "reshard")]
        total = sum(weight for _name, weight in pairs)
        if total <= 0:
            raise ValueError("fault grammar has no positive weights")
        return [(name, weight / total) for name, weight in pairs]


@dataclass(frozen=True)
class FaultGrammar:
    """Samples :class:`FaultPlan` instances for a scenario config."""

    weights: GrammarWeights = field(default_factory=GrammarWeights)
    min_motifs: int = 1
    max_motifs: int = 4

    def sample(self, rng: random.Random, config: ChaosConfig) -> FaultPlan:
        sites = config.site_names()
        names = [name for name, _w in self.weights.normalized()]
        odds = [weight for _n, weight in self.weights.normalized()]
        actions: list[FaultAction] = []
        for _ in range(rng.randint(self.min_motifs, self.max_motifs)):
            motif = rng.choices(names, weights=odds)[0]
            actions.extend(self._motif(motif, rng, config, sites))
        return FaultPlan(tuple(actions))

    def _motif(self, motif: str, rng: random.Random, config: ChaosConfig,
               sites: list[str]) -> list[FaultAction]:
        duration = config.duration
        start = rng.uniform(0.05 * duration, 0.75 * duration)
        if motif == "crash":
            victim = rng.choice(sites)
            out = [CrashSite(at=start, site=victim)]
            if rng.random() < 0.8:
                out.append(RecoverSite(
                    at=start + rng.uniform(3.0, 0.4 * duration),
                    site=victim))
            return out
        if motif == "partition":
            shuffled = sites[:]
            rng.shuffle(shuffled)
            cut = rng.randint(1, len(shuffled) - 1)
            groups = (tuple(shuffled[:cut]), tuple(shuffled[cut:]))
            out = [PartitionNet(at=start, groups=groups)]
            if rng.random() < 0.9:
                out.append(HealNet(
                    at=start + rng.uniform(3.0, 0.4 * duration)))
            return out
        if motif == "skew":
            return [SkewTick(at=start, site=rng.choice(sites))]
        if motif == "add_site":
            return [AddSite(at=start, site=rng.choice(JOINER_POOL))]
        if motif == "remove_site":
            return [RemoveSite(at=start, site=rng.choice(sites))]
        if motif == "reshard":
            return [Reshard(at=start, replicas=rng.choice([1, 2]))]
        # Directed link windows.
        src, dst = rng.sample(sites, 2)
        window = rng.uniform(3.0, 0.4 * duration)
        if motif == "link_loss":
            return [LinkFaultWindow(at=start, src=src, dst=dst,
                                    duration=window,
                                    loss=rng.choice([0.4, 0.7, 1.0]))]
        if motif == "link_dup":
            return [LinkFaultWindow(at=start, src=src, dst=dst,
                                    duration=window,
                                    duplicate=rng.choice([0.3, 0.6]))]
        if motif == "link_down":
            return [LinkFaultWindow(at=start, src=src, dst=dst,
                                    duration=window, down=True)]
        # link_reorder: fat jitter makes in-window sends overtake each
        # other (and messages sent before the window).
        return [LinkFaultWindow(at=start, src=src, dst=dst,
                                duration=window,
                                jitter=rng.choice([4.0, 8.0]))]


@dataclass
class FailureCase:
    """One failing (plan, seed) pair found during exploration."""

    index: int
    seed: int
    plan: FaultPlan
    failures: dict[str, list[str]]
    summary: str


@dataclass
class ExploreReport:
    """Outcome of a budgeted schedule search."""

    budget: int
    master_seed: int
    config: ChaosConfig
    runs: int = 0
    failures: list[FailureCase] = field(default_factory=list)
    run_summaries: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> str:
        """SHA-256 over every run summary: two explorations of the same
        (budget, seed, config) must print the same digest."""
        combined = hashlib.sha256()
        for line in self.run_summaries:
            combined.update(line.encode())
            combined.update(b"\n")
        return combined.hexdigest()

    def describe(self) -> str:
        rebalance = ("" if self.config.rebalance is None else
                     f" rebalance={self.config.rebalance}"
                     f":{self.config.rebalance_period:g}")
        bundling = ("" if self.config.bundle_flush_delay is None else
                    f" bundle={self.config.bundle_flush_delay:g}")
        partition = ("" if self.config.partitioner == "all" else
                     f" partitioner={self.config.partitioner}" +
                     ("" if self.config.replicas is None else
                      f"/{self.config.replicas}"))
        serving = ("" if self.config.serving is None else
                   f" serving={self.config.serving}"
                   f":{self.config.serving_max_inflight}"
                   f"/{self.config.serving_max_depth}")
        views = ("" if self.config.views is None else
                 f" views={self.config.views:g}"
                 f"@{self.config.view_refresh:g}")
        waves = ("" if not self.config.waves else
                 f" waves={self.config.waves:g}")
        system = ("" if self.config.system == "dvp" else
                  f" ({self.config.system})")
        lines = [f"chaos explore{system}: budget={self.budget} "
                 f"seed={self.master_seed} sites={self.config.sites} "
                 f"items={self.config.items} txns={self.config.txns} "
                 f"duration={self.config.duration:g}"
                 f"{rebalance}{bundling}{partition}{serving}{views}{waves}",
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


def reshard_grammar(weights: GrammarWeights | None = None
                    ) -> FaultGrammar:
    """A grammar that mixes elastic-topology motifs (site joins,
    decommissions, replica reshards) into the standard fault families —
    the schedule space for docs/PARTITIONING.md's migration claims."""
    base = weights or GrammarWeights()
    return FaultGrammar(weights=replace(
        base, add_site=2.0, remove_site=1.5, reshard=1.0))


def run_seed_for(master_seed: int, index: int) -> int:
    """The simulator seed of exploration run *index*."""
    return derive_seed(master_seed, f"chaos:run:{index}")


def default_grammar(config: ChaosConfig) -> FaultGrammar:
    """Every motif the scenario's system has a model for."""
    return FaultGrammar(GrammarWeights(**SCENARIOS[config.system].weights))


def sample_plan(master_seed: int, index: int, config: ChaosConfig,
                grammar: FaultGrammar | None = None) -> FaultPlan:
    """The fault plan of exploration run *index* (pure function)."""
    grammar = grammar or default_grammar(config)
    rng = random.Random(derive_seed(master_seed, f"chaos:plan:{index}"))
    return grammar.sample(rng, config)


def explore(config: ChaosConfig, budget: int, master_seed: int,
            grammar: FaultGrammar | None = None,
            oracles: "list | None" = None,
            stop_at_first_failure: bool = False,
            on_run: Callable[[int, ChaosResult], None] | None = None
            ) -> ExploreReport:
    """Sample and judge *budget* plans; report every failing one.

    Each plan's system is closed (``System.close``) once the
    oracles, ``summary()`` and *on_run* are done with it — a plan pays
    for its transactions, not for the collector burying its system —
    so *on_run* is the last moment ``result.system`` is live: copy out
    what must outlast it (``list(result.system.results)`` does).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    grammar = grammar or default_grammar(config)
    report = ExploreReport(budget=budget, master_seed=master_seed,
                           config=config)
    for index in range(budget):
        plan = sample_plan(master_seed, index, config, grammar)
        seed = run_seed_for(master_seed, index)
        result = run_chaos(config, plan, seed, oracles=oracles)
        report.runs += 1
        report.run_summaries.append(f"#{index} {result.summary()}")
        if on_run is not None:
            on_run(index, result)
        if result.failed:
            report.failures.append(FailureCase(
                index=index, seed=seed, plan=plan,
                failures=result.failures, summary=result.summary()))
        result.system.close()
        if result.failed and stop_at_first_failure:
            break
    return report


__all__ = ["GrammarWeights", "FaultGrammar", "FailureCase",
           "ExploreReport", "explore", "sample_plan", "run_seed_for",
           "reshard_grammar", "default_grammar", "JOINER_POOL"]
