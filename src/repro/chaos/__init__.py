"""Deterministic chaos engine: fault-plan DSL, schedule search,
oracle checking, delta-debugging shrinker, replayable repro artifacts.

The paper's claims are behavioral — non-blocking transactions and
``Π(fragments) + Π(live Vm) = d`` under crashes, lost/duplicated/
reordered messages, and partitions. This package explores that failure
space systematically: :mod:`plan` defines typed fault schedules that
replay bit-identically from ``(seed, plan)``; :mod:`explore` samples
them from a weighted grammar and judges every run against the
:mod:`oracles`; :mod:`shrink` minimizes any failure to a locally
minimal action list; :mod:`artifact` freezes it as a JSON repro. The
same explorer serves the commit-protocol baselines through the
``System`` contract (``ChaosConfig.system``, one :data:`SCENARIOS`
entry each). See docs/CHAOS.md.
"""

from repro.chaos.artifact import (
    TRACE_TAIL_EVENTS,
    ReproArtifact,
    arm_injection,
    default_name,
    disarm_injection,
)
from repro.chaos.explore import (
    JOINER_POOL,
    ExploreReport,
    FailureCase,
    FaultGrammar,
    GrammarWeights,
    explore,
    reshard_grammar,
    run_seed_for,
    sample_plan,
)
from repro.chaos.oracles import (
    AgreementOracle,
    AuditorOracle,
    ConservationOracle,
    LivenessOracle,
    ProgressOracle,
    SerialOracle,
    ViewOracle,
    commit_oracles,
    default_oracles,
)
from repro.chaos.plan import (
    AddSite,
    CrashSite,
    FaultAction,
    FaultPlan,
    HealNet,
    LinkFaultWindow,
    PartitionNet,
    PlanError,
    RecoverSite,
    RemoveSite,
    Reshard,
    SkewTick,
)
from repro.chaos.runner import SCENARIOS, ChaosConfig, ChaosResult, run_chaos
from repro.chaos.shrink import ShrinkResult, shrink

__all__ = [
    "AddSite", "AgreementOracle", "AuditorOracle", "ChaosConfig",
    "ChaosResult", "ConservationOracle", "CrashSite", "ExploreReport",
    "FailureCase", "FaultAction", "FaultGrammar", "FaultPlan",
    "GrammarWeights", "HealNet", "JOINER_POOL", "LinkFaultWindow",
    "LivenessOracle", "PartitionNet", "PlanError", "ProgressOracle",
    "RecoverSite", "RemoveSite", "ReproArtifact", "Reshard", "SCENARIOS",
    "SerialOracle", "ShrinkResult", "SkewTick", "TRACE_TAIL_EVENTS",
    "ViewOracle", "arm_injection", "commit_oracles", "default_name",
    "default_oracles", "disarm_injection", "explore", "reshard_grammar",
    "run_chaos", "run_seed_for", "sample_plan", "shrink",
]
