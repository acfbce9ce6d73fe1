"""FaultPlan DSL: serialization round-trips, validation, compiled
action semantics, and (seed, plan) replay determinism.

The determinism property is the tentpole contract: a chaos run is a
pure function of ``(seed, plan)``, checked via the simulator's SHA-256
trace fingerprint plus the run's own metrics summary. Seeded-random
sampling over the fault grammar gives property-style coverage without
an external property-testing dependency.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.chaos import (
    AddSite,
    ChaosConfig,
    CrashSite,
    FaultGrammar,
    FaultPlan,
    HealNet,
    LinkFaultWindow,
    PartitionNet,
    PlanError,
    RecoverSite,
    RemoveSite,
    ReproArtifact,
    Reshard,
    SkewTick,
    run_chaos,
    run_seed_for,
    sample_plan,
)
from repro.chaos.plan import ACTION_TYPES, action_from_dict
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig

NAN, INF = float("nan"), float("inf")


def json_round_trip(plan: FaultPlan) -> FaultPlan:
    """The plan as a repro artifact stores and reloads it."""
    return FaultPlan.from_dicts(json.loads(json.dumps(plan.to_dicts())))


SAMPLE_ACTIONS = (
    CrashSite(at=3.0, site="S1"),
    RecoverSite(at=9.0, site="S1"),
    PartitionNet(at=4.0, groups=(("S0",), ("S1", "S2", "S3"))),
    HealNet(at=12.0),
    LinkFaultWindow(at=5.0, src="S0", dst="S2", duration=6.0,
                    loss=0.7, duplicate=0.3, jitter=4.0),
    LinkFaultWindow(at=2.0, src="S3", dst="S1", duration=3.0, down=True),
    SkewTick(at=7.5, site="S2"),
    AddSite(at=20.0, site="E0"),
    RemoveSite(at=30.0, site="S3"),
    Reshard(at=25.0, replicas=2),
)


class TestSerialization:
    def test_every_action_kind_round_trips(self):
        for action in SAMPLE_ACTIONS:
            assert action_from_dict(action.to_dict()) == action

    def test_plan_json_round_trip(self):
        plan = FaultPlan(SAMPLE_ACTIONS)
        assert json_round_trip(plan) == plan

    def test_kind_registry_is_complete(self):
        assert set(ACTION_TYPES) == {
            "crash", "recover", "partition", "heal", "link", "skew",
            "add-site", "remove-site", "reshard"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError, match="unknown fault action"):
            action_from_dict({"kind": "meteor", "at": 1.0})

    def test_unknown_field_rejected(self):
        with pytest.raises(PlanError, match="unknown fields"):
            action_from_dict({"kind": "crash", "at": 1.0, "blast": 9})

    def test_non_list_json_rejected(self):
        artifact = ReproArtifact(seed=1, config=ChaosConfig(),
                                 plan=FaultPlan(SAMPLE_ACTIONS)).to_dict()
        artifact["plan"] = {"kind": "crash"}
        with pytest.raises(PlanError, match="must be a list"):
            ReproArtifact.from_dict(json.loads(json.dumps(artifact)))

    def test_sampled_plans_round_trip(self):
        config = ChaosConfig()
        grammar = FaultGrammar()
        for index in range(20):
            plan = sample_plan(99, index, config, grammar)
            assert json_round_trip(plan) == plan


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(PlanError, match="at must be >= 0"):
            CrashSite(at=-1.0, site="S0")

    def test_empty_partition_rejected(self):
        with pytest.raises(PlanError, match="at least one group"):
            PartitionNet(at=1.0, groups=())

    def test_self_link_rejected(self):
        with pytest.raises(PlanError, match="must differ"):
            LinkFaultWindow(at=1.0, src="S0", dst="S0", duration=2.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(PlanError, match="positive duration"):
            LinkFaultWindow(at=1.0, src="S0", dst="S1", duration=0.0)

    def test_unknown_site_rejected_at_validate(self):
        plan = FaultPlan((CrashSite(at=1.0, site="S9"),))
        with pytest.raises(PlanError, match="unknown sites"):
            plan.validate(["S0", "S1"])


class TestConfigRefusals:
    """What only an artifact sets is refused when it is read: with
    views on, a NaN settle horizon never ends, and a NaN delay would
    fail deep inside the first send."""

    @pytest.mark.parametrize("name,value", [
        ("settle", NAN), ("settle", -1.0), ("settle", INF),
        ("base_delay", NAN), ("base_delay", -1.0), ("base_delay", INF),
        ("base_jitter", NAN), ("base_jitter", -1.0), ("base_jitter", INF),
        ("retransmit_period", NAN), ("retransmit_period", 0.0),
        ("retransmit_period", INF),
        ("serving_board_period", NAN), ("serving_board_period", 0.0),
        ("serving_board_period", INF),
        ("checkpoint_interval", NAN), ("checkpoint_interval", -1),
    ], ids=lambda value: str(value))
    def test_a_bad_number_is_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            ChaosConfig(**{name: value})

    def test_boundary_values_accepted(self):
        ChaosConfig(settle=0.0, base_delay=0.0, base_jitter=0.0,
                    checkpoint_interval=0)

    @pytest.mark.parametrize("name,value", [
        ("system", "nope"), ("checkpoint_interval", INF),
        ("rebalance", "nope"), ("partitioner", "nope"),
        ("serving", "nope"), ("shards", 0), ("shard_workers", 0),
    ], ids=lambda value: str(value))
    def test_what_the_run_would_refuse_is_a_plan_error(self, name, value):
        """An artifact names a system, a policy, a partitioner or a
        router the run cannot build, or a number it refuses: refused
        when it is read, not deep inside the run."""
        data = ReproArtifact(seed=1, config=ChaosConfig(),
                             plan=FaultPlan(())).to_dict()
        data["config"][name] = value
        with pytest.raises(PlanError, match=name.split("_")[0]):
            ReproArtifact.from_dict(json.loads(json.dumps(data)))

    def test_a_nan_settle_artifact_is_a_plan_error(self):
        data = ReproArtifact(seed=1, config=ChaosConfig(views=5.0),
                             plan=FaultPlan(())).to_dict()
        data["config"]["settle"] = NAN
        with pytest.raises(PlanError, match="settle"):
            ReproArtifact.from_dict(json.loads(json.dumps(data)))


class TestCompiledSemantics:
    def _system(self) -> DvPSystem:
        system = DvPSystem(SystemConfig(sites=["S0", "S1", "S2"], seed=3))
        system.add_item("item0", CounterDomain(), total=30)
        return system

    def test_crash_and_recover_fire_at_time(self):
        system = self._system()
        FaultPlan((CrashSite(at=5.0, site="S1"),
                   RecoverSite(at=9.0, site="S1"))).compile(system)
        system.run_until(6.0)
        assert not system.sites["S1"].alive
        system.run_until(10.0)
        assert system.sites["S1"].alive

    def test_crash_is_noop_when_already_down(self):
        system = self._system()
        FaultPlan((CrashSite(at=2.0, site="S1"),
                   CrashSite(at=3.0, site="S1"))).compile(system)
        system.run_until(4.0)
        assert system.sites["S1"].crash_count == 1

    def test_partition_window(self):
        system = self._system()
        FaultPlan((PartitionNet(at=2.0, groups=(("S0",), ("S1", "S2"))),
                   HealNet(at=6.0))).compile(system)
        system.run_until(3.0)
        assert not system.network.reachable("S0", "S1")
        assert system.network.reachable("S1", "S2")
        system.run_until(7.0)
        assert system.network.reachable("S0", "S1")

    def test_link_window_opens_and_closes(self):
        system = self._system()
        FaultPlan((LinkFaultWindow(at=2.0, src="S0", dst="S1",
                                   duration=4.0, loss=1.0),)
                  ).compile(system)
        system.run_until(3.0)
        link = system.network.link("S0", "S1")
        assert link._fault.loss_probability == 1.0
        system.run_until(7.0)
        assert link._fault is None
        assert link.config.loss_probability == \
            system.config.link.loss_probability

    def test_down_window_severs_and_restores(self):
        system = self._system()
        FaultPlan((LinkFaultWindow(at=2.0, src="S0", dst="S1",
                                   duration=4.0, down=True),)
                  ).compile(system)
        system.run_until(3.0)
        assert not system.network.link("S0", "S1").up
        system.run_until(7.0)
        assert system.network.link("S0", "S1").up

    def test_compile_rejects_unknown_site(self):
        system = self._system()
        with pytest.raises(PlanError):
            FaultPlan((CrashSite(at=1.0, site="S9"),)).compile(system)


class TestReplayDeterminism:
    """Same (seed, plan) → identical trace fingerprint and metrics."""

    def test_empty_plan_replays_identically(self):
        config = ChaosConfig()
        first = run_chaos(config, FaultPlan(), seed=11)
        second = run_chaos(config, FaultPlan(), seed=11)
        assert first.fingerprint == second.fingerprint
        assert first.summary() == second.summary()
        assert not first.failed

    @pytest.mark.parametrize("index", range(8))
    def test_sampled_plans_replay_identically(self, index):
        config = ChaosConfig()
        plan = sample_plan(13, index, config)
        seed = run_seed_for(13, index)
        first = run_chaos(config, plan, seed)
        second = run_chaos(config, plan, seed)
        assert first.fingerprint == second.fingerprint
        assert first.summary() == second.summary()
        assert first.failures == second.failures

    def test_json_round_tripped_plan_replays_identically(self):
        config = ChaosConfig()
        plan = sample_plan(13, 3, config)
        clone = json_round_trip(plan)
        seed = run_seed_for(13, 3)
        assert run_chaos(config, plan, seed).fingerprint == \
            run_chaos(config, clone, seed).fingerprint

    def test_different_seed_changes_the_trace(self):
        config = ChaosConfig()
        plan = sample_plan(13, 0, config)
        assert run_chaos(config, plan, seed=1).fingerprint != \
            run_chaos(config, plan, seed=2).fingerprint

    def test_different_plan_changes_the_trace(self):
        config = ChaosConfig()
        base = run_chaos(config, FaultPlan(), seed=11)
        bumped = run_chaos(
            config, FaultPlan((CrashSite(at=20.0, site="S0"),)), seed=11)
        assert base.fingerprint != bumped.fingerprint

    def test_grammar_sampling_is_pure(self):
        config = ChaosConfig()
        grammar = FaultGrammar()
        for index in random.Random(5).sample(range(100), 10):
            assert sample_plan(21, index, config, grammar) == \
                sample_plan(21, index, config, grammar)
