"""Unit tests for the demand tracker and the rebalance policy registry."""

import pytest

from repro.core.redistribution import (
    REBALANCE_POLICIES,
    DemandTracker,
    DemandWeightedPolicy,
    PullPolicy,
    StaticRoundRobinPolicy,
    make_rebalance_policy,
)


class FakeSim:
    """DemandTracker only reads virtual time."""

    def __init__(self) -> None:
        self.now = 0.0


class TestDemandTracker:
    def test_scores_accumulate(self):
        tracker = DemandTracker(FakeSim())
        tracker.note_remote_demand("B", "x", 5)
        tracker.note_remote_demand("B", "x", 3)
        assert tracker.remote_demand("x", "B") == pytest.approx(8.0)
        assert tracker.remote_demand("x", "C") == 0.0
        assert tracker.remote_demand("y", "B") == 0.0

    def test_scores_decay_with_half_life(self):
        sim = FakeSim()
        tracker = DemandTracker(sim, half_life=10.0)
        tracker.note_shortfall("x", 8)
        assert tracker.local_pressure("x") == pytest.approx(8.0)
        sim.now = 10.0
        assert tracker.local_pressure("x") == pytest.approx(4.0)
        sim.now = 30.0
        assert tracker.local_pressure("x") == pytest.approx(1.0)

    def test_abort_adds_fixed_pressure(self):
        tracker = DemandTracker(FakeSim())
        tracker.note_abort("x")
        assert tracker.local_pressure("x") == pytest.approx(
            DemandTracker.ABORT_WEIGHT)

    def test_wealth_tracks_received_supply(self):
        tracker = DemandTracker(FakeSim())
        tracker.note_supply("A", "x", 20)
        tracker.note_supply("C", "x", 2)
        assert tracker.wealth("x", "A") > tracker.wealth("x", "C")

    def test_non_numeric_amounts_use_cardinality(self):
        tracker = DemandTracker(FakeSim())
        tracker.note_remote_demand("B", "s", {"a", "b", "c"})
        assert tracker.remote_demand("s", "B") == pytest.approx(3.0)
        tracker.note_remote_demand("B", "t", object())
        assert tracker.remote_demand("t", "B") == pytest.approx(1.0)

    def test_half_life_validated(self):
        with pytest.raises(ValueError):
            DemandTracker(FakeSim(), half_life=0.0)


class TestPolicies:
    def test_registry_and_factory(self):
        assert set(REBALANCE_POLICIES) == {"static-rr", "demand-weighted",
                                           "pull"}
        for name, cls in REBALANCE_POLICIES.items():
            policy = make_rebalance_policy(name)
            assert isinstance(policy, cls)
            assert policy.name == name
        with pytest.raises(ValueError):
            make_rebalance_policy("nope")

    def test_static_rr_rotates_only_on_shipment(self):
        policy = StaticRoundRobinPolicy()
        tracker = DemandTracker(FakeSim())
        candidates = ["B", "C", "D"]
        # Peeks are pure: repeated selection without a ship is stable.
        assert policy.push_target(tracker, "x", candidates) == "B"
        assert policy.push_target(tracker, "x", candidates) == "B"
        policy.on_shipped("B")
        assert policy.push_target(tracker, "x", candidates) == "C"
        policy.on_shipped("C")
        assert policy.push_target(tracker, "x", candidates) == "D"

    def test_demand_weighted_picks_strongest_demand(self):
        policy = DemandWeightedPolicy()
        tracker = DemandTracker(FakeSim())
        tracker.note_remote_demand("C", "x", 9)
        tracker.note_remote_demand("B", "x", 2)
        assert policy.push_target(tracker, "x", ["B", "C"]) == "C"
        # Only candidates count: demand from a filtered-out peer is moot.
        assert policy.push_target(tracker, "x", ["B"]) == "B"

    def test_demand_weighted_falls_back_to_rr(self):
        policy = DemandWeightedPolicy()
        tracker = DemandTracker(FakeSim())
        assert policy.push_target(tracker, "x", ["B", "C"]) == "B"
        policy.on_shipped("B")
        assert policy.push_target(tracker, "x", ["B", "C"]) == "C"

    def test_demand_weighted_tie_breaks_to_earliest(self):
        policy = DemandWeightedPolicy()
        tracker = DemandTracker(FakeSim())
        tracker.note_remote_demand("B", "x", 4)
        tracker.note_remote_demand("C", "x", 4)
        assert policy.push_target(tracker, "x", ["B", "C"]) == "B"

    def test_pull_never_pushes(self):
        policy = PullPolicy()
        tracker = DemandTracker(FakeSim())
        assert policy.pushes is False and policy.pulls is True
        # ...so the daemon never asks it where to push.
        with pytest.raises(NotImplementedError):
            policy.push_target(tracker, "x", ["B", "C"])

    def test_pull_prefers_richest_peer(self):
        policy = PullPolicy()
        tracker = DemandTracker(FakeSim())
        tracker.note_supply("C", "x", 30)
        tracker.note_supply("B", "x", 1)
        assert policy.pull_source(tracker, "x", ["B", "C"]) == "C"

    def test_pull_probes_round_robin_without_evidence(self):
        policy = PullPolicy()
        tracker = DemandTracker(FakeSim())
        assert policy.pull_source(tracker, "x", ["B", "C"]) == "B"
        policy.on_pulled("B")
        assert policy.pull_source(tracker, "x", ["B", "C"]) == "C"

    def test_empty_candidates(self):
        tracker = DemandTracker(FakeSim())
        for name in REBALANCE_POLICIES:
            policy = make_rebalance_policy(name)
            if policy.pushes:
                assert policy.push_target(tracker, "x", []) is None
            assert policy.pull_source(tracker, "x", []) is None
