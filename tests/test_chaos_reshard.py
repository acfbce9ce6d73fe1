"""Chaos coverage for elastic topology: the three oracles must hold
across site joins, decommissions, and replica reshards — migration
ships are ordinary transfer-mode Vm, so they run *inside* the audited
envelope — and the oracles must still convict when the planted
conservation bug rides exclusively on migration traffic."""

import glob
import io
import os

import pytest

from repro.chaos import (
    AddSite,
    ChaosConfig,
    CrashSite,
    FaultPlan,
    HealNet,
    LinkFaultWindow,
    PartitionNet,
    RecoverSite,
    RemoveSite,
    ReproArtifact,
    Reshard,
    explore,
    reshard_grammar,
    run_chaos,
)
from repro.cli import build_parser
from repro.core import fragments
from repro.harness.chaos import config_from_args, explore_main

REPRO_DIR = os.path.join(os.path.dirname(__file__), "repros")

#: Placement-enabled scenario the elastic plans run against: consistent
#: hashing with two owners per item, so joins/leaves/reshards actually
#: move fragments instead of touching an every-site-owns-everything map.
CONFIG = ChaosConfig(partitioner="consistent", replicas=2)


def _ships(result) -> int:
    return result.system.sim.metrics.counter("migrate.ships").value


def _run_green(plan: FaultPlan, config: ChaosConfig = CONFIG, seed: int = 5):
    result = run_chaos(config, plan, seed)
    assert not result.failed, result.summary()
    assert not result.system.reshard_in_progress
    return result


class TestExploreElasticTopology:
    def test_reshard_grammar_budget_200_green(self):
        """The acceptance run: full budget with joins, decommissions,
        and reshards mixed into every standard fault family."""
        report = explore(CONFIG, budget=200, master_seed=7,
                         grammar=reshard_grammar())
        assert report.ok, report.describe()

    @pytest.mark.parametrize("seed", [19, 23])
    def test_other_seeds_green(self, seed):
        report = explore(CONFIG, budget=40, master_seed=seed,
                         grammar=reshard_grammar())
        assert report.ok, report.describe()

    def test_exploration_deterministic(self):
        """Joins and migrations draw no randomness of their own: the
        same (budget, seed, config, grammar) prints the same digest."""
        first = explore(CONFIG, budget=6, master_seed=11,
                        grammar=reshard_grammar())
        second = explore(CONFIG, budget=6, master_seed=11,
                         grammar=reshard_grammar())
        assert first.digest() == second.digest()

    def test_describe_names_the_partitioner(self):
        report = explore(CONFIG, budget=1, master_seed=3)
        assert "partitioner=consistent/2" in \
            report.describe().splitlines()[0]
        plain = explore(ChaosConfig(), budget=1, master_seed=3)
        assert "partitioner" not in plain.describe()

    def test_sampled_schedules_reach_migration(self):
        """The grammar must actually exercise the machinery it claims
        to: across a small budget, at least one sampled schedule ships
        migration Vm and bumps the directory epoch."""
        shipped = epochs = 0

        def watch(index, result):
            nonlocal shipped, epochs
            shipped += _ships(result)
            epochs += result.system.directory.epoch

        report = explore(CONFIG, budget=12, master_seed=7,
                         grammar=reshard_grammar(), on_run=watch)
        assert report.ok, report.describe()
        assert epochs > 0
        assert shipped > 0


class TestExplicitMigrationSchedules:
    """Hand-written worst-case interleavings the grammar only reaches
    by luck. Each must settle green under the default three oracles."""

    def test_crash_during_migration(self):
        """An owner fail-stops while a reshard drain is in flight; the
        controller must retry through recovery without double-applying."""
        result = _run_green(FaultPlan((
            Reshard(at=20.0, replicas=1),
            CrashSite(at=21.5, site="S1"),
            RecoverSite(at=45.0, site="S1"),
        )))
        assert _ships(result) > 0
        assert result.system.directory.epoch == 1

    def test_join_mid_partition(self):
        """A site joins while the network is split: migration ships
        toward it cannot land until the heal, then must drain cleanly."""
        result = _run_green(FaultPlan((
            PartitionNet(at=18.0, groups=(("S0", "S1"), ("S2", "S3"))),
            AddSite(at=20.0, site="E0"),
            HealNet(at=35.0),
        )))
        assert "E0" in result.system.sites
        assert result.system.directory.epoch == 1

    def test_duplicated_migration_vm(self):
        """A duplicating link window over the migration horizon: the
        receiver's exactly-once channel must absorb replayed ships."""
        result = _run_green(FaultPlan((
            LinkFaultWindow(at=18.0, src="S0", dst="S2", duration=25.0,
                            duplicate=0.6),
            LinkFaultWindow(at=18.0, src="S1", dst="S3", duration=25.0,
                            duplicate=0.6),
            Reshard(at=20.0, replicas=1),
        )))
        assert _ships(result) > 0

    def test_lost_migration_vm(self):
        """A lossy window eats first-attempt ships; the controller's
        retransmit tick must re-ship until cumulative acks cover them."""
        result = _run_green(FaultPlan((
            LinkFaultWindow(at=18.0, src="S0", dst="S2", duration=25.0,
                            loss=0.7),
            LinkFaultWindow(at=18.0, src="S2", dst="S0", duration=25.0,
                            loss=0.7),
            Reshard(at=20.0, replicas=1),
        )))
        assert _ships(result) > 0

    def test_decommission_under_crashes(self):
        """A leave drains the leaver's fragments while a bystander
        crashes and recovers."""
        result = _run_green(FaultPlan((
            RemoveSite(at=20.0, site="S3"),
            CrashSite(at=24.0, site="S0"),
            RecoverSite(at=42.0, site="S0"),
        )))
        assert "S3" not in result.system.directory.sites
        assert result.system.directory.epoch == 1


class TestOraclesSeeMigrationTraffic:
    def test_auditor_convicts_leak_carried_only_by_migration(self):
        """With no transactions at all, the only stable writes in the
        run are migration ships — arm the write leak and the auditor
        must convict. This is the proof that placement migration runs
        inside the audited envelope rather than beside it."""
        quiet = ChaosConfig(partitioner="consistent", replicas=2, txns=0)
        plan = FaultPlan((Reshard(at=20.0, replicas=1),))
        fragments.set_test_leak("write")
        try:
            leaky = run_chaos(quiet, plan, seed=5)
        finally:
            fragments.set_test_leak(None)
        assert _ships(leaky) > 0
        assert "auditor" in leaky.failed_oracles, leaky.summary()

    def test_same_run_clean_without_the_leak(self):
        """Control: identical scenario, leak disarmed, all oracles ok —
        the conviction above is the leak, not the migration."""
        quiet = ChaosConfig(partitioner="consistent", replicas=2, txns=0)
        result = _run_green(FaultPlan((Reshard(at=20.0, replicas=1),)),
                            config=quiet)
        assert _ships(result) > 0


class TestPlumbing:
    def test_cli_args_reach_chaos_config(self):
        args = build_parser().parse_args(
            ["chaos", "--budget", "5", "--partitioner", "consistent",
             "--replicas", "2"])
        config = config_from_args(args)
        assert config.partitioner == "consistent"
        assert config.replicas == 2

    def test_cli_default_is_seed_placement(self):
        args = build_parser().parse_args(["chaos", "--budget", "5"])
        config = config_from_args(args)
        assert config.partitioner == "all"
        assert config.replicas is None

    def test_cli_rejects_unknown_partitioner(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["chaos", "--partitioner", "no-such-scheme"])

    def test_reshard_flag_selects_the_elastic_grammar(self):
        """End to end through explore_main: with --reshard and a seed
        whose first sample draws an elastic motif, the report line names
        the partitioner and the run stays green."""
        args = build_parser().parse_args(
            ["chaos", "--budget", "2", "--seed", "7",
             "--partitioner", "consistent", "--replicas", "2",
             "--reshard"])
        out = io.StringIO()
        assert explore_main(args, out=out) == 0
        text = out.getvalue()
        assert "partitioner=consistent/2" in text
        assert "failing: 0" in text

    def test_old_config_dicts_still_load(self):
        """Artifacts frozen before the placement axis predate the two
        new keys; from_dict must default them, not crash."""
        data = ChaosConfig().to_dict()
        del data["partitioner"]
        del data["replicas"]
        config = ChaosConfig.from_dict(data)
        assert config.partitioner == "all"
        assert config.replicas is None

    def test_round_trip_preserves_placement(self):
        config = ChaosConfig(partitioner="hash", replicas=3)
        assert ChaosConfig.from_dict(config.to_dict()) == config


class TestCommittedRepros:
    def test_partitioned_artifact_is_committed_and_reproduces(self):
        """A minimized dvp-chaos-repro/1 artifact whose failure rides
        on migration traffic must be committed and replay to the same
        oracle verdict."""
        found = []
        for path in sorted(glob.glob(os.path.join(REPRO_DIR, "*.json"))):
            artifact = ReproArtifact.load(path)
            if artifact.config.partitioner != "all":
                found.append((path, artifact))
        assert found, "no placement-enabled repro artifact is committed"
        for path, artifact in found:
            kinds = {action.kind for action in artifact.plan.actions}
            assert kinds & {"add-site", "remove-site", "reshard"}, path
            result = artifact.replay()  # arms the recorded injection
            assert result.failed_oracles == tuple(
                sorted(artifact.failures)), path
