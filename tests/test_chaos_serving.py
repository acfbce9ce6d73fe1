"""Chaos coverage for the serving front-end: every oracle must hold
when arrivals flow through routed, bounded, admission-controlled
queues — sheds never enter the system (so the progress oracle counts
dispatches, not arrivals), slot leases reclaim crash-wiped
transactions, and the whole path stays deterministic and
worker-invariant on the sharded kernel."""

import pytest

from repro.chaos import ChaosConfig, FaultPlan, explore
from repro.chaos.runner import run_chaos
from repro.cli import build_parser
from repro.harness.chaos import config_from_args

#: router per acceptance seed — one exploration each, three routers.
ACCEPTANCE = [(7, "least-queue"), (19, "locality"), (23, "random")]


class TestExploreWithServing:
    @pytest.mark.parametrize("seed,router", ACCEPTANCE)
    def test_budget_200_green(self, seed, router):
        """The acceptance runs: full budget, serving on, every oracle."""
        report = explore(ChaosConfig(serving=router), budget=200,
                         master_seed=seed)
        assert report.ok, report.describe()

    def test_exploration_deterministic_with_serving(self):
        config = ChaosConfig(serving="least-queue")
        first = explore(config, budget=6, master_seed=11)
        second = explore(config, budget=6, master_seed=11)
        assert first.digest() == second.digest()

    def test_describe_names_the_serving(self):
        report = explore(ChaosConfig(serving="locality"), budget=1,
                         master_seed=3)
        assert "serving=locality" in report.describe().splitlines()[0]
        plain = explore(ChaosConfig(), budget=1, master_seed=3)
        assert "serving" not in plain.describe()


CRASH_PLAN = FaultPlan.from_dicts([
    {"at": 15.0, "kind": "crash", "site": "S1"},
    {"at": 35.0, "kind": "recover", "site": "S1"},
    {"at": 25.0, "kind": "crash", "site": "S3"},
])


class TestServingRunSemantics:
    def test_same_seed_and_plan_same_fingerprint(self):
        config = ChaosConfig(serving="least-queue")
        first = run_chaos(config, CRASH_PLAN, seed=42)
        second = run_chaos(config, CRASH_PLAN, seed=42)
        assert first.fingerprint == second.fingerprint
        assert not first.failed, first.failures

    def test_submitted_counts_dispatches_not_arrivals(self):
        """With every site down before the first arrival, every request
        is shed at dispatch: nothing enters the system, submitted must
        be 0 (not the arrival count), and the progress oracle still
        balances."""
        config = ChaosConfig(serving="least-queue")
        plan = FaultPlan.from_dicts([
            {"at": 0.1, "kind": "crash", "site": site}
            for site in config.site_names()])
        result = run_chaos(config, plan, seed=9)
        assert not result.failed, result.failures
        assert result.submitted == 0
        assert len(result.system.results) == 0
        assert result.system.sim.metrics.total("serve.shed") == config.txns

    def test_dispatches_decide_under_an_open_door(self):
        config = ChaosConfig(serving="least-queue")
        result = run_chaos(config, FaultPlan.from_dicts([]), seed=9)
        assert not result.failed, result.failures
        assert result.submitted == config.txns
        assert len(result.system.results) == config.txns

    def test_crash_wipes_are_covered_by_leases(self):
        """Dispatched-then-wiped transactions never call back; the
        lease reclaims the slot and the progress oracle attributes the
        loss to the crash."""
        config = ChaosConfig(serving="least-queue")
        result = run_chaos(config, CRASH_PLAN, seed=12)
        assert not result.failed, result.failures
        undecided = result.submitted - len(result.system.results)
        assert undecided <= sum(site.txns_wiped for site
                                in result.system.sites.values())

    def test_worker_invariant_on_sharded_kernel(self):
        def fingerprint(workers):
            config = ChaosConfig(serving="locality", shards=2,
                                 shard_workers=workers,
                                 partitioner="hash", replicas=2)
            result = run_chaos(config, CRASH_PLAN, seed=21)
            assert not result.failed, result.failures
            return result.fingerprint

        assert fingerprint(1) == fingerprint(2)


class TestConfigPlumbing:
    def test_old_artifacts_load_without_serving_keys(self):
        data = ChaosConfig().to_dict()
        for key in ("serving", "serving_max_depth",
                    "serving_max_inflight", "serving_board_period"):
            del data[key]
        config = ChaosConfig.from_dict(data)
        assert config.serving is None

    def test_cli_flags_reach_the_config(self):
        parser = build_parser()
        args = parser.parse_args([
            "chaos", "--serving", "locality", "--serving-depth", "5",
            "--serving-inflight", "3"])
        config = config_from_args(args)
        assert config.serving == "locality"
        assert config.serving_max_depth == 5
        assert config.serving_max_inflight == 3

    def test_default_is_the_seed_path(self):
        parser = build_parser()
        args = parser.parse_args(["chaos"])
        assert config_from_args(args).serving is None
