"""End-to-end determinism of the sharded kernel: worker-count-invariant
fingerprints and outcomes on the harness experiments' scenarios and
across chaos exploration.

These are the acceptance tests for the sharding contract: ``workers``
may only change which OS schedule executes the shards, never anything
any shard (or oracle) can observe.
"""

from dataclasses import replace

import pytest

from repro.chaos.explore import explore
from repro.chaos.runner import ChaosConfig, run_chaos
from repro.chaos.plan import FaultPlan
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import DecrementOp, TransactionSpec
from repro.harness.experiments import e01_nonblocking as e01
from repro.harness.experiments import e06_hotspot as e06
from repro.harness.experiments import e13_reshard as e13
from repro.net.link import LinkConfig
from repro.workloads.base import WorkloadConfig, WorkloadDriver
from repro.workloads.inventory import InventoryWorkload
from tests.arrival_reference import RecordingTarget


def _e01_params(shards, workers):
    return e01.Params(partition_durations=[20.0], arrival_rate=0.08,
                      shards=shards, shard_workers=workers)


def _e06_params(shards, workers):
    return e06.Params(duration=80.0, rebalance_sellers=4,
                      shards=shards, shard_workers=workers)


class TestExperimentOutcomes:
    def test_e01_dvp_stats_worker_invariant(self):
        baseline = e01._run("DvP", _e01_params(2, 1), 20.0)
        assert baseline["decided"] > 0
        for workers in (2, 4):
            assert e01._run("DvP", _e01_params(2, workers), 20.0) == baseline

    def test_e01_dvp_stats_match_classic_kernel(self):
        """Sharding may not change what the experiment measures."""
        classic = e01._run("DvP", _e01_params(1, 1), 20.0)
        sharded = e01._run("DvP", _e01_params(2, 1), 20.0)
        assert sharded == classic

    def test_e06_rebalance_stats_worker_invariant(self):
        baseline = e06._run_rebalance(_e06_params(2, 1), "demand-weighted")
        assert baseline["decided"] > 0
        for workers in (2, 4):
            assert e06._run_rebalance(_e06_params(2, workers),
                                      "demand-weighted") == baseline

    def test_e06_rebalance_stats_match_classic_kernel(self):
        classic = e06._run_rebalance(_e06_params(1, 1), "static-rr")
        sharded = e06._run_rebalance(_e06_params(3, 1), "static-rr")
        assert sharded == classic


def _e13_offered_load(shards):
    """What E13's quick cell submits: (site, instant, op, item, amount)."""
    offered = []
    submit = DvPSystem.submit

    def recording(system, site, spec, on_done=None):
        op, = spec.ops
        offered.append((site, system.sim.now, type(op).__name__,
                        op.item, op.amount))
        return submit(system, site, spec, on_done)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DvPSystem, "submit", recording)
        e13._run_one(replace(e13.Params.quick(), shards=shards), 16, False)
    return sorted(offered)


class TestOfferedLoad:
    def test_e13_offered_load_is_kernel_independent(self):
        """Regression: E13 drew inc / dec inside its arrival events from
        one stream shared by every site, so the order shards executed
        in decided which arrival got which draw."""
        classic = _e13_offered_load(1)
        assert len(classic) > 20
        for shards in (2, 4):
            assert _e13_offered_load(shards) == classic


def _e01_style_fingerprint(shards, workers, seed=11):
    """The E1 scenario shape — partitioned workload plus victim — run
    with tracing, so the fingerprint contract is tested on a full
    protocol execution (net, Vm retransmission, timeouts, partitions).
    """
    sites = ["W", "X", "Y", "Z"]
    system = DvPSystem(SystemConfig(
        sites=sites, seed=seed, txn_timeout=15.0,
        link=LinkConfig(base_delay=2.0, jitter=1.0),
        shards=shards, shard_workers=workers))
    system.sim.enable_trace(limit=0)
    source = e01.CrossSiteTransfers(sites)
    for site in sites:
        system.add_item(source.item_of(site), CounterDomain(), total=120)
    driver = WorkloadDriver(
        system.sim, system, sites, source,
        WorkloadConfig(arrival_rate=0.1, duration=90.0))
    driver.install()
    system.sim.at_site(sites[0], 37.5,
                       lambda: system.submit(sites[0], TransactionSpec(
                           ops=(DecrementOp(source.item_of(sites[0]),
                                            120),),
                           label="victim")),
                       label="victim")
    system.sim.at_global(40.0, lambda: system.network.partition(
        [sites[:2], sites[2:]]), label="partition")
    system.sim.at_global(60.0, system.network.heal, label="heal")
    system.run_until(90.0)
    system.run_for(75.0)
    system.auditor.assert_ok()
    return (system.sim.trace_fingerprint(), system.sim.steps,
            len(system.committed()), len(system.aborted()))


def _e06_style_fingerprint(shards, workers, seed=67):
    """The E6 hot-spot shape: one counter partitioned over all sites."""
    sites = [f"S{index}" for index in range(6)]
    system = DvPSystem(SystemConfig(
        sites=sites, seed=seed, txn_timeout=12.0,
        link=LinkConfig(base_delay=2.0),
        shards=shards, shard_workers=workers))
    system.sim.enable_trace(limit=0)
    config = WorkloadConfig(arrival_rate=0.08, duration=60.0,
                            amount_low=1, amount_high=2)
    source = InventoryWorkload(["hot"], config)
    system.add_item("hot", CounterDomain(), total=100_000)
    WorkloadDriver(system.sim, system, sites, source, config).install()
    system.run_for(60.0 + 12.0 + 60.0)
    system.auditor.assert_ok()
    return (system.sim.trace_fingerprint(), system.sim.steps,
            len(system.committed()))


class TestScenarioFingerprints:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_e01_scenario_fingerprint_worker_invariant(self, shards):
        baseline = _e01_style_fingerprint(shards, 1)
        assert baseline[2] + baseline[3] > 0   # something was decided
        for workers in (2, 4, 7):
            assert _e01_style_fingerprint(shards, workers) == baseline

    def test_e06_scenario_fingerprint_worker_invariant(self):
        baseline = _e06_style_fingerprint(3, 1)
        assert baseline[2] > 0
        for workers in (2, 4):
            assert _e06_style_fingerprint(3, workers) == baseline

    def test_e01_outcomes_match_classic_kernel(self):
        """Fingerprints differ between shard counts by construction
        (per-shard streams); observable protocol outcomes may not."""
        classic = _e01_style_fingerprint(1, 1)
        sharded = _e01_style_fingerprint(4, 1)
        assert sharded[2:] == classic[2:]


def _reshard_style_fingerprint(shards, workers, seed=29):
    """The E13 scenario shape: a consistent-hash placement with a site
    join and a decommission mid-run, under workload. Migration ticks
    run as global (barrier) events that ship cross-shard Vm, so this
    pins the kernel's globals-phase mail delivery as well as the
    migration controller's own determinism.

    Jittered links, as in the E1 shape: with constant delays, two
    messages from different shards can land on one site at the exact
    same instant, and the kernels break that tie differently (send
    order vs shard-id drain order) — both deterministic, but not
    comparable across kernels."""
    sites = [f"S{index}" for index in range(6)]
    system = DvPSystem(SystemConfig(
        sites=sites, seed=seed, txn_timeout=12.0,
        link=LinkConfig(base_delay=2.0, jitter=1.0),
        shards=shards, shard_workers=workers,
        partitioner="consistent", replicas=2))
    system.sim.enable_trace(limit=0)
    config = WorkloadConfig(arrival_rate=0.08, duration=80.0,
                            amount_low=1, amount_high=2)
    source = InventoryWorkload(["itemA", "itemB"], config)
    system.add_item("itemA", CounterDomain(), total=600)
    system.add_item("itemB", CounterDomain(), total=600)
    target = RecordingTarget(system)
    WorkloadDriver(system.sim, target, sites, source, config).install()
    system.sim.at_global(30.0, lambda: system.add_site("E0"),
                         label="join")

    def leave() -> None:
        # The join's migration may still be draining; retry on a fixed
        # cadence (deterministic: drain progress is part of the trace).
        if system.reshard_in_progress:
            system.sim.at_global(system.sim.now + 5.0, leave,
                                 label="leave-retry")
        else:
            system.remove_site(sites[-1])

    system.sim.at_global(55.0, leave, label="leave")
    system.run_until(80.0)
    system.run_for(12.0 + 120.0)
    system.auditor.assert_ok()
    assert not system.reshard_in_progress
    return (system.sim.trace_fingerprint(), system.sim.steps,
            len(system.committed()), len(system.aborted()),
            system.sim.metrics.counter("migrate.ships").value,
            system.directory.epoch,
            sorted(target.offered, key=lambda entry: entry[:2]))


class TestReshardDeterminism:
    """Satellite of docs/PARTITIONING.md: topology changes mid-run may
    not cost any replay determinism."""

    def test_reshard_scenario_fingerprint_worker_invariant(self):
        baseline = _reshard_style_fingerprint(2, 1)
        assert baseline[2] > 0          # transactions committed
        assert baseline[4] > 0          # migration Vm actually shipped
        assert baseline[5] == 2         # join + leave = two epochs
        for workers in (2, 4):
            assert _reshard_style_fingerprint(2, workers) == baseline

    def test_reshard_outcomes_match_classic_kernel(self):
        """What holds across kernels: the same submissions, all of them
        decided, and a join plus a leave that ships value over two
        epochs (the auditor is green inside the helper). Which of them
        commit is not: links are created on first use inside shard
        events, so their jitter streams are sub-seeded per shard, and
        a transaction that gathers remote value can hinge on a jitter
        draw."""
        classic = _reshard_style_fingerprint(1, 1)
        sharded = _reshard_style_fingerprint(3, 1)
        assert sharded[-1] == classic[-1] != []
        for _trace, _steps, committed, aborted, ships, epoch, offered in (
                classic, sharded):
            assert committed + aborted == len(offered)
            assert ships > 0 and epoch == 2

    def test_reshard_scenario_replays_bit_for_bit(self):
        assert _reshard_style_fingerprint(2, 2) == \
            _reshard_style_fingerprint(2, 2)


class TestChaosExploration:
    """The chaos engine's replay determinism, sharded: every run of a
    budget-100 exploration must fingerprint identically no matter how
    many worker lanes execute the shards."""

    CONFIG = ChaosConfig(sites=4, items=2, txns=16, duration=40.0,
                         settle=100.0, shards=2)

    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_budget_100_exploration_worker_invariant(self, seed):
        def fingerprints(workers):
            config = replace(self.CONFIG, shard_workers=workers)
            prints = []
            report = explore(config, budget=100, master_seed=seed,
                             on_run=lambda index, result:
                             prints.append(result.fingerprint))
            return prints, report

        base_prints, base_report = fingerprints(1)
        assert len(base_prints) == 100
        for workers in (2, 4):
            prints, report = fingerprints(workers)
            assert prints == base_prints
            assert len(report.failures) == len(base_report.failures)

    def test_sharded_run_replays_bit_for_bit(self):
        config = replace(self.CONFIG, shard_workers=3)
        first = run_chaos(config, FaultPlan(()), seed=7)
        second = run_chaos(config, FaultPlan(()), seed=7)
        assert first.fingerprint == second.fingerprint
        assert not first.failed

    def test_old_artifact_dicts_load_with_shard_defaults(self):
        """PR 2-5 recorded artifacts carry no shard keys; they must
        load as shards=1 (the classic kernel, byte-for-byte)."""
        data = ChaosConfig().to_dict()
        del data["shards"], data["shard_workers"]
        config = ChaosConfig.from_dict(data)
        assert config.shards == 1 and config.shard_workers == 1
