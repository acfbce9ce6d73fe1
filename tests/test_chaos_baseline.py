"""Chaos-flavoured regressions for the commit-protocol baselines:
the crash-between-prepare-and-decide window, the quorum stale-grant
leak, and the baselines under the one chaos explorer."""

from dataclasses import replace

from repro.baselines.common import BaselineConfig, PendingDone
from repro.baselines.paxoscommit import PaxosCommitSystem
from repro.baselines.quorum import LockReply, QuorumSystem, _Attempt
from repro.baselines.twopc import TwoPCSite, TwoPCSystem
from repro.chaos import (
    ReproArtifact,
    default_name,
    explore,
    run_chaos,
    sample_plan,
    shrink,
)
from repro.chaos.plan import CrashSite, FaultPlan, RecoverSite, SkewTick
from repro.chaos.runner import ChaosConfig
from repro.core.transactions import (
    IncrementOp,
    TransactionSpec,
    TransferOp,
)
from repro.net.link import LinkConfig

QUICK = ChaosConfig(system="paxos", sites=3, items=2, txns=8,
                    duration=40.0, txn_timeout=8.0, retransmit_period=3.0,
                    settle=80.0)
BOTH = [QUICK, replace(QUICK, system="2pc")]


def _coordinated(cls, sites=("S0", "S1", "S2")):
    system = cls(list(sites), seed=7,
                 link=LinkConfig(base_delay=1.0, jitter=0.0),
                 config=BaselineConfig(txn_timeout=8.0, retry_period=3.0))
    for index, site in enumerate(sites):
        system.add_item(f"acct_{index}", site, 100)
    return system


class TestCrashBetweenPrepareAndDecide:
    """The in-doubt window, driven through the chaos FaultPlan path
    (the same compile() duck-typing the explorer relies on)."""

    PLAN = FaultPlan((CrashSite(at=2.5, site="S0"),
                      RecoverSite(at=40.0, site="S0")))

    def _submit(self, system):
        results = []
        system.sim.at(1.0, lambda: system.submit(
            "S0", TransactionSpec(ops=(TransferOp("acct_0", "acct_1",
                                                  5),)), results.append))
        return results

    def test_twopc_participant_blocks_through_the_window(self):
        """2PC's dependent recovery: the participant stays in doubt
        for the whole coordinator outage — the blocking foil E15
        quantifies — and no longer: "2PC blocks until the TM is
        repaired" (Gray & Lamport, *Consensus on Transaction Commit*),
        so once the coordinator is back the participant's inquiry is
        answered (presumed abort: it crashed undecided)."""
        system = _coordinated(TwoPCSystem)
        self._submit(system)
        self.PLAN.compile(system)
        system.run_for(30.0)
        # In-doubt window: the participant holds its lock and waits.
        assert system.blocked()
        system.run_for(120.0)  # coordinator recovery at t=40 in here
        assert system.blocked() == []
        assert system.total_value() == 300

    def test_twopc_resolves_via_participant_recovery_not_stale_timers(self):
        """The participant's own crash+recover starts the inquiry
        pusher against its *rebuilt* in-doubt state; the undecided
        coordinator answers presumed-abort. Nothing armed against the
        pre-crash incarnation fires afterwards."""
        plan = FaultPlan(self.PLAN.actions +
                         (CrashSite(at=60.0, site="S1"),
                          RecoverSite(at=62.0, site="S1")))
        system = _coordinated(TwoPCSystem)
        self._submit(system)
        plan.compile(system)
        system.run_for(150.0)
        assert system.blocked() == []
        assert "acct_1" not in system.sites["S1"].locks
        assert system.total_value() == 300

    def test_paxos_decides_inside_the_same_window(self):
        system = _coordinated(PaxosCommitSystem)
        self._submit(system)
        self.PLAN.compile(system)
        system.run_for(30.0)
        # Before the coordinator is even back, the participants have
        # taken over and decided through the acceptor majority.
        assert system.blocked() == []
        system.run_for(120.0)
        assert system.blocked() == []
        assert system.total_value() == 300


class TestQuorumStaleGrant:
    """Regression for the abandoned-round grant leak: a grant that
    arrives after ``_retry`` reset the attempt holds a real lock at the
    replica, and nothing would ever release it."""

    def _build(self):
        system = QuorumSystem(
            ["A", "B", "C"], seed=3,
            link=LinkConfig(base_delay=1.0, jitter=0.0),
            config=BaselineConfig(txn_timeout=10.0, retry_period=2.0))
        system.add_item("x", 10)
        return system

    def _attempt(self, system, round_number):
        coordinator = system.sites["A"]
        attempt = _Attempt("A#1", TransactionSpec(
            ops=(IncrementOp("x", 1),)), PendingDone(None), 0.0,
            round=round_number)
        coordinator._attempts["A#1"] = attempt
        return coordinator, attempt

    def test_stale_grant_from_abandoned_round_is_released(self):
        system = self._build()
        coordinator, _attempt_state = self._attempt(system, 1)
        system.sites["C"].locks["x"] = "A#1"
        coordinator._on_lock_reply(LockReply("A#1", "C", "x", True,
                                             0, 10, round=0))
        system.run_for(5.0)
        assert "x" not in system.sites["C"].locks

    def test_regranted_replica_keeps_its_current_lock(self):
        system = self._build()
        coordinator, attempt = self._attempt(system, 1)
        # The *current* round already re-granted at C — the late
        # round-0 echo must not release a lock we still hold.
        attempt.grants["C"] = (0, 10)
        system.sites["C"].locks["x"] = "A#1"
        coordinator._on_lock_reply(LockReply("A#1", "C", "x", True,
                                             0, 10, round=0))
        system.run_for(5.0)
        assert system.sites["C"].locks.get("x") == "A#1"

    def test_straggler_grant_after_finish_is_released(self):
        system = self._build()
        coordinator = system.sites["A"]
        system.sites["C"].locks["x"] = "A#9"
        coordinator._on_lock_reply(LockReply("A#9", "C", "x", True,
                                             0, 10, round=0))
        system.run_for(5.0)
        assert "x" not in system.sites["C"].locks

    def test_contention_leaves_no_replica_locked(self):
        system = self._build()
        for origin in ("A", "B", "C"):
            system.sim.at(1.0, lambda o=origin: system.submit(
                o, TransactionSpec(ops=(IncrementOp("x", 1),))))
        system.run_for(60.0)
        for site in system.sites.values():
            assert "x" not in site.locks


class TestBaselineExplorer:
    """The commit baselines under ``explore()`` / ``shrink()`` /
    ``ReproArtifact`` — the explorer DvP runs under, through the
    ``System`` contract."""

    def test_plan_sampling_is_pure(self):
        first = sample_plan(7, 3, QUICK)
        second = sample_plan(7, 3, QUICK)
        assert first == second
        assert sample_plan(7, 4, QUICK) != first
        # Baseline sites have no skewable clock: the motif is off.
        assert not any(isinstance(action, SkewTick)
                       for index in range(40)
                       for action in sample_plan(7, index, QUICK).actions)

    def test_single_run_oracles_pass(self):
        for config in BOTH:
            result = run_chaos(config, sample_plan(7, 0, config),
                               seed=1234)
            assert not result.failed, result.summary()
            assert result.system.total_value() == \
                QUICK.total // QUICK.items * QUICK.items
            result.system.close()

    def test_explore_smoke_is_deterministic(self):
        for config in BOTH:
            first = explore(config, budget=4, master_seed=19)
            second = explore(config, budget=4, master_seed=19)
            assert first.ok, first.describe()
            assert first.digest() == second.digest()
            assert first.runs == 4
            assert f"chaos explore ({config.system})" in first.describe()
            assert "exploration digest:" in first.describe()

    def test_different_seed_different_digest(self):
        first = explore(QUICK, budget=3, master_seed=19)
        second = explore(QUICK, budget=3, master_seed=23)
        assert first.digest() != second.digest()

    def test_planted_bug_is_convicted_shrunk_and_replayed(
            self, monkeypatch, tmp_path):
        """Take away the rule that a prepared participant asks its
        coordinator once it has waited out the timeout (the 2PC of
        before ISSUE 18): the explorer convicts it on liveness, the
        shrinker minimizes the plan, the artifact says which system
        failed and replays to the same verdict — and every plan's
        system was closed on the way."""
        monkeypatch.setattr(TwoPCSite, "_suspect",
                            lambda self, request: True)
        config = ChaosConfig(system="2pc")
        systems = []
        report = explore(config, budget=12, master_seed=7,
                         on_run=lambda _index, result:
                         systems.append(result.system))
        assert len(systems) == 12
        assert all(site.system is None for system in systems
                   for site in system.sites.values())
        assert not report.ok
        case = next(case for case in report.failures
                    if "liveness" in case.failures)

        shrunk = shrink(config, case.plan, case.seed)
        assert "liveness" in shrunk.target_oracles
        assert 1 <= len(shrunk.minimal) <= len(case.plan)
        assert "liveness" in shrunk.final.failures
        shrunk.final.system.close()

        artifact = ReproArtifact(seed=case.seed, config=config,
                                 plan=shrunk.minimal,
                                 failures=shrunk.final.failures)
        path = artifact.write(tmp_path / default_name(artifact))
        assert "2pc" in path.name
        loaded = ReproArtifact.load(path)
        assert loaded.config.system == "2pc"
        replayed = loaded.replay()
        assert replayed.failures == shrunk.final.failures
        assert replayed.fingerprint == shrunk.final.fingerprint
        replayed.system.close()

    def test_dvp_artifacts_carry_no_system_key(self):
        """DvP is the default the selector always had: its artifacts
        (and the benchmark suite's pinned chaos inputs) are written
        exactly as before, and load as "dvp"."""
        assert "system" not in ChaosConfig().to_dict()
        assert ChaosConfig.from_dict(ChaosConfig().to_dict()).system == "dvp"
        assert ChaosConfig.from_dict(QUICK.to_dict()) == QUICK
