"""Delta-debugging shrinker: known-bad plans minimize to tiny repros
that still fail the same oracles, and the frozen JSON artifact replays
the minimized failure bit-identically.

The known-bad runs plant a real conservation bug via the test-only
leak hooks in :mod:`repro.core.fragments` ("write" leaks a unit on
every stable write; "crash" tears a page on crash in a way redo cannot
restore), then hide it inside noisy multi-action fault plans. The
shrinker must strip the noise.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosConfig,
    CrashSite,
    FaultPlan,
    HealNet,
    LinkFaultWindow,
    PartitionNet,
    RecoverSite,
    ReproArtifact,
    SkewTick,
    default_name,
    run_chaos,
    shrink,
)
from repro.core import fragments

CONFIG = ChaosConfig()

#: Three known-bad scenarios: (injection, seed, noisy plan). Each must
#: shrink to <= 3 actions that still fail the original oracles.
KNOWN_BAD = [
    ("crash", 101, FaultPlan((
        LinkFaultWindow(at=5.0, src="S0", dst="S1", duration=12.0,
                        loss=0.5),
        PartitionNet(at=10.0, groups=(("S0", "S1"), ("S2", "S3"))),
        HealNet(at=22.0),
        CrashSite(at=30.0, site="S2"),
        RecoverSite(at=40.0, site="S2"),
        SkewTick(at=50.0, site="S3"),
    ))),
    ("crash", 202, FaultPlan((
        CrashSite(at=12.0, site="S0"),
        RecoverSite(at=20.0, site="S0"),
        LinkFaultWindow(at=25.0, src="S1", dst="S3", duration=8.0,
                        duplicate=0.5),
        CrashSite(at=45.0, site="S3"),
        RecoverSite(at=55.0, site="S3"),
    ))),
    ("write", 303, FaultPlan((
        PartitionNet(at=8.0, groups=(("S0",), ("S1", "S2", "S3"))),
        HealNet(at=18.0),
        LinkFaultWindow(at=20.0, src="S2", dst="S0", duration=10.0,
                        jitter=6.0),
        SkewTick(at=35.0, site="S1"),
    ))),
]


@pytest.fixture
def leak():
    """Arm/disarm the planted conservation bug around each test."""
    def arm(mode):
        fragments.set_test_leak(mode)
    yield arm
    fragments.set_test_leak(None)


class TestShrinker:
    @pytest.mark.parametrize("injection,seed,plan", KNOWN_BAD)
    def test_known_bad_plans_shrink_small(self, leak, tmp_path,
                                          injection, seed, plan):
        leak(injection)
        result = shrink(CONFIG, plan, seed)
        # Locally minimal and tiny.
        assert len(result.minimal) <= 3
        assert len(result.minimal) < len(plan)
        # The minimized plan still fails the original oracles.
        assert result.final is not None and result.final.failed
        assert set(result.target_oracles) <= set(result.final.failures)
        # And it does so on a fresh run too (predicate is pure).
        rerun = run_chaos(CONFIG, result.minimal, seed)
        assert set(result.target_oracles) <= set(rerun.failures)
        # Freeze as JSON and replay from the artifact alone.
        artifact = ReproArtifact(seed=seed, config=CONFIG,
                                 plan=result.minimal,
                                 injection=injection,
                                 failures=rerun.failures)
        path = artifact.write(tmp_path / default_name(artifact))
        replayed = ReproArtifact.load(path).replay()
        assert replayed.failed
        assert replayed.fingerprint == rerun.fingerprint
        assert replayed.failures == rerun.failures

    def test_crash_leak_minimizes_to_the_crash(self, leak):
        # The "crash" leak only fires on a crash: the single crash
        # action is the whole causal story.
        leak("crash")
        injection, seed, plan = KNOWN_BAD[0]
        result = shrink(CONFIG, plan, seed)
        assert [action.kind for action in result.minimal.actions] == \
            ["crash"]

    def test_healthy_plan_refuses_to_shrink(self):
        with pytest.raises(ValueError, match="nothing to shrink"):
            shrink(CONFIG, FaultPlan(), seed=11)

    def test_shrink_respects_max_runs(self, leak):
        leak("crash")
        injection, seed, plan = KNOWN_BAD[1]
        result = shrink(CONFIG, plan, seed, max_runs=3)
        assert result.runs <= 4  # baseline + capped probes
        assert result.final is not None and result.final.failed

    def test_only_the_final_run_is_handed_back_open(self, leak,
                                                    monkeypatch):
        """Every candidate's system is closed as explore() closes its
        plans'; the one in ``final`` — the minimal plan's run, or the
        baseline when nothing could be removed — stays live."""
        import sys
        shrink_module = sys.modules["repro.chaos.shrink"]
        runs = []

        def recording(*args, **kwargs):
            runs.append(run_chaos(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(shrink_module, "run_chaos", recording)
        leak("crash")
        injection, seed, plan = KNOWN_BAD[1]
        result = shrink(CONFIG, plan, seed)
        assert len(runs) == result.runs > 3
        assert result.final in runs and result.final is not runs[0]
        assert result.final.plan == result.minimal
        for run in runs:
            live = run.system.auditor.system is run.system
            assert live == (run is result.final)
        assert result.final.system.auditor.verify_full()  # still usable
        # Nothing to remove: the baseline itself comes back, open.
        del runs[:]
        single = shrink(CONFIG, result.minimal, seed)
        assert single.final is runs[0] and single.minimal == result.minimal
        assert single.final.system.auditor.system is single.final.system

    def test_history_records_every_probe(self, leak):
        leak("write")
        injection, seed, plan = KNOWN_BAD[2]
        result = shrink(CONFIG, plan, seed)
        # Every probe is logged; the count matches (minus baseline).
        assert len(result.history) == result.runs - 1
        assert any("FAIL" in line for line in result.history)


class TestArtifactFormat:
    def test_round_trip(self, tmp_path):
        artifact = ReproArtifact(
            seed=7, config=CONFIG,
            plan=FaultPlan((CrashSite(at=3.0, site="S1"),)),
            injection="crash",
            failures={"auditor": ["boom"]}, note="hand-written")
        path = artifact.write(tmp_path / "repro.json")
        loaded = ReproArtifact.load(path)
        assert loaded.seed == artifact.seed
        assert loaded.config == artifact.config
        assert loaded.plan == artifact.plan
        assert loaded.injection == "crash"
        assert loaded.failures == {"auditor": ["boom"]}
        assert loaded.note == "hand-written"

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(Exception, match="not a dvp-chaos-repro"):
            ReproArtifact.load(path)

    def test_default_name_is_descriptive(self):
        artifact = ReproArtifact(
            seed=7, config=CONFIG,
            plan=FaultPlan((CrashSite(at=3.0, site="S1"),)),
            injection="crash", failures={"auditor": ["x"]})
        assert default_name(artifact) == \
            "chaos_auditor_crash_seed7_1act.json"

    def test_replay_disarms_injection_afterwards(self, tmp_path):
        artifact = ReproArtifact(
            seed=7, config=CONFIG,
            plan=FaultPlan((CrashSite(at=3.0, site="S1"),)),
            injection="crash")
        artifact.replay()
        assert fragments.test_leak() is None


class TestCommittedRepro:
    """The repro checked in under tests/repros/ must keep reproducing."""

    def test_committed_artifacts_replay(self):
        import pathlib

        repro_dir = pathlib.Path(__file__).parent / "repros"
        paths = sorted(repro_dir.glob("*.json"))
        assert paths, "no committed repro artifacts found"
        for path in paths:
            artifact = ReproArtifact.load(path)
            result = artifact.replay()
            assert result.failed_oracles == \
                tuple(sorted(artifact.failures)), path.name
            # Same scenario without the planted bug is healthy: the
            # failure is the injection's, not the protocol's.
            artifact.injection = None
            assert not artifact.replay().failed, path.name
