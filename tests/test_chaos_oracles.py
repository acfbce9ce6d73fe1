"""Oracle contracts: each oracle passes healthy runs, catches the bug
class it is responsible for, and the explorer surfaces planted bugs
end-to-end.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    AuditorOracle,
    ChaosConfig,
    FaultPlan,
    ProgressOracle,
    SerialOracle,
    ViewOracle,
    default_oracles,
    explore,
    run_chaos,
    shrink,
)
from repro.core import fragments

CONFIG = ChaosConfig()


@pytest.fixture
def leak():
    def arm(mode):
        fragments.set_test_leak(mode)
    yield arm
    fragments.set_test_leak(None)


class TestHealthyRuns:
    def test_empty_plan_passes_all_oracles(self):
        result = run_chaos(CONFIG, FaultPlan(), seed=42)
        assert not result.failed
        for oracle in default_oracles():
            assert oracle.check(result) == []

    def test_default_oracle_names(self):
        assert [oracle.name for oracle in default_oracles()] == \
            ["auditor", "serial", "progress", "view"]

    def test_local_reads_are_not_held_to_the_full_band(self):
        # The chaos workload submits ReadLocalOp transactions whose
        # observed value is one site's fragment — far below the logical
        # total. The serial oracle must not flag them (regression for
        # the uneven-quota false positive).
        result = run_chaos(CONFIG, FaultPlan(), seed=42)
        labels = {txn.label for txn in result.system.results}
        assert "chaos:local-read" in labels  # scenario really has them
        assert SerialOracle().check(result) == []


class TestAuditorOracle:
    def test_catches_write_leak(self, leak):
        leak("write")
        result = run_chaos(CONFIG, FaultPlan(), seed=42)
        messages = result.failures.get("auditor", [])
        assert any("VIOLATION" in message for message in messages)
        # Mid-run probes see it while the run is still hot.
        assert any("mid-run probe" in message for message in messages)


class TestSerialOracle:
    def test_catches_quiescent_divergence(self, leak):
        leak("write")
        result = run_chaos(CONFIG, FaultPlan(), seed=42)
        assert any("serial reference execution" in message
                   for message in result.failures.get("serial", []))


class TestProgressOracle:
    def test_flags_site_still_down(self):
        result = run_chaos(CONFIG, FaultPlan(), seed=42)
        result.system.crash("S0")
        messages = ProgressOracle().check(result)
        assert any("still down" in message for message in messages)

    def test_flags_unattributed_lost_submissions(self):
        result = run_chaos(CONFIG, FaultPlan(), seed=42)
        result.submitted += 5  # 5 phantom submissions, 0 crashes
        messages = ProgressOracle().check(result)
        assert any("never decided" in message for message in messages)

    def test_bounded_decision_time_on_healthy_run(self):
        result = run_chaos(CONFIG, FaultPlan(), seed=42)
        bound = CONFIG.txn_timeout
        assert all(txn.latency <= bound + 1e-9
                   for txn in result.system.results)


class TestViewOracle:
    def test_judges_the_bound_the_read_asked_for(self):
        """A certificate that dropped its bound (recorded None) but is
        staler than the ``config.views`` its read asked for is
        convicted: the oracle does not take the certificate's word."""
        config = ChaosConfig(views=12.0)
        result = run_chaos(config, FaultPlan(), seed=9)
        oracle = ViewOracle()
        assert oracle.check(result) == []
        txn = next(txn for txn in result.system.results
                   if txn.committed and txn.view_rows)
        item, value, as_of, checked_at, _bound, epoch = txn.view_rows[0]
        txn.view_rows = ((item, value, as_of, as_of + 13.0, None, epoch),
                         *txn.view_rows[1:])
        messages = oracle.check(result)
        assert any(f"{txn.txn_id}[{item}] certificate staleness 13 "
                   "exceeds the reader's bound 12" in message
                   for message in messages), messages


class TestExplorerEndToEnd:
    """Acceptance: a planted conservation bug is caught and shrunk."""

    def test_explorer_catches_planted_crash_bug(self, leak):
        leak("crash")
        report = explore(CONFIG, budget=4, master_seed=7)
        assert not report.ok
        case = report.failures[0]
        assert "auditor" in case.failures
        # ...and the shrinker reduces it to <= 3 actions (the
        # acceptance bound; in practice the single crash remains).
        result = shrink(CONFIG, case.plan, case.seed)
        assert len(result.minimal) <= 3
        assert result.final is not None and result.final.failed

    def test_exploration_is_deterministic(self):
        first = explore(CONFIG, budget=3, master_seed=5)
        second = explore(CONFIG, budget=3, master_seed=5)
        assert first.digest() == second.digest()
        assert first.describe() == second.describe()

    def test_sampled_fault_plans_pass_oracles(self):
        # No injection: the protocol itself must survive the grammar.
        report = explore(CONFIG, budget=6, master_seed=31)
        assert report.ok, report.describe()

    def test_stop_at_first_failure(self, leak):
        leak("write")
        report = explore(CONFIG, budget=10, master_seed=5,
                         stop_at_first_failure=True)
        assert len(report.failures) == 1
        assert report.runs < 10
