"""Property test: the incremental conservation books never diverge
from a full scan, whatever the failure schedule.

The failure schedules come from the chaos engine (:mod:`repro.chaos`):
every batch explores ``SEEDS_PER_BATCH`` grammar-sampled fault plans —
crashes, recoveries, partitions, directed link loss/duplication/reorder
windows, clock-skew timer fires — and judges each run against all three
oracles. The auditor's ``verify_full()`` cross-check (incremental books
vs brute-force scan) runs mid-flight at fixed horizon fractions and
again at quiescence inside every run. 20 batches × 11 plans keeps the
220 randomized executions the optimization was validated against, now
with wider fault coverage than the bespoke generator this replaces.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosConfig, explore
from repro.core.domain import CounterDomain
from repro.core.invariants import IncrementalDivergence
from repro.core.system import DvPSystem, SystemConfig

SEEDS_PER_BATCH = 11
BATCHES = 20  # 220 randomized runs in all


def _batch_config(batch: int) -> ChaosConfig:
    """Deterministic per-batch variety in system shape and timing."""
    return ChaosConfig(
        sites=3 + batch % 3,
        items=1 + batch % 2,
        total=60 + 10 * (batch % 5),
        txns=12 + batch % 9,
        txn_timeout=(6.0, 10.0)[batch % 2],
        checkpoint_interval=(3, 6)[batch % 2])


@pytest.mark.parametrize("batch", range(BATCHES))
def test_incremental_matches_scan_under_chaos(batch):
    report = explore(_batch_config(batch), budget=SEEDS_PER_BATCH,
                     master_seed=batch)
    assert report.runs == SEEDS_PER_BATCH
    assert report.ok, (
        f"batch {batch}: {len(report.failures)} failing plan(s); "
        f"first: {report.failures[0].summary} "
        f"{report.failures[0].failures}")


class TestDivergenceDetection:
    """verify_full must actually notice books that have gone stale."""

    def _system(self) -> DvPSystem:
        system = DvPSystem(SystemConfig(sites=["A", "B"], seed=1))
        system.add_item("item0", CounterDomain(), total=40)
        return system

    def test_untracked_page_write_is_caught(self):
        system = self._system()
        store = system.sites["A"].fragments
        # Mutate the stable page behind the observer's back.
        store.pages.write("item0", store.pages.read("item0") + 5, 999)
        with pytest.raises(IncrementalDivergence):
            system.auditor.verify_full()

    def test_corrupted_live_book_is_caught(self):
        system = self._system()
        system.auditor._live_total["item0"] = 7
        with pytest.raises(IncrementalDivergence):
            system.auditor.verify_full()

    def test_clean_system_verifies(self):
        system = self._system()
        reports = system.auditor.verify_full()
        assert all(report.ok for report in reports)
        assert not system.auditor._live_entries
