"""Every experiment module runs its quick preset, produces a
well-formed table, and that table reproduces the experiment's claim:
``claims(table, params)`` names nothing violated. (The full presets are
judged the same way where EXPERIMENTS.md records them —
tests/test_experiments_doc.py.)"""

import copy
import functools

import pytest

from repro.harness import experiments
from repro.metrics.tables import Table


@functools.lru_cache(maxsize=None)
def quick(experiment_id):
    """(module, quick params, its table) — each experiment runs once."""
    module = experiments.get(experiment_id)
    params = module.Params.quick()
    return module, params, module.run(params)


@pytest.mark.parametrize("experiment_id", experiments.all_ids())
def test_quick_preset_produces_table(experiment_id):
    module, params, table = quick(experiment_id)
    assert isinstance(table, Table)
    assert table.rows
    assert table.columns
    rendered = table.render()
    assert table.title in rendered
    assert module.claims(table, params) == []


def test_registry_is_complete():
    assert experiments.all_ids() == [f"E{n}" for n in range(1, 17)]


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        experiments.get("E99")


class TestE6Claim:
    """The gate this claim replaces addressed E6's table by position
    and took the largest ``sites`` value for the scale to compare at.
    Since the ``DvP+<policy>`` rows joined the table that value is
    their 6-site row on the quick preset, which has no lock or escrow:
    the gate raised, in a file no job ran."""

    def test_the_old_gate_raises_on_the_quick_table(self):
        _module, _params, table = quick("E6")
        rows = {(row[0], row[1]): row for row in table.rows}
        largest = sorted({row[0] for row in table.rows})[-1]
        with pytest.raises(KeyError):
            assert rows[(largest, "escrow")][3] > rows[(largest, "lock")][3]

    def test_compares_where_all_three_systems_ran(self):
        module, params, table = quick("E6")
        assert module.claims(table, params) == []
        planted = copy.deepcopy(table)
        by_system = {(row[0], row[1]): row for row in planted.rows}
        throughput = planted.columns.index("throughput")
        by_system[(4, "escrow")][throughput] = \
            by_system[(4, "lock")][throughput]
        violated = module.claims(planted, params)
        assert len(violated) == 1
        assert "at 4 sites escrow's throughput" in violated[0]

    def test_a_demand_aware_policy_must_out_commit_static_rr(self):
        module, params, table = quick("E6")
        planted = copy.deepcopy(table)
        commit = planted.columns.index("commit%")
        for row in planted.rows:
            if row[1].startswith("DvP+"):
                row[commit] = 90.0
        violated = module.claims(planted, params)
        assert len(violated) == 1 and "static-rr" in violated[0]


class TestE11TypedRefusals:
    """Regression for the bare ``except Exception: pass`` that used to
    wrap E11 arrivals: only the typed refusals (SiteDown,
    UnsupportedSpec) may be swallowed; programming errors in the
    routing path must propagate."""

    def test_programming_errors_propagate(self, monkeypatch):
        from repro.harness.experiments import e11_hybrid
        from repro.hybrid import HybridSystem

        def broken_submit(self, site, spec, on_done=None):
            raise TypeError("routing bug")

        monkeypatch.setattr(HybridSystem, "submit", broken_submit)
        with pytest.raises(TypeError, match="routing bug"):
            e11_hybrid._run_one(e11_hybrid.Params.quick(), "dvp")

    def test_typed_refusals_are_absorbed(self, monkeypatch):
        from repro.core.site import SiteDown
        from repro.harness.experiments import e11_hybrid
        from repro.hybrid import HybridSystem

        def down_submit(self, site, spec, on_done=None):
            raise SiteDown(site)

        monkeypatch.setattr(HybridSystem, "submit", down_submit)
        stats = e11_hybrid._run_one(e11_hybrid.Params.quick(), "dvp")
        # Every arrival was refused: submitted counts stay, commits 0.
        assert stats["phase1"]["commit"] == 0.0
