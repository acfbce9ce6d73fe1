"""Tests for the parallel grid evaluator.

Logic tests run in-process against a stub experiment module (fast);
one integration test fans a real experiment's quick grid over worker
processes and checks the rendered table matches the sequential path.
"""

import pytest

from repro.harness import experiments
from repro.harness.experiments import e05_recovery as e05
from repro.harness.parallel import GridEvaluator, evaluate_cells


class _StubModule:
    """Stands in for an experiment module; counts cell executions."""

    calls: list = []

    @staticmethod
    def _cell(value):
        _StubModule.calls.append(value)
        return {"doubled": value * 2, "pair": (value, value)}


@pytest.fixture
def stub_experiment(monkeypatch):
    _StubModule.calls = []
    real_get = experiments.get
    monkeypatch.setattr(
        experiments, "get",
        lambda experiment_id: (_StubModule if experiment_id == "ET"
                               else real_get(experiment_id)))
    return _StubModule


class TestGridEvaluator:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            GridEvaluator(jobs=0)

    def test_computes_in_grid_order(self, stub_experiment):
        grid = [("_cell", {"value": 1}), ("_cell", {"value": 2})]
        assert GridEvaluator(jobs=1)("ET", grid) == [
            {"doubled": 2, "pair": (1, 1)}, {"doubled": 4, "pair": (2, 2)}]
        assert stub_experiment.calls == [1, 2]

    def test_no_cache_recomputes(self, stub_experiment):
        grid = [("_cell", {"value": 5})]
        evaluator = GridEvaluator(jobs=1)
        evaluator("ET", grid)
        evaluator("ET", grid)
        assert stub_experiment.calls == [5, 5]


class TestEvaluateCells:
    def test_none_falls_back_to_direct_calls(self, stub_experiment):
        results = evaluate_cells("ET", [("_cell", {"value": 4})], None)
        assert results == [{"doubled": 8, "pair": (4, 4)}]

    def test_custom_evaluate_receives_grid(self):
        seen = {}

        def evaluate(experiment, grid):
            seen["experiment"], seen["grid"] = experiment, grid
            return ["sentinel"] * len(grid)

        grid = [("_cell", {"value": 1})]
        assert evaluate_cells("EX", grid, evaluate) == ["sentinel"]
        assert seen == {"experiment": "EX", "grid": grid}


class TestExperimentGrids:
    def test_every_module_exports_the_grid_protocol(self):
        for experiment_id in experiments.all_ids():
            module = experiments.get(experiment_id)
            assert module.EXPERIMENT == experiment_id
            grid = module.cells(module.Params.quick())
            assert grid, experiment_id
            for fn, kwargs in grid:
                assert callable(getattr(module, fn)), (experiment_id, fn)
                assert isinstance(kwargs, dict)

    def test_parallel_run_matches_sequential(self):
        params = e05.Params.quick()
        sequential = e05.run(params).render()
        parallel = e05.run(params, evaluate=GridEvaluator(jobs=2)).render()
        assert parallel == sequential
