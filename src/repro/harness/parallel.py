"""Parallel evaluation of experiment cell grids.

Every experiment's table is a grid of independent *cells* — one
deterministic simulation per (configuration × seed) point, identified
by a module-level cell function and its keyword arguments (see the
``cells()`` function each module in :mod:`repro.harness.experiments`
exports). Because cells share no state, they can be computed in any
order and on any process: :class:`GridEvaluator` fans them out over a
``multiprocessing`` pool of ``jobs`` workers.

The CLI exposes this through ``repro run <id> --jobs N``. Every cell
is computed on every run. Nothing is memoized: a cell's result depends
on the code as well as on its arguments, so a stored result could
outlive the code that made it.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable

#: A cell: (module-level function name, keyword arguments).
Cell = tuple[str, dict]


def _execute_cell(task: tuple[str, str, dict]) -> Any:
    """Worker body: import the experiment module, run one cell."""
    experiment, fn, kwargs = task
    from repro.harness import experiments
    module = experiments.get(experiment)
    return getattr(module, fn)(**kwargs)


class GridEvaluator:
    """Evaluate a cell grid, on a worker pool when ``jobs > 1``.

    Callable with ``(experiment_id, cells)``; returns results in grid
    order. ``jobs=1`` keeps everything in-process.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def __call__(self, experiment: str, cells: list[Cell]) -> list[Any]:
        tasks = [(experiment, fn, kwargs) for fn, kwargs in cells]
        if self.jobs > 1 and len(tasks) > 1:
            with multiprocessing.Pool(min(self.jobs, len(tasks))) as pool:
                return pool.map(_execute_cell, tasks)
        return [_execute_cell(task) for task in tasks]


def evaluate_cells(experiment: str, cells: list[Cell],
                   evaluate: Callable[[str, list[Cell]], list[Any]]
                   | None = None) -> list[Any]:
    """Run a grid through *evaluate*, or in-process when None."""
    return (evaluate or GridEvaluator())(experiment, cells)
