"""Parallel, cached evaluation of experiment cell grids.

Every experiment's table is a grid of independent *cells* — one
deterministic simulation per (configuration × seed) point, identified
by a module-level cell function and its keyword arguments (see the
``cells()`` function each module in :mod:`repro.harness.experiments`
exports). Because cells share no state, they can be computed in any
order, on any process, and memoized:

* :class:`GridEvaluator` fans cell computation out over a
  ``multiprocessing`` pool (``jobs`` workers) and consults an optional
  :class:`ResultCache` first, so re-running a sweep only computes the
  cells whose inputs changed;
* the cache key is a SHA-256 over a canonical JSON rendering of
  ``(experiment id, cell function, kwargs)`` — kwargs carry the full
  ``Params`` dataclass, which embeds the ``SystemConfig`` knobs,
  workload shape, and seed, so any input change yields a new key;
* cached values are the cell's JSON-encoded return value. Cell
  functions must therefore return JSON-representable data (dicts,
  lists/tuples, strings, numbers, bools, None) — every experiment's
  stats dicts already do. Computed results are round-tripped through
  JSON before use so cold and warm runs are bit-identical.

The CLI exposes this through ``repro run <id> --jobs N [--no-cache]``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
from pathlib import Path
from typing import Any, Callable

#: Bump when cell semantics change in a way that invalidates old
#: cached results (the key already covers all declared inputs).
#: 2: E3's Vm columns read the metrics registry (PR 17).
#: 3: one arrival path — every driver-fed cell offers a new load (PR 20).
CACHE_VERSION = 3

#: A cell: (module-level function name, keyword arguments).
Cell = tuple[str, dict]

_MISS = object()


def canonical(value: Any) -> Any:
    """A JSON-able, deterministic rendering of a cell argument.

    Dataclasses carry their class name (two parameter objects with the
    same field values but different types hash differently); dict keys
    are sorted by the JSON encoder; tuples collapse to lists; anything
    exotic falls back to ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: canonical(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__dataclass__": type(value).__qualname__, **fields}
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def cache_key(experiment: str, fn: str, kwargs: dict) -> str:
    """Stable digest of one cell's full input."""
    blob = json.dumps(
        {"version": CACHE_VERSION, "experiment": experiment, "fn": fn,
         "kwargs": canonical(kwargs)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk JSON memo of computed cells, safe for concurrent use.

    One file per key under ``root`` (two-level fan-out by key prefix);
    writes go through a temp file + atomic rename so parallel workers
    and parallel harness invocations never observe torn entries.
    """

    def __init__(self, root: str | Path = ".repro-cache") -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Any:
        """The cached result, or the module-private MISS sentinel."""
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return _MISS
        if payload.get("version") != CACHE_VERSION:
            return _MISS
        return payload["result"]

    def put(self, key: str, experiment: str, fn: str, result: Any) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{multiprocessing.current_process().pid}")
        tmp.write_text(json.dumps(
            {"version": CACHE_VERSION, "experiment": experiment,
             "fn": fn, "result": result}, sort_keys=True))
        tmp.replace(path)


def _execute_cell(task: tuple[str, str, dict]) -> Any:
    """Worker body: import the experiment module, run one cell."""
    experiment, fn, kwargs = task
    from repro.harness import experiments
    module = experiments.get(experiment)
    return getattr(module, fn)(**kwargs)


class GridEvaluator:
    """Evaluate a cell grid with a worker pool and a result cache.

    Callable with ``(experiment_id, cells)``; returns results in grid
    order. ``jobs=1`` keeps everything in-process (still cached);
    ``cache=None`` disables memoization.
    """

    def __init__(self, jobs: int = 1,
                 cache: ResultCache | None = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.cache_hits = 0
        self.computed = 0

    def __call__(self, experiment: str, cells: list[Cell]) -> list[Any]:
        results: list[Any] = [None] * len(cells)
        pending: list[tuple[int, str | None, tuple[str, str, dict]]] = []
        for index, (fn, kwargs) in enumerate(cells):
            key = None
            if self.cache is not None:
                key = cache_key(experiment, fn, kwargs)
                hit = self.cache.get(key)
                if hit is not _MISS:
                    results[index] = hit
                    self.cache_hits += 1
                    continue
            pending.append((index, key, (experiment, fn, kwargs)))
        if pending:
            tasks = [task for _index, _key, task in pending]
            if self.jobs > 1 and len(tasks) > 1:
                with multiprocessing.Pool(
                        min(self.jobs, len(tasks))) as pool:
                    values = pool.map(_execute_cell, tasks)
            else:
                values = [_execute_cell(task) for task in tasks]
            for (index, key, task), value in zip(pending, values):
                # Round-trip through JSON so computed and cached replay
                # results are indistinguishable (tuples become lists,
                # keys become strings) — sweeps render identically on
                # cold and warm runs.
                value = json.loads(json.dumps(value))
                results[index] = value
                self.computed += 1
                if self.cache is not None and key is not None:
                    self.cache.put(key, task[0], task[1], value)
        return results


def evaluate_cells(experiment: str, cells: list[Cell],
                   evaluate: Callable[[str, list[Cell]], list[Any]]
                   | None = None) -> list[Any]:
    """Run a grid through *evaluate*, or in-process when None.

    The in-process fallback calls the cell functions directly (no JSON
    round-trip, no subprocesses) — exactly the original sequential
    behaviour of ``run(params)``.
    """
    if evaluate is not None:
        return evaluate(experiment, cells)
    return [_execute_cell((experiment, fn, kwargs))
            for fn, kwargs in cells]
