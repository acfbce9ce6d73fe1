"""Experiment harness: one module per experiment (E1..E16).

Each experiment module exposes ``run(params=None) -> Table``, a params
dataclass with two presets — ``Params()`` (full, used to produce
EXPERIMENTS.md) and ``Params.quick()`` (small, what ``python -m repro
run`` and the smoke tests use) — and ``claims(table, params) ->
list[str]``: the experiment's claim as a pure function of the table it
prints, naming what is violated (empty = reproduced) on either preset.
"""
