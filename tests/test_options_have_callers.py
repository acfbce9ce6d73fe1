"""Every option has a caller: a config field that no experiment, CLI
path, app, workload, example or benchmark workload sets is a code path
only tests reach, and it goes together with the path it selects.

A field counts as set when its name is passed by keyword to some call
(or is a string key of a dict literal, which is how keyword arguments
are gathered for ``**`` expansion) in a file under
``src/repro/{harness,chaos,apps,workloads}``, ``benchmarks/suite`` or
``examples``.

``ChaosConfig`` is excluded on purpose: its ``to_dict()`` is hashed
into the benchmark's pinned ``chaos_explore`` input and into every
committed repro artifact, so deleting one of its fields re-sources
those pins — ``serving_board_period`` and ``base_jitter`` stay although
no CLI flag sets them.

The same rule for functions: every function under ``src/`` that no
non-test entry point enters is a row of docs/LEDGER.md's caller
ledger, with a verdict saying why it stays. CI's ``callers`` job
traces the entry points (``tests/callers.py``); the checks here read
the block and the source trees only.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.baselines.common import BaselineConfig
from repro.core.rebalance import RebalanceConfig
from repro.core.system import SystemConfig
from repro.net.link import LinkConfig
from repro.net.outbox import BundlingConfig
from repro.reads import ViewConfig
from repro.serving import ServingConfig
from repro.workloads.base import OpMix, WorkloadConfig
from tests.callers import functions, known_tests, ledger, parse_verdict

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = [ROOT / "src" / "repro" / name
               for name in ("harness", "chaos", "apps", "workloads")] + [
    ROOT / "benchmarks" / "suite", ROOT / "examples"]
CONFIGS = [SystemConfig, ViewConfig, ServingConfig, RebalanceConfig,
           LinkConfig, BundlingConfig, WorkloadConfig, OpMix,
           BaselineConfig]


def _names_set_by_callers() -> set[str]:
    names: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    names.update(keyword.arg for keyword in node.keywords
                                 if keyword.arg is not None)
                elif isinstance(node, ast.Dict):
                    names.update(key.value for key in node.keys
                                 if isinstance(key, ast.Constant)
                                 and isinstance(key.value, str))
    return names


def test_caller_dirs_exist():
    assert all(directory.is_dir() for directory in CALLER_DIRS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_field_has_a_caller(config):
    callers = _names_set_by_callers()
    orphans = [field.name for field in dataclasses.fields(config)
               if field.init and field.name not in callers]
    assert not orphans, (
        f"{config.__name__} fields no caller sets: {orphans}")


class TestCallerLedger:
    def test_every_entry_names_a_function_under_src(self):
        names = set(functions().values())
        assert [name for name, _ in ledger() if name not in names] == []

    def test_no_entry_repeats(self):
        names = [name for name, _ in ledger()]
        assert sorted(name for name in set(names)
                      if names.count(name) > 1) == []

    def test_every_verdict_is_from_the_vocabulary(self):
        tests = known_tests()
        wrong = []
        for name, verdict in ledger():
            try:
                _kind, _groups, test = parse_verdict(verdict)
            except ValueError as error:
                wrong.append(f"{name}: {error}")
                continue
            if test is not None and test not in tests:
                wrong.append(f"{name}: no test {test}")
        assert wrong == []

    @pytest.mark.parametrize("verdict", [
        "deleted", "awaits item", "reference",
        "reference — `tests/test_cli.py`",
        "reached only by `quick` — `tests/test_cli.py::TestParser`",
        "reached only by `full`, `nightly` — `tests/test_cli.py::TestParser`",
    ])
    def test_a_verdict_outside_the_vocabulary_is_refused(self, verdict):
        with pytest.raises(ValueError):
            parse_verdict(verdict)
