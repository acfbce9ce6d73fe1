"""Replayable repro artifacts (``dvp-chaos-repro/1`` JSON format).

A repro artifact freezes everything needed to re-execute a failing
chaos run bit-identically: the scenario config, the simulator seed, the
(usually shrunk) fault plan, any armed test-only fault injection, and
the oracle verdicts observed when it was written. ``replay()`` rebuilds
the run from the file alone — this is how a CI chaos failure is
reproduced locally (see docs/CHAOS.md):

    python -m repro chaos --replay tests/repros/<name>.json
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.chaos.plan import FaultPlan, PlanError
from repro.chaos.runner import ChaosConfig, ChaosResult, run_chaos
from repro.core import fragments
from repro.reads import views as read_views

FORMAT = "dvp-chaos-repro/1"


def arm_injection(mode: "str | None") -> tuple:
    """Arm a named test-only injection, routing it to its owning module
    (fragment leaks live in ``repro.core.fragments``, view-staleness
    lies in ``repro.reads.views``). Returns the previous armed state;
    pass it to :func:`disarm_injection` to restore."""
    previous = (fragments.test_leak(), read_views.view_leak())
    if mode is not None and mode in read_views.VIEW_LEAK_MODES:
        read_views.set_view_leak(mode)
    else:
        fragments.set_test_leak(mode)
    return previous


def disarm_injection(previous: tuple) -> None:
    fragments.set_test_leak(previous[0])
    read_views.set_view_leak(previous[1])

#: How many trailing trace events a minimized repro embeds. Small on
#: purpose: the tail is the "what was happening right before the
#: oracles failed" context, not a full trace — `repro trace` replays
#: the artifact when the whole timeline is wanted.
TRACE_TAIL_EVENTS = 64


@dataclass
class ReproArtifact:
    """In-memory form of one repro JSON file."""

    seed: int
    config: ChaosConfig
    plan: FaultPlan
    injection: str | None = None
    failures: dict[str, list[str]] = field(default_factory=dict)
    note: str = ""
    #: Last-K structured trace events of the failing run, as canonical
    #: JSONL lines (see repro.obs.export) — the frozen repro explains
    #: itself without being re-run. Absent in pre-PR3 artifacts.
    trace_tail: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": FORMAT,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "injection": self.injection,
            "plan": self.plan.to_dicts(),
            "failures": self.failures,
            "note": self.note,
            "trace_tail": self.trace_tail,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ReproArtifact":
        """Rebuild an artifact; :class:`PlanError` names what is wrong
        with *data* if it is not one."""
        if not isinstance(data, dict) or data.get("format") != FORMAT:
            found = data.get("format") if isinstance(data, dict) \
                else type(data).__name__
            raise PlanError(f"not a {FORMAT} artifact ({found!r})")
        missing = [key for key in ("seed", "config", "plan")
                   if key not in data]
        if missing:
            raise PlanError(f"artifact has no {', '.join(missing)}")
        if not isinstance(data["plan"], list) or not all(
                isinstance(action, dict) for action in data["plan"]):
            raise PlanError("artifact plan must be a list of actions")
        try:
            config = ChaosConfig.from_dict(data["config"])
        except (TypeError, ValueError) as error:
            raise PlanError(f"artifact config: {error}") from error
        return cls(
            seed=data["seed"],
            config=config,
            plan=FaultPlan.from_dicts(data["plan"]),
            injection=data.get("injection"),
            failures={oracle: list(messages) for oracle, messages
                      in data.get("failures", {}).items()},
            note=data.get("note", ""),
            trace_tail=list(data.get("trace_tail", [])))

    def write(self, path: "str | pathlib.Path") -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "ReproArtifact":
        """Read one artifact file; an unreadable file, or one that is
        not an artifact, raises :class:`PlanError`."""
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except OSError as error:
            raise PlanError(f"cannot read {path}: {error.strerror}") \
                from error
        except ValueError as error:  # JSON and UTF-8 decode errors
            raise PlanError(f"{path} is not JSON: {error}") from error
        return cls.from_dict(data)

    def replay(self, oracles: "list | None" = None,
               trace_limit: int = 0,
               trace_kernel: bool = False) -> ChaosResult:
        """Re-execute the frozen run (arming any recorded injection).

        Pass ``trace_limit`` to also capture a structured trace tail;
        with the limit the artifact's own tail was recorded at
        (:data:`TRACE_TAIL_EVENTS` by default), the replayed
        ``result.trace_tail`` is byte-identical to ``self.trace_tail``.

        The result's system is handed back **open** (callers read its
        trace bus, its sites, its auditor): whoever replays closes —
        ``result.system.close()`` — or lets the process end.
        """
        previous = arm_injection(self.injection)
        try:
            return run_chaos(self.config, self.plan, self.seed,
                             oracles=oracles, trace_limit=trace_limit,
                             trace_kernel=trace_kernel)
        finally:
            disarm_injection(previous)


def default_name(artifact: ReproArtifact) -> str:
    """Stable, human-scannable artifact filename."""
    oracles = "-".join(sorted(artifact.failures)) or "fail"
    injection = f"_{artifact.injection}" if artifact.injection else ""
    system = ("" if artifact.config.system == "dvp"
              else f"{artifact.config.system}_")
    return (f"chaos_{system}{oracles}{injection}_seed{artifact.seed}"
            f"_{len(artifact.plan)}act.json")


__all__ = ["ReproArtifact", "default_name", "arm_injection",
           "disarm_injection", "FORMAT", "TRACE_TAIL_EVENTS"]
