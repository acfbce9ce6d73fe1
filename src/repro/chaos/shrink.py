"""Delta-debugging shrinker for failing fault plans.

Classic ddmin (Zeller & Hildebrandt) over the plan's action list: try
progressively finer chunk removals, keeping any reduced plan that still
fails the *same oracle(s)* under the *same seed*, until the plan is
locally minimal — removing any single remaining action makes the
failure disappear. Because runs are pure functions of ``(seed, plan)``,
the predicate is deterministic and the minimization is replayable.

Shrinking judges candidate plans by oracle-name overlap with the
original failure (not message equality): messages carry values and
timestamps that lawfully drift as the schedule shrinks, but a repro
that stops failing the auditor and starts failing only progress is a
different bug and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.plan import FaultPlan
from repro.chaos.runner import ChaosConfig, ChaosResult, run_chaos


@dataclass
class ShrinkResult:
    """A locally-minimal failing plan plus the search transcript."""

    original: FaultPlan
    minimal: FaultPlan
    seed: int
    config: ChaosConfig
    target_oracles: tuple[str, ...]
    runs: int = 0
    final: ChaosResult | None = None
    history: list[str] = field(default_factory=list)


def shrink(config: ChaosConfig, plan: FaultPlan, seed: int,
           target_oracles: "tuple[str, ...] | None" = None,
           oracles: "list | None" = None,
           max_runs: int = 500) -> ShrinkResult:
    """Minimize *plan* while it keeps failing *target_oracles*.

    *target_oracles* defaults to whatever the unshrunk plan fails
    (determined by one extra run). Raises ``ValueError`` if the
    original plan does not fail at all — there is nothing to shrink.
    """
    state = ShrinkResult(original=plan, minimal=plan, seed=seed,
                         config=config,
                         target_oracles=tuple(target_oracles or ()))

    def still_fails(candidate: FaultPlan) -> bool:
        if state.runs >= max_runs:
            return False
        state.runs += 1
        result = run_chaos(config, candidate, seed, oracles=oracles)
        wanted = set(state.target_oracles)
        hit = bool(result.failures) and (not wanted
                                         or wanted <= set(result.failures))
        state.history.append(
            f"{len(candidate)} actions -> "
            f"{'FAIL' + str(sorted(result.failures)) if result.failures else 'pass'}")
        # Every hit becomes the plan being shrunk, so the latest hit
        # (the baseline, until there is one) is the minimal plan's run:
        # it is handed back open as ``final``. Every run it supersedes
        # and every miss is closed, as explore() closes its plans'
        # (docs/CHAOS.md).
        if hit:
            state.final.system.close()
            state.final = result
        else:
            result.system.close()
        return hit

    baseline = run_chaos(config, plan, seed, oracles=oracles)
    state.runs += 1
    if not baseline.failed:
        raise ValueError("plan does not fail any oracle; nothing to shrink")
    if not state.target_oracles:
        state.target_oracles = baseline.failed_oracles
    state.final = baseline

    actions = list(plan.actions)
    granularity = 2
    while len(actions) >= 2:
        chunks = _chunk(actions, granularity)
        reduced = False
        # Try each chunk alone, then each complement (classic ddmin).
        for candidate in chunks + [_complement(actions, chunk)
                                   for chunk in chunks]:
            if len(candidate) == len(actions):
                continue
            if still_fails(FaultPlan(tuple(candidate))):
                actions = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(actions):
                break
            granularity = min(len(actions), granularity * 2)

    # ddmin at granularity == len(actions) already tried every single
    # removal, but cap-outs and early breaks can leave slack: sweep
    # until no single removal still fails (local minimality).
    swept = True
    while swept and len(actions) >= 1:
        swept = False
        for index in range(len(actions)):
            candidate = actions[:index] + actions[index + 1:]
            if still_fails(FaultPlan(tuple(candidate))):
                actions = candidate
                swept = True
                break

    state.minimal = FaultPlan(tuple(actions))
    return state


def _chunk(actions: list, pieces: int) -> list[list]:
    """Split into *pieces* near-equal contiguous chunks."""
    pieces = min(pieces, len(actions))
    size, leftover = divmod(len(actions), pieces)
    chunks, start = [], 0
    for index in range(pieces):
        end = start + size + (1 if index < leftover else 0)
        chunks.append(actions[start:end])
        start = end
    return chunks


def _complement(actions: list, chunk: list) -> list:
    """*actions* minus the contiguous *chunk* (identity-based)."""
    ids = {id(action) for action in chunk}
    return [action for action in actions if id(action) not in ids]


__all__ = ["shrink", "ShrinkResult"]
