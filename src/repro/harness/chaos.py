"""Driver behind ``python -m repro chaos`` — budgeted schedule search
with optional shrinking and replayable repro artifacts, for DvP or
(``--baseline``) a commit-protocol baseline: the same explorer, the
same shrinker, the same artifacts.

Two modes:

* **explore** (default): sample ``--budget`` fault plans from the
  grammar, judge each against the three oracles, and print a
  deterministic report (same ``(budget, seed, config)`` → byte-identical
  stdout, ending in the exploration digest). With ``--shrink`` every
  failure is delta-debugged to a locally-minimal plan and frozen as a
  ``dvp-chaos-repro/1`` JSON artifact under ``--repro-dir``.

* **replay** (``--replay PATH``): re-execute a frozen artifact
  bit-identically and report whether the failure still reproduces.
  Exit status follows the *current* verdict: 0 when the run is clean
  (the bug is fixed), 1 when oracles still fail.

``--inject {write,crash,view-staleness}`` arms a test-only injection
for the duration of the command — the self-test proving the oracles
catch real bugs. ``write``/``crash`` leak conservation in
:mod:`repro.core.fragments`; ``view-staleness`` makes the Π(b) view
service republish stale snapshots as fresh
(:mod:`repro.reads.views`), which the view oracle must convict.
"""

from __future__ import annotations

import sys
from typing import TextIO

from repro.chaos import (
    TRACE_TAIL_EVENTS,
    ChaosConfig,
    PlanError,
    ReproArtifact,
    default_name,
    explore,
    reshard_grammar,
    shrink,
)
from repro.chaos.artifact import arm_injection, disarm_injection

#: Shrinking is ~100 runs per failure; bound the work per invocation.
MAX_SHRINKS = 5

#: Flags (with their off values) that configure DvP machinery no
#: baseline has; ``--baseline`` refuses them rather than silently
#: exploring without them.
DVP_ONLY = {"inject": None, "rebalance": None, "bundle_delay": None,
            "partitioner": "all", "replicas": None, "serving": None,
            "views": None, "reshard": False, "waves": 0.0}


def config_from_args(args) -> ChaosConfig:
    return ChaosConfig(system=getattr(args, "baseline", None) or "dvp",
                       sites=args.sites, items=args.items,
                       txns=args.txns, duration=args.duration,
                       txn_timeout=args.timeout,
                       rebalance=getattr(args, "rebalance", None),
                       rebalance_period=getattr(args, "rebalance_period",
                                                6.0),
                       bundle_flush_delay=getattr(args, "bundle_delay",
                                                  None),
                       partitioner=getattr(args, "partitioner", "all"),
                       replicas=getattr(args, "replicas", None),
                       serving=getattr(args, "serving", None),
                       serving_max_depth=getattr(args, "serving_depth", 8),
                       serving_max_inflight=getattr(
                           args, "serving_inflight", 2),
                       views=getattr(args, "views", None),
                       view_refresh=getattr(args, "view_refresh", 4.0),
                       waves=getattr(args, "waves", 0.0))


def explore_main(args, out: "TextIO | None" = None) -> int:
    """Explore (and optionally shrink); return a process exit code."""
    out = out if out is not None else sys.stdout
    try:
        config = config_from_args(args)
    except ValueError as error:
        print(f"repro chaos: {error}", file=sys.stderr)
        return 2
    previous = arm_injection(args.inject)
    try:
        grammar = (reshard_grammar() if getattr(args, "reshard", False)
                   else None)
        report = explore(config, budget=args.budget,
                         master_seed=args.seed, grammar=grammar)
        print(report.describe(), file=out)
        if report.ok:
            return 0
        if not args.shrink:
            print("(rerun with --shrink to minimize and write repro "
                  "artifacts)", file=out)
            return 1
        shrunk = 0
        for case in report.failures[:MAX_SHRINKS]:
            result = shrink(config, case.plan, case.seed)
            shrunk += 1
            print(f"shrink plan #{case.index}: {len(case.plan)} -> "
                  f"{len(result.minimal)} actions "
                  f"({result.runs} runs, oracles "
                  f"{sorted(result.target_oracles)})", file=out)
            for line in result.minimal.describe().splitlines():
                print(f"  {line}", file=out)
            artifact = ReproArtifact(
                seed=case.seed, config=config, plan=result.minimal,
                injection=args.inject,
                failures=result.final.failures if result.final else {},
                note=f"explore seed={args.seed} plan #{case.index}, "
                     f"shrunk from {len(case.plan)} actions")
            # Exploration and shrinking run untraced (speed); one extra
            # replay of the minimal plan captures the trace tail the
            # artifact embeds so the frozen repro explains itself.
            traced = artifact.replay(trace_limit=TRACE_TAIL_EVENTS)
            artifact.trace_tail = traced.trace_tail
            path = artifact.write(
                f"{args.repro_dir}/{default_name(artifact)}")
            print(f"  repro written: {path}", file=out)
        dropped = len(report.failures) - shrunk
        if dropped > 0:
            print(f"({dropped} further failing plan(s) not shrunk; "
                  f"raise MAX_SHRINKS or shrink by hand)", file=out)
        return 1
    finally:
        disarm_injection(previous)


def replay_main(args, out: "TextIO | None" = None) -> int:
    """Replay one frozen artifact; exit 1 iff it still fails, 2 if
    the file is not an artifact."""
    out = out if out is not None else sys.stdout
    try:
        artifact = ReproArtifact.load(args.replay)
    except PlanError as error:
        print(f"repro chaos: {error}", file=sys.stderr)
        return 2
    print(f"replaying {args.replay}", file=out)
    print(f"  seed={artifact.seed} actions={len(artifact.plan)} "
          f"injection={artifact.injection or 'none'}", file=out)
    if artifact.note:
        print(f"  note: {artifact.note}", file=out)
    trace_limit = TRACE_TAIL_EVENTS if artifact.trace_tail else 0
    result = artifact.replay(trace_limit=trace_limit)
    print(f"  {result.summary()}", file=out)
    if artifact.trace_tail:
        verdict = ("matches recorded"
                   if result.trace_tail == artifact.trace_tail
                   else "DIFFERS from recorded")
        print(f"  trace tail: {len(result.trace_tail)} events, "
              f"{verdict}", file=out)
    for oracle, messages in sorted(result.failures.items()):
        for message in messages[:3]:
            print(f"  [{oracle}] {message}", file=out)
    recorded = tuple(sorted(artifact.failures))
    if not recorded and not result.failed:
        print("clean, as recorded", file=out)
        return 0
    if result.failed:
        verdict = ("reproduced" if result.failed_oracles == recorded
                   else f"fails {sorted(result.failed_oracles)} but was "
                        f"recorded failing {list(recorded)}")
        print(f"still failing: {verdict}", file=out)
        return 1
    print("clean: the recorded failure no longer reproduces", file=out)
    return 0


def main(args, out: "TextIO | None" = None) -> int:
    if getattr(args, "baseline", None):
        refused = [f"--{name.replace('_', '-')}"
                   for name, off in DVP_ONLY.items()
                   if getattr(args, name, off) != off]
        if refused:
            print(f"--baseline explores a commit-protocol baseline; "
                  f"{', '.join(refused)} configure{'s' * (len(refused) == 1)} "
                  f"DvP machinery it does not have", file=out or sys.stdout)
            return 2
    if args.replay:
        return replay_main(args, out=out)
    return explore_main(args, out=out)


__all__ = ["config_from_args", "explore_main", "replay_main", "main",
           "MAX_SHRINKS"]
