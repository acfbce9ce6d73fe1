"""Command-line interface.

    python -m repro list                      # experiment index
    python -m repro run E3 [--full]           # run one experiment
    python -m repro run all [--full]          # run every experiment
    python -m repro run E6 --full --jobs 4    # fan cells over 4 workers
    python -m repro chaos --budget 200 --seed 7   # fault-plan search
    python -m repro chaos --replay tests/repros/<name>.json
    python -m repro trace tests/repros/<name>.json --site S1 --kind vm.

``run`` uses the quick presets by default (seconds); ``--full``
reproduces the tables recorded in EXPERIMENTS.md. Each table is judged
by its experiment's own ``claims``: a violated claim is named on stderr
and the exit status is 1 (stdout is the tables, nothing else). Each
experiment is a grid of independent cells: ``--jobs N`` computes them
on N worker processes, and results are memoized under ``--cache-dir``
(default ``.repro-cache``) so repeat runs with unchanged parameters
replay instantly; ``--no-cache`` recomputes everything.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.chaos.runner import SCENARIOS
from repro.harness import experiments


def _cmd_list(_args) -> int:
    for experiment_id in experiments.all_ids():
        module = experiments.get(experiment_id)
        first_line = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{experiment_id:>4}  {first_line}")
    return 0


def _cmd_run(args) -> int:
    from repro.harness.parallel import GridEvaluator, ResultCache

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    evaluator = GridEvaluator(jobs=args.jobs, cache=cache)
    targets = (experiments.all_ids() if args.experiment.lower() == "all"
               else [args.experiment])
    violated = False
    for experiment_id in targets:
        try:
            module = experiments.get(experiment_id)
        except KeyError:
            print(f"unknown experiment {experiment_id!r}; "
                  f"try one of {', '.join(experiments.all_ids())}",
                  file=sys.stderr)
            return 2
        params = module.Params() if args.full else module.Params.quick()
        table = module.run(params, evaluate=evaluator)
        print(table)
        print()
        for claim in module.claims(table, params):
            print(f"{module.EXPERIMENT}: claim violated: {claim}",
                  file=sys.stderr)
            violated = True
    if cache is not None:
        print(f"[cells: {evaluator.cache_hits} cached, "
              f"{evaluator.computed} computed "
              f"(jobs={args.jobs}, cache={cache.root})]",
              file=sys.stderr)
    return 1 if violated else 0


def _cmd_chaos(args) -> int:
    from repro.harness import chaos as chaos_harness

    if args.budget < 1:
        print("--budget must be >= 1", file=sys.stderr)
        return 2
    return chaos_harness.main(args)


def _cmd_trace(args) -> int:
    from repro.chaos.artifact import ReproArtifact
    from repro.chaos.plan import PlanError
    from repro.obs import TraceFilter, event_to_json, render_timeline

    if args.limit < 1:
        print("--limit must be >= 1", file=sys.stderr)
        return 2
    try:
        artifact = ReproArtifact.load(args.artifact)
    except PlanError as error:
        print(f"repro trace: {error}", file=sys.stderr)
        return 2
    # The replayed system stays open: the trace bus is read below, and
    # the process ends with the command.
    result = artifact.replay(trace_limit=args.limit,
                             trace_kernel=args.kernel)
    narrowed = TraceFilter(site=args.site, item=args.item,
                           txn=args.txn, kind=args.kind)
    events = list(narrowed.apply(result.system.sim.obs.events()))
    if args.jsonl:
        for event in events:
            print(event_to_json(event))
        return 0
    truncated = result.system.sim.obs.truncated
    title = (f"trace of {args.artifact} "
             f"(seed={artifact.seed} actions={len(artifact.plan)}"
             + (f", {truncated} earlier events beyond --limit"
                if truncated else "") + ")")
    print(render_timeline(events, title=title))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Data-value Partitioning and "
                    "Virtual Messages' (PODS 1990)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiments") \
        .set_defaults(func=_cmd_list)

    run_parser = commands.add_parser("run", help="run an experiment")
    run_parser.add_argument("experiment",
                            help="experiment id (E1..E16) or 'all'")
    run_parser.add_argument("--full", action="store_true",
                            help="full preset (EXPERIMENTS.md numbers)")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes for grid cells "
                                 "(default 1: in-process)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="do not read or write the result cache")
    run_parser.add_argument("--cache-dir", default=".repro-cache",
                            help="result cache directory "
                                 "(default .repro-cache)")
    run_parser.set_defaults(func=_cmd_run)

    chaos_parser = commands.add_parser(
        "chaos",
        help="deterministic fault-plan search with oracle checking "
             "(see docs/CHAOS.md)")
    chaos_parser.add_argument("--budget", type=int, default=200,
                              metavar="N",
                              help="fault plans to sample and run "
                                   "(default 200)")
    chaos_parser.add_argument("--seed", type=int, default=0,
                              help="master seed; every plan and run "
                                   "seed derives from it (default 0)")
    chaos_parser.add_argument("--shrink", action="store_true",
                              help="delta-debug failing plans to "
                                   "locally-minimal repros and write "
                                   "JSON artifacts")
    chaos_parser.add_argument("--replay", metavar="PATH", default=None,
                              help="replay a frozen repro artifact "
                                   "instead of exploring")
    chaos_parser.add_argument("--inject", default=None,
                              choices=["write", "crash",
                                       "duplicate-grant",
                                       "run-first-seq",
                                       "view-staleness"],
                              help="arm a test-only injection (oracle "
                                   "self-test): a conservation leak, a "
                                   "wave that grants an item once per "
                                   "naming or a recovery that restores "
                                   "an accept run's first seq (both "
                                   "need --waves), or a view service "
                                   "that republishes stale snapshots "
                                   "as fresh")
    chaos_parser.add_argument("--repro-dir", default="tests/repros",
                              help="where --shrink writes artifacts "
                                   "(default tests/repros)")
    chaos_parser.add_argument("--rebalance", default=None,
                              choices=["static-rr", "demand-weighted",
                                       "pull"],
                              help="run a rebalance daemon at every "
                                   "site with this policy (default: "
                                   "no daemons)")
    chaos_parser.add_argument("--rebalance-period", type=float,
                              default=6.0, metavar="T",
                              help="daemon tick period in virtual time "
                                   "(default 6.0)")
    chaos_parser.add_argument("--bundle-delay", type=float, default=None,
                              metavar="T",
                              help="enable transport bundling with this "
                                   "flush window in virtual time "
                                   "(default: bundling off)")
    chaos_parser.add_argument("--partitioner", default="all",
                              choices=["all", "hash", "range",
                                       "consistent"],
                              help="placement directory partitioner "
                                   "(default 'all': every site owns "
                                   "every item, the seed behaviour)")
    chaos_parser.add_argument("--replicas", type=int, default=None,
                              metavar="K",
                              help="owners per item under a non-'all' "
                                   "partitioner (default: every site)")
    chaos_parser.add_argument(
        "--serving", default=None,
        choices=["random", "least-queue", "locality", "view-aware"],
        help="route chaos arrivals through the serving front-end "
             "(router + bounded queues + admission control) instead "
             "of direct site submission (default: off)")
    chaos_parser.add_argument(
        "--serving-depth", type=int, default=8,
        help="serving queue depth bound per site (default: 8)")
    chaos_parser.add_argument(
        "--serving-inflight", type=int, default=2,
        help="serving service slots per site (default: 2)")
    chaos_parser.add_argument(
        "--views", type=float, default=None, metavar="BOUND",
        help="run the bounded-staleness view service and give a slice "
             "of the read workload ReadViewOp(bound=BOUND) (see "
             "docs/READS.md; default: views off, the seed read path)")
    chaos_parser.add_argument(
        "--view-refresh", type=float, default=4.0, metavar="T",
        help="view refresh (write-behind publish) period in virtual "
             "time (default: 4.0)")
    chaos_parser.add_argument(
        "--waves", type=float, default=0.0, metavar="SHARE",
        help="turn this share of arrivals into 5-op transfer waves, "
             "each short of several items at once (default: 0, the "
             "single-item spec stream)")
    chaos_parser.add_argument("--reshard", action="store_true",
                              help="sample elastic-topology motifs too "
                                   "(site joins, decommissions, replica "
                                   "reshards; see docs/PARTITIONING.md)")
    chaos_parser.add_argument("--baseline", default=None,
                              choices=[name for name in SCENARIOS
                                       if name != "dvp"],
                              help="explore a commit-protocol baseline "
                                   "instead of the DvP system: same "
                                   "explorer, shrinker and artifacts; "
                                   "transfer workload; conservation + "
                                   "agreement + liveness oracles")
    chaos_parser.add_argument("--sites", type=int, default=4)
    chaos_parser.add_argument("--items", type=int, default=2)
    chaos_parser.add_argument("--txns", type=int, default=24)
    chaos_parser.add_argument("--duration", type=float, default=80.0)
    chaos_parser.add_argument("--timeout", type=float, default=10.0)
    chaos_parser.set_defaults(func=_cmd_chaos)

    trace_parser = commands.add_parser(
        "trace",
        help="replay a chaos repro artifact with structured tracing "
             "and render its timeline (see docs/OBSERVABILITY.md)")
    trace_parser.add_argument("artifact",
                              help="path to a dvp-chaos-repro/1 JSON file")
    trace_parser.add_argument("--site", default=None,
                              help="only events mentioning this site "
                                   "(as site, src, or dst)")
    trace_parser.add_argument("--item", default=None,
                              help="only events about this item")
    trace_parser.add_argument("--txn", default=None,
                              help="only events for this transaction id "
                                   "or label")
    trace_parser.add_argument("--kind", default=None,
                              help="event-kind prefix filter, e.g. 'vm.' "
                                   "or 'txn.abort'")
    trace_parser.add_argument("--jsonl", action="store_true",
                              help="dump canonical JSONL instead of an "
                                   "aligned timeline")
    trace_parser.add_argument("--limit", type=int, default=65536,
                              metavar="N",
                              help="ring-buffer retention while "
                                   "replaying (default 65536)")
    trace_parser.add_argument("--kernel", action="store_true",
                              help="include one kernel.step event per "
                                   "executed simulator event (verbose)")
    trace_parser.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Timelines and JSONL dumps get piped into head/grep; a closed
        # pipe is a normal way for the read side to say "enough".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # conventional 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
