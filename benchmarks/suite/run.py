"""The benchmark suite: six workloads, five end-to-end metrics and a
traced per-layer account (see README.md beside this file).

One command runs every workload, checks its outputs and prints every
metric by name with its unit::

    python benchmarks/suite/run.py [--workload W] [--seed N]
        [--seconds S] [--repeats R] [--out FILE]

Each run is a fresh single-threaded child process (``worker.py``), one
at a time. Per workload: R timed runs with tracing off, then one
traced run; host metrics report median, quartiles and every sample,
and sim metrics and work counters must be equal across all of them.

The driver's contract is the same measurement cut to one workload::

    run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` makes three untraced runs and prints the end-to-end
metrics; ``--trace 1`` makes one untraced and one traced run and
prints the per-layer metrics.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

Also: ``--compare A.json B.json`` (two result files, one verdict per
workload x end-to-end metric, non-zero exit on ``worse``) and
``--selftest`` (every workload at ~1/20 scale: metric names and units
against BENCHMARK.json, repeatability, wrapper removal, and each
workload's own check fired by deliberately broken inputs).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Any

import report
from catalogue import END_TO_END, PER_LAYER, WORKLOADS
from inputs import REFERENCE_SEED

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
#: Everything the suite writes lands here (relative to the cwd).
OUT_DIR = pathlib.Path("bench-out")

#: Timed runs behind one ``--trace 0`` result: the driver's time cap
#: leaves room for three, the fewest that give a median.
CONTRACT_REPEATS = 3
SELFTEST_SCALE = 0.05


class ChildFailed(RuntimeError):
    """A child exited non-zero or printed no result."""


def spawn(spec: dict[str, Any]) -> dict[str, Any]:
    """Run one child to completion; returns the object it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # perf_counter is CLOCK_MONOTONIC: one clock for parent and child,
    # so the child can time its set-up from the moment it was spawned.
    spec = dict(spec, src=str(SRC), spawned_at=time.perf_counter())
    done = subprocess.run(
        [sys.executable, str(SUITE / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, env=env)
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildFailed(
            f"{spec['workload']} child exited {done.returncode}:\n"
            f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def pinned_digest(workload: str, seed: int, scale: float) -> str | None:
    """The recorded input digest, when these are the pinned inputs."""
    pins = json.loads((SUITE / "inputs.sha256.json").read_text())
    if seed != pins["seed"] or scale != pins["scale"]:
        return None
    return pins["sha256"][workload]


def measure(workload: str, seed: int, scale: float, repeats: int,
            traced: bool) -> dict[str, Any]:
    """All child runs of one workload, folded into one result."""
    base = {"workload": workload, "seed": seed, "scale": scale,
            "trace": False,
            "pinned_sha256": pinned_digest(workload, seed, scale)}
    timed = [spawn(base) for _ in range(repeats)]
    traced_run = None
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        traced_run = spawn(dict(
            base, trace=True,
            trace_out=str(OUT_DIR / f"trace-{workload}.jsonl")))
    return report.assemble(timed, traced_run)


# -- the driver's contract ----------------------------------------------------

def contract_line(result: dict[str, Any], traced: bool) -> str:
    entries = result["per_layer" if traced else "end_to_end"]
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in entries.items()}})


def run_contract(args: argparse.Namespace, scale: float) -> int:
    if len(args.workload) != 1:
        print("--trace needs exactly one --workload", file=sys.stderr)
        return 2
    traced = args.trace == 1
    # The per-layer metrics carry no bound: one untraced run beside
    # the traced one is enough to check the counters and the overhead.
    result = measure(args.workload[0], args.seed, scale,
                     repeats=args.repeats or (1 if traced
                                              else CONTRACT_REPEATS),
                     traced=traced)
    print("\n".join(report.render(result)))
    print(contract_line(result, traced))
    return 0


# -- the whole suite ----------------------------------------------------------

def host_account() -> dict[str, Any]:
    def git(*command: str) -> str | None:
        try:
            done = subprocess.run(["git", *command], cwd=ROOT, text=True,
                                  capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "commit": git("rev-parse", "HEAD"),
            "dirty": bool(status) if status is not None else None}


def run_suite(args: argparse.Namespace, scale: float) -> int:
    repeats = args.repeats or 5
    if repeats < 3:
        print("--repeats below 3 cannot give quartiles", file=sys.stderr)
        return 2
    names = args.workload or [name for name, _why in WORKLOADS]
    payload: dict[str, Any] = {
        "suite": "dvp-bench-suite/1", "host": host_account(),
        "seed": args.seed, "seconds": args.seconds, "scale": scale,
        "repeats": repeats, "workloads": {}}
    print(f"host: {json.dumps(payload['host'])}")
    print(f"seed {args.seed}, scale {scale:g}, {repeats} timed runs + 1 "
          "traced run per workload, one child at a time")
    for name in names:
        result = measure(name, args.seed, scale, repeats, traced=True)
        payload["workloads"][name] = result
        print("\n".join(report.render(result)))
    results = payload["workloads"]
    fanout, bundled = (results.get("transfer_fanout"),
                       results.get("transfer_bundled"))
    if fanout and bundled and \
            fanout["committed"] != bundled["committed"]:
        bundled["correct"] = False
        bundled["failed"] = bundled["attempted"]
        bundled["failures"].append(
            f"committed {bundled['committed']} ops, transfer_fanout "
            f"{fanout['committed']}, on identical inputs")
        print(f"   FAILED CHECK: {bundled['failures'][-1]}")
    unresolved = [f"{name}.{metric}" for name, result in results.items()
                  for metric, entry in result["end_to_end"].items()
                  if entry["unresolved"]]
    for entry in unresolved:
        print(f"WARNING: {entry} is unresolved — its samples spread wider "
              "than its bound; the host is too noisy to trust the median")
    out = pathlib.Path(args.out) if args.out else \
        OUT_DIR / f"suite-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"results written to {out}")
    incorrect = [name for name, result in results.items()
                 if not result["correct"]]
    if incorrect:
        print(f"INCORRECT: {', '.join(incorrect)}")
    return 1 if incorrect else 0


def run_compare(old_path: str, new_path: str) -> int:
    old = json.loads(pathlib.Path(old_path).read_text())
    new = json.loads(pathlib.Path(new_path).read_text())
    for label, side in (("old", old), ("new", new)):
        host = side["host"]
        print(f"{label}: commit {host['commit']}"
              f"{' (dirty)' if host['dirty'] else ''}, seed {side['seed']}, "
              f"{side['repeats']} repeats, {host['nproc']} cores, "
              f"Python {host['python']}")
    lines, any_worse = report.compare(old, new)
    print("\n".join(lines))
    return 1 if any_worse else 0


# -- self-test ----------------------------------------------------------------

def check_manifest() -> list[str]:
    """BENCHMARK.json must say exactly what the catalogue emits."""
    manifest = json.loads(MANIFEST.read_text())
    problems = []
    if [(w["name"], w["why"]) for w in manifest["workloads"]] \
            != list(WORKLOADS):
        problems.append("workloads differ from catalogue.WORKLOADS")
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in manifest["end_to_end"]]
    if declared != [(m.name, m.unit, m.better, m.bound)
                    for m in END_TO_END]:
        problems.append("end_to_end differs from catalogue.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"])
                for m in manifest["per_layer"]]
    if declared != [(m.name, m.unit, m.better) for m in PER_LAYER]:
        problems.append("per_layer differs from catalogue.PER_LAYER")
    return problems


def run_selftest() -> int:
    started = time.perf_counter()
    problems = check_manifest()
    for name, _why in WORKLOADS:
        result = measure(name, REFERENCE_SEED, SELFTEST_SCALE, repeats=2,
                         traced=True)
        # measure() already failed the result if counters differed
        # between the two runs and the traced run, or if a wrapper was
        # left installed.
        problems += [f"{name}: {failure}" for failure in result["failures"]]
        for traced, metrics in ((False, END_TO_END), (True, PER_LAYER)):
            emitted = json.loads(contract_line(result, traced))["metrics"]
            expected = {metric.name: metric.unit for metric in metrics}
            got = {key: entry["unit"] for key, entry in emitted.items()}
            if got != expected:
                problems.append(f"{name}: emitted metrics {sorted(got)} "
                                "differ from the catalogue")
        broken = spawn({"workload": name, "seed": REFERENCE_SEED,
                        "scale": SELFTEST_SCALE, "trace": False,
                        "sabotage": True})
        if not broken["failures"]:
            problems.append(f"{name}: deliberately broken inputs passed "
                            "every check")
        print(f"{name}: {'ok' if result['correct'] else 'FAILED'}; broken "
              f"twin caught by: {broken['failures'][:1]}")
    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"SELFTEST PROBLEM: {problem}")
    print(f"selftest {'FAILED' if problems else 'passed'} in {elapsed:.1f} s")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=[],
                        choices=[name for name, _why in WORKLOADS],
                        help="repeatable; default: all six")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one timed region on the reference "
                             "host; sizes scale linearly from "
                             "BENCHMARK.json's run_seconds")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per workload (suite: 5, never "
                             "below 3; --trace 0: 3; --trace 1: 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: one workload, one JSON "
                             "result line (0: end-to-end, 1: per-layer)")
    parser.add_argument("--out", default=None,
                        help="suite results file "
                             "(default bench-out/suite-seed<N>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return run_compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.selftest:
        return run_selftest()
    run_seconds = json.loads(MANIFEST.read_text())["run_seconds"]
    if args.seconds is None:
        args.seconds = float(run_seconds)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    scale = args.seconds / run_seconds
    if args.trace is not None:
        return run_contract(args, scale)
    return run_suite(args, scale)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as failure:
        print(failure, file=sys.stderr)
        sys.exit(4)
