"""Which functions under ``src/`` does a non-test entry point reach?

    python tests/callers.py                      # every group, then check
    python tests/callers.py --groups quick chaos --keep DIR

Every ``def`` under ``src/repro`` is a function here (lambdas are
not). Each group of entry points — CLI commands, examples and the
benchmark self-test, all run as the user runs them — is run in child
processes under a ``sys.settrace`` hook that a generated
``sitecustomize.py`` on ``PYTHONPATH`` installs, so processes they
start (the benchmark's workers, a fork-started pool) are traced too.
A traced process appends each ``src/`` function it enters to a file of
its own, the first time it enters it.

The *unreached* functions are then diffed, both ways, against the
verdict block of docs/LEDGER.md: a function no group reaches must be
there, and an entry must name a function no base group reaches. A
verdict says why the function stays although no base entry point
calls it:

* ``interface`` — an abstract method, a ``Protocol`` stub, or a base
  class's default hook that the classes which run override;
* ``reference — <test id>`` — that test compares against it;
* ``reached only by <groups> — <test id>`` — exactly those of the
  conditional groups (``full``) reach it, and the test covers it;
* ``awaits item <N>`` — ROADMAP item N (or its part, ``3(a)``) gives it
  a caller or deletes it.

``tests/test_options_have_callers.py`` checks the block's form on
every tier-1 run; this script checks it against a traced run (CI's
``callers`` job).
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = ROOT / "docs" / "LEDGER.md"
BEGIN, END = "<!-- callers:begin -->", "<!-- callers:end -->"

#: Groups every function must be reached by or carry a verdict for.
BASE_GROUPS = ("quick", "chaos")
#: Groups a ``reached only by`` verdict may name.
CONDITIONAL_GROUPS = ("full",)

HOOK = '''\
import os
import sys
import threading

_ROOT = {root!r}
_OUT = {out!r}
_seen = set()
_sink = [None, None]


def _trace(frame, event, arg):
    code = frame.f_code
    path = code.co_filename
    if path.startswith(_ROOT):
        key = (path, code.co_firstlineno)
        if key not in _seen:
            _seen.add(key)
            pid = os.getpid()
            if _sink[0] != pid:
                _sink[0] = pid
                _sink[1] = open(os.path.join(_OUT, f"{{pid}}.txt"), "a",
                                buffering=1)
            _sink[1].write(f"{{path}}:{{key[1]}}\\n")
    return None


sys.settrace(_trace)
threading.settrace(_trace)
'''


# -- what exists under src/ ---------------------------------------------------

def functions() -> dict[tuple[str, int], str]:
    """Every ``def`` under ``src/repro``: (file, first line of the
    code object, i.e. of its first decorator) -> ``module:qualname``,
    the qualname spelled as Python spells ``__qualname__``."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(SRC).with_suffix("")
        parts = relative.parts[:-1] if relative.name == "__init__" \
            else relative.parts
        module = ".".join(parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        decorator.lineno
                        for decorator in child.decorator_list])
                    found[(str(path), first)] = \
                        f"{module}:{prefix}{child.name}"
                    visit(child, prefix + child.name + ".<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def known_tests() -> set[str]:
    """``path::Class::test`` and ``path::test`` for every test function
    under ``tests/`` (parametrization ids are not part of the name)."""
    ids: set[str] = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        name = path.relative_to(ROOT).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                ids.add(f"{name}::{node.name}")
            elif isinstance(node, ast.ClassDef):
                ids.update(f"{name}::{node.name}::{item.name}"
                           for item in node.body
                           if isinstance(item, ast.FunctionDef))
    return ids


# -- the verdict block --------------------------------------------------------

ROW = re.compile(r"^\| `([\w.]+:[\w.<>]+)` \| (.+) \|$")
TEST_ID = re.compile(r"^`(tests/test_\w+\.py(?:::\w+)+)(?:\[[^\]]*\])?`$")


def ledger() -> list[tuple[str, str]]:
    """The (function, verdict) rows of docs/LEDGER.md's verdict block,
    in order."""
    text = LEDGER.read_text()
    block = text[text.index(BEGIN) + len(BEGIN):text.index(END)]
    rows = []
    for line in block.strip().splitlines()[2:]:  # header, rule
        match = ROW.match(line)
        if match is None:
            raise ValueError(f"not a verdict row: {line!r}")
        rows.append((match.group(1), match.group(2)))
    return rows


def parse_verdict(verdict: str) -> tuple[str, tuple[str, ...], str | None]:
    """(kind, groups, test id) of one verdict; ValueError if it is not
    one of the four forms."""
    if verdict == "interface":
        return "interface", (), None
    if re.fullmatch(r"awaits item \d+(\([a-z]\))?", verdict):
        return "awaits", (), None
    head, _, test = verdict.partition(" — ")
    match = TEST_ID.match(test)
    if match is None:
        raise ValueError(f"no test id in {verdict!r}")
    if head == "reference":
        return "reference", (), match.group(1)
    groups = tuple(re.findall(r"`(\w+)`", head))
    if (groups and head == "reached only by "
            + ", ".join(f"`{group}`" for group in groups)
            and set(groups) <= set(CONDITIONAL_GROUPS)):
        return "reached", groups, match.group(1)
    raise ValueError(f"not a verdict: {verdict!r}")


# -- the traced run -----------------------------------------------------------

def _artifacts() -> list[str]:
    return sorted(str(path.relative_to(ROOT))
                  for path in (ROOT / "tests" / "repros").glob("*.json"))


#: The chaos explorations, each ``chaos --seed 7 --budget 15`` plus its
#: flags; the plain one runs 60 plans, enough for a clock-skew action
#: to hit a site with a transaction waiting on its timeout.
CHAOS_FLAGS = [
    ["--budget", "60"], ["--rebalance", "static-rr"], ["--rebalance", "demand-weighted"],
    ["--rebalance", "pull"], ["--bundle-delay", "2.0"],
    ["--partitioner", "hash"], ["--partitioner", "range"],
    ["--serving", "random"], ["--serving", "least-queue"],
    ["--serving", "locality"], ["--serving", "view-aware"],
    ["--views", "12"], ["--views", "12", "--serving", "view-aware"],
    ["--partitioner", "consistent", "--replicas", "2", "--reshard"],
    ["--partitioner", "hash", "--reshard"],
    ["--waves", "0.5"], ["--baseline", "paxos"], ["--baseline", "2pc"]]


def entry_points(group: str, scratch: Path) -> list[list[str]]:
    """The command lines of one group, run from the repository root."""
    repro = [sys.executable, "-m", "repro"]
    if group == "quick":
        return ([repro + ["list"], repro + ["run", "all"]]
                + [[sys.executable, str(path)] for path
                   in sorted((ROOT / "examples").glob("*.py"))]
                + [[sys.executable, "benchmarks/suite/run.py",
                    "--selftest"]])
    if group == "chaos":
        repros = str(scratch / "repros")
        commands = [repro + ["chaos", "--seed", "7", "--budget", "15"]
                    + flags for flags in CHAOS_FLAGS]
        commands += [repro + ["chaos", "--budget", "15", "--seed", "7",
                              "--inject", mode, "--shrink",
                              "--repro-dir", repros] + extra
                     for mode, extra in (("write", []), ("crash", []),
                                         ("duplicate-grant",
                                          ["--waves", "0.5"]),
                                         ("run-first-seq",
                                          ["--waves", "0.5"]),
                                         ("view-staleness",
                                          ["--views", "12"]))]
        for artifact in _artifacts():
            commands += [repro + ["chaos", "--replay", artifact],
                         repro + ["trace", artifact],
                         repro + ["trace", artifact, "--jsonl"],
                         repro + ["trace", artifact, "--kernel"]]
        return commands
    if group == "full":
        return [repro + ["run", "all", "--full"]]
    raise ValueError(group)


def trace(group: str, scratch: Path, jobs: int) -> set[tuple[str, int]]:
    """Run one group under the hook: the (file, line) keys it entered."""
    out = scratch / group
    out.mkdir(parents=True)
    hook = scratch / f"hook-{group}"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        HOOK.format(root=str(PACKAGE) + os.sep, out=str(out)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook), str(SRC)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(command):
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        # A chaos run that finds (or is made to find) a failing plan
        # exits 1; only a crash is a broken entry point.
        if done.returncode not in (0, 1) or "Traceback" in done.stderr:
            raise SystemExit(f"{' '.join(command)} failed:\n"
                             f"{done.stderr[-2000:]}")

    with ThreadPoolExecutor(jobs) as pool:
        list(pool.map(run, entry_points(group, scratch)))
    reached = set()
    for path in out.glob("*.txt"):
        for line in path.read_text().splitlines():
            name, _, lineno = line.rpartition(":")
            reached.add((name, int(lineno)))
    return reached


def diff(reached: dict[str, set[str]]) -> list[str]:
    """Traced reach (group -> function names) against the ledger."""
    names = set(functions().values())
    base = set().union(*(reached[group] for group in BASE_GROUPS))
    rows = dict(ledger())
    found = []
    for name in sorted(names - base - set(rows)):
        by = [group for group in CONDITIONAL_GROUPS
              if name in reached.get(group, ())]
        found.append(f"{name}: unreached and not in the ledger"
                     + (f" (reached by {', '.join(by)})" if by else ""))
    for name, verdict in rows.items():
        _kind, groups, _test = parse_verdict(verdict)
        if name in base:
            found.append(f"{name}: in the ledger but reached by a base "
                         "group — a stale entry")
            continue
        if not set(CONDITIONAL_GROUPS) <= set(reached):
            continue  # a partial run judges only the base groups
        by = tuple(group for group in CONDITIONAL_GROUPS
                   if name in reached[group])
        if by != groups:
            found.append(f"{name}: reached by {list(by) or 'nothing'}, "
                         f"the ledger says {verdict!r}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", nargs="+",
                        default=list(BASE_GROUPS + CONDITIONAL_GROUPS),
                        choices=BASE_GROUPS + CONDITIONAL_GROUPS)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--keep", default=None, metavar="DIR",
                        help="keep the traces here (default: a temporary "
                             "directory)")
    args = parser.parse_args(argv)
    if not set(BASE_GROUPS) <= set(args.groups):
        parser.error(f"--groups must include {' and '.join(BASE_GROUPS)}")
    with tempfile.TemporaryDirectory() as temporary:
        scratch = Path(args.keep or temporary)
        by_key = functions()
        reached = {}
        for group in args.groups:
            keys = trace(group, scratch, args.jobs)
            reached[group] = {by_key[key] for key in keys if key in by_key}
            print(f"{group}: {len(reached[group])} of {len(by_key)} "
                  "functions reached", file=sys.stderr)
    found = diff(reached)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
