"""Commit-protocol showdown bench (PR 9; committed as
``BENCH_pr9.json``).

Three gates, one per claim the PR exists to produce:

1. **Paxos survives the coordinator** — in a 5-site
   crash-between-prepare-and-decide scenario, Paxos Commit's
   participants reach the decision (and release locks) while the
   coordinator is still dark, where 2PC's participant stays in doubt
   holding its lock for the whole outage.
2. **Path-sensitive local commit** — with an item consolidated away
   from the submitting sites, the Soethout fast path commits the
   provably-local subset (increments) without forwarding: local-commit
   counter > 0 and strictly fewer cross-site messages than the same
   workload with the fast path off, with the DvP auditor green and the
   same final value either way.
3. **DvP availability dominates** — on the E15 crash+partition window
   at matched load, DvP's in-window availability (overall and
   worst-group) is >= every coordinated baseline (2PC, Paxos Commit,
   quorum), strictly greater somewhere.

``--smoke`` runs the same gates with the E15 quick preset (10 sites
only) — the CI baselines job.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e15_commit.py [--out FILE]
    PYTHONPATH=src python benchmarks/bench_e15_commit.py --smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import asdict

from repro.baselines.common import BaselineConfig
from repro.baselines.paxoscommit import PaxosCommitSystem
from repro.baselines.twopc import TwoPCSystem
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
    TransferOp,
)
from repro.harness.experiments.e15_commit import PROTOCOLS, Params, _run_one
from repro.hybrid import HybridSystem
from repro.net.link import LinkConfig

SITES_5 = ["S0", "S1", "S2", "S3", "S4"]

#: Coordinator crash instant: after the participant's prepare landed
#: (t=2 at delay 1) but before its vote reaches the coordinator (t=3).
CRASH_AT = 2.5
OUTAGE_END = 60.0


def _coordinated(cls):
    system = cls(list(SITES_5), seed=11,
                 link=LinkConfig(base_delay=1.0, jitter=0.0),
                 config=BaselineConfig(txn_timeout=8.0, retry_period=3.0))
    system.add_item("acct_0", "S0", 100)
    system.add_item("acct_1", "S1", 100)
    return system


def gate_coordinator_crash() -> tuple[list[str], dict]:
    """Gate 1: paxos decides through the crash; 2PC stays blocked."""
    failures: list[str] = []
    detail: dict = {}
    for name, cls in (("2pc", TwoPCSystem), ("paxos", PaxosCommitSystem)):
        system = _coordinated(cls)
        results = []
        system.sim.at(1.0, lambda s=system: s.submit(
            "S0", TransactionSpec(ops=(TransferOp("acct_0", "acct_1", 5),),
                                  label="xfer"),
            results.append))
        system.sim.at(CRASH_AT, lambda s=system: s.crash("S0"))
        system.sim.run_until(OUTAGE_END)  # S0 stays dark throughout
        blocked_during = list(system.blocked())
        system.recover("S0")
        system.sim.run_until(OUTAGE_END + 120.0)
        detail[name] = {
            "blocked_during_outage": len(blocked_during),
            "blocked_after_recovery": len(system.blocked()),
            "total_after": system.total_value(),
        }
        if name == "paxos":
            if blocked_during:
                failures.append(
                    f"paxos: participants still blocked during the "
                    f"coordinator outage: {blocked_during}")
            committed = any(record.record[0] == "participant-commit"
                            for record in system.sites["S1"].log.scan())
            detail[name]["participant_committed"] = committed
            if not committed:
                failures.append("paxos: S1 never learned the commit "
                                "during the outage")
            if system.blocked():
                failures.append("paxos: still blocked after recovery")
            if system.total_value() != 200:
                failures.append(f"paxos: conservation broke: "
                                f"{system.total_value()} != 200")
        else:
            if not blocked_during:
                failures.append(
                    "2pc: participant was NOT blocked during the "
                    "coordinator outage — the contrast scenario is "
                    "broken")
    return failures, detail


def gate_path_sensitive() -> tuple[list[str], dict]:
    """Gate 2: the fast path commits locally and saves messages."""
    failures: list[str] = []
    observed: dict = {}
    finals = {}
    for path_sensitive in (False, True):
        system = DvPSystem(SystemConfig(
            sites=["S0", "S1", "S2", "S3"], seed=5, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0, jitter=0.0)))
        system.add_item("acct", CounterDomain(), total=400)
        hybrid = HybridSystem(system, path_sensitive=path_sensitive)
        system.sim.at(1.0, lambda h=hybrid: h.consolidate("acct", "S0"))
        # Start past the consolidation drain: the full read holds the
        # remote fragment locks until its release round, and a local
        # fast-path commit would collide with them where a forwarded
        # one would not — which is workload skew, not the comparison.
        time_at = 25.0
        for _round in range(10):
            for site in ("S1", "S2", "S3"):
                spec = TransactionSpec(ops=(IncrementOp("acct", 2),),
                                       label="inc")
                system.sim.at(time_at, lambda s=site, sp=spec,
                              h=hybrid: h.submit(s, sp, None))
                time_at += 1.0
            spec = TransactionSpec(ops=(DecrementOp("acct", 1),),
                                   label="dec")
            system.sim.at(time_at,
                          lambda sp=spec, h=hybrid: h.submit("S1", sp,
                                                             None))
            time_at += 1.0
        system.run_until(time_at + 60.0)
        system.auditor.assert_ok()
        key = "on" if path_sensitive else "off"
        observed[key] = {
            "local_commits": hybrid.local_commits,
            "forwards": hybrid.forwarded,
            "messages": system.network.total_sent,
        }
        finals[key] = sum(system.fragment_values("acct").values())
    if observed["on"]["local_commits"] <= 0:
        failures.append("fast path never fired: local_commits == 0")
    if not observed["on"]["messages"] < observed["off"]["messages"]:
        failures.append(
            f"no message saving: {observed['on']['messages']} (on) not "
            f"below {observed['off']['messages']} (off)")
    if not observed["on"]["forwards"] < observed["off"]["forwards"]:
        failures.append("fast path did not reduce forwards")
    if finals["on"] != finals["off"]:
        failures.append(f"final values diverge: {finals}")
    return failures, observed


def gate_availability(params: Params) -> tuple[list[str], list[dict]]:
    """Gate 3: DvP >= every coordinated protocol on the E15 window."""
    failures: list[str] = []
    rows: list[dict] = []
    for site_count in params.site_counts:
        stats = {}
        for protocol in PROTOCOLS:
            begin = time.perf_counter()
            stats[protocol] = _run_one(protocol, params, site_count)
            stats[protocol]["wall_s"] = round(
                time.perf_counter() - begin, 2)
            print(f"  n={site_count:3d} {protocol:<10s} "
                  f"avail={100 * stats[protocol]['availability']:5.1f}% "
                  f"worst={100 * stats[protocol]['worst_group']:5.1f}% "
                  f"p99={stats[protocol]['p99']:6.2f}", file=sys.stderr)
        rows.append({"sites": site_count, "stats": stats})
        dvp = stats["dvp"]
        strictly = False
        for rival in ("2pc", "paxos", "quorum"):
            for metric in ("availability", "worst_group"):
                if dvp[metric] < stats[rival][metric]:
                    failures.append(
                        f"n={site_count}: dvp {metric} "
                        f"{dvp[metric]:.3f} below {rival} "
                        f"{stats[rival][metric]:.3f}")
                if dvp[metric] > stats[rival][metric]:
                    strictly = True
        if not strictly:
            failures.append(
                f"n={site_count}: dvp never strictly dominates — the "
                f"fault window is inert")
    return failures, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_e15_commit.json")
    parser.add_argument("--smoke", action="store_true",
                        help="E15 quick preset (10 sites) — the CI "
                             "baselines job")
    args = parser.parse_args(argv)

    params = Params.quick() if args.smoke else Params()
    begin = time.perf_counter()
    print("gate 1: coordinator crash contrast", file=sys.stderr)
    crash_failures, crash_detail = gate_coordinator_crash()
    print("gate 2: path-sensitive local commit", file=sys.stderr)
    ps_failures, ps_detail = gate_path_sensitive()
    print(f"gate 3: E15 availability (sites={params.site_counts})",
          file=sys.stderr)
    avail_failures, avail_rows = gate_availability(params)
    wall = time.perf_counter() - begin

    failures = crash_failures + ps_failures + avail_failures
    payload = {
        "bench": "e15_commit",
        "smoke": args.smoke,
        "params": asdict(params),
        "wall_s": round(wall, 1),
        "coordinator_crash": crash_detail,
        "path_sensitive": ps_detail,
        "availability": avail_rows,
        "gates": [
            "paxos decides through coordinator crash; 2pc blocks",
            "path-sensitive local commits > 0 with fewer messages "
            "than always-forward",
            "dvp availability >= each coordinated baseline "
            "(strictly greater somewhere)",
        ],
        "gate_failures": failures,
    }
    path = pathlib.Path(args.out)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({wall:.0f}s)", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
