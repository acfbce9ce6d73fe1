"""One benchmark run, in a fresh single-threaded child process.

``run.py`` starts this file once per run, one child at a time, with a
JSON spec as its only argument, and reads one JSON object back from
the last line of stdout. The phases, in order:

1. *set-up* — ``import repro``, build the system / front-end / views,
   register items (reported as ``setup_s``, measured from the moment
   the parent spawned this process);
2. *generation* — the suite's own seeded inputs and the binding of
   every call (``gen_s``; subtracted from set-up, never timed);
3. *timed region* — ``Run.drive()``: run + settle, nothing else;
4. *checks* — conservation, accounting and the workload's own check,
   outside the timed region.

With ``"trace": true`` the span wrappers of ``tracing.py`` go on before
anything is built and come off after the checks.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from collections import Counter
from typing import Any


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list (0 if empty)."""
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _exact(run: Any) -> dict[str, Any]:
    """Everything that must repeat exactly for a (seed, scale)."""
    tally = run.tally
    results = run.results
    committed = sum(1 for result in results if result.committed)
    reasons = Counter(result.reason for result in results
                      if not result.committed)
    # Ops decided inside their submit call (a work=0 local commit, a
    # view-served read) take no sim time at all. They are most ops of
    # read_mostly and chaos_explore, so the median is over the ops
    # that did take time; the tail is over every committed op — it is
    # never 0, and a percentile that sits on the edge between two
    # modes of a small sample jumps from seed to seed.
    every = sorted(run.latencies)
    timed = [value for value in every if value > 0]
    decided = len(results) + run.shed
    delivery = sorted(tally.samples["vm.delivery"])
    waits = sorted(tally.samples["serve.wait"])
    return {
        "attempted": run.attempted,
        "committed": committed,
        "aborted": len(results) - committed,
        "timeouts": reasons["timeout"],
        "abort_reasons": dict(sorted(reasons.items())),
        "shed": run.shed,
        "unserved": run.unserved,
        # Never decided: wiped by an injected crash, or a defect.
        "lost": run.attempted - decided - run.unserved,
        "instant_commits": len(every) - len(timed),
        "latency_samples": len(timed),
        "sim_latency_p50": percentile(timed, 50),
        "sim_latency_p99": percentile(every, 99),
        "requests_sent": sum(result.requests_sent for result in results),
        "systems": tally.systems,
        "steps": tally.steps,
        "pending_start": run.pending_start,
        "pending": tally.pending,
        "log_records": tally.log_records,
        "counters": dict(sorted(tally.counters.items())),
        "payloads": dict(sorted(tally.payloads.items())),
        "vm_delivery_p50": percentile(delivery, 50),
        "vm_delivery_p99": percentile(delivery, 99),
        "queue_wait_p50": percentile(waits, 50),
        "queue_wait_p99": percentile(waits, 99),
        "evidence": run.evidence,
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    import inputs as suite_inputs

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    started = time.perf_counter()
    generated = suite_inputs.GENERATORS[spec["workload"]](
        spec["seed"], spec["scale"])
    digest = generated.sha256()
    if spec.get("sabotage"):
        generated = suite_inputs.sabotage(generated)
    gen_s = time.perf_counter() - started
    pinned = spec.get("pinned_sha256")
    if pinned is not None and digest != pinned:
        print(f"input digest {digest} differs from the pinned {pinned}: "
              "the workload changed; re-pin inputs.sha256.json in a PR "
              "of its own", file=sys.stderr)
        return 3

    run = workloads.BUILDERS[spec["workload"]](generated, spec["seed"])
    gen_s += run.bind_s
    if tracer is not None:
        run.fingerprint_events()
    # The generated inputs are a large heap the program never made:
    # collect the set-up garbage, then freeze what is left so the
    # collector does not re-scan the suite's input list on every full
    # collection of the timed region (it cost a third of the wall, and
    # most of its noise). Both are billed to input generation.
    started = time.perf_counter()
    gc.collect()
    gc.freeze()
    gen_s += time.perf_counter() - started
    setup_s = time.perf_counter() - spec["spawned_at"] - gen_s
    if tracer is not None:
        tracer.start_region()
    collections = _gc_collections()
    cpu_started = time.process_time()
    run.drive()
    cpu_s = time.process_time() - cpu_started - run.calibration_cpu_s
    # The calibration units between the slices are not the region.
    wall_s = sum(run.slice_walls)
    collections = _gc_collections() - collections
    account = tracer.end_region() if tracer is not None else None

    failures = run.check()
    if tracer is not None:
        account["fingerprint"] = run.fingerprint()
        if spec.get("trace_out"):
            tracer.write_records(spec["trace_out"])
        account["leftovers"] = tracer.uninstall()
        if account["leftovers"]:
            failures.append(
                f"trace wrappers left behind: {account['leftovers']}")

    print(json.dumps({
        "workload": spec["workload"], "seed": spec["seed"],
        "scale": spec["scale"], "traced": tracer is not None,
        "input_sha256": digest,
        "setup_s": setup_s, "gen_s": gen_s, "wall_s": wall_s,
        "slice_walls": run.slice_walls,
        "calibration": run.calibration,
        "cpu_s": cpu_s, "gc_collections": collections,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verify_full_ms": run.verify_full_ms,
        "failures": failures,
        "exact": _exact(run),
        "trace": account,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
