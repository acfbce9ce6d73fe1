"""Turn raw child runs into named metrics, and compare result files.

A *run* is the JSON object ``worker.py`` prints. :func:`assemble` folds
the untraced runs (host samples) and the traced run (layer account)
of one workload into a result: the five end-to-end metrics — value,
every sample, quartiles, spread, stability — and the 72 per-layer
metrics. Every ratio is 0 when its base is 0.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

from calibrate import REFERENCE_UNIT_S
from catalogue import END_TO_END, LAYERS, PER_LAYER, Metric

#: A host-clock per-layer metric "moved" between two result files when
#: it changed by more than this share of the old value; exact and
#: sim-clock metrics moved when they differ at all.
HOST_MOVE = 0.10

#: Calibration units on each side of a slice that vote on the host's
#: speed around it.
SPEED_WINDOW = 8


def ratio(value: float, base: float) -> float:
    return value / base if base else 0.0


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def spread(samples: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(samples)
    return ratio(q3 - q1, abs(median))


def worsening(metric: Metric, old: float, new: float) -> float:
    """How much worse *new* is than *old*, as a share of *old*
    (negative = better)."""
    change = ratio(new - old, abs(old))
    return change if metric.better == "lower" else -change


# -- one workload -------------------------------------------------------------

def check_repeatable(runs: list[dict[str, Any]]) -> list[str]:
    """Sim metrics and work counters must be equal across all runs,
    the traced one included — which also proves the trace wrappers
    are passive."""
    reference = json.dumps(runs[0]["exact"], sort_keys=True)
    failures = []
    for index, run in enumerate(runs[1:], start=1):
        if json.dumps(run["exact"], sort_keys=True) == reference:
            continue
        kind = "traced" if run["traced"] else f"repeat {index}"
        differing = sorted(
            key for key in run["exact"]
            if run["exact"][key] != runs[0]["exact"].get(key))
        failures.append(f"{kind} run diverged from run 0 in {differing}")
    return failures


def host_speed(calibration: list[float], index: int) -> float:
    """How slow the host ran around slice *index*, relative to the
    reference host: the median calibration unit within a second or so
    of it (a median, so one unit hit by a burst does not count)."""
    window = calibration[max(0, index - SPEED_WINDOW):
                         index + SPEED_WINDOW + 2]
    return statistics.median(window) / REFERENCE_UNIT_S


def quiet_wall(timed: list[dict[str, Any]]) -> float:
    """The timed region's wall on a quiet reference host.

    Each slice's wall is first divided by the host's speed around it
    (slow drift); then, per slice, the fastest of the runs is taken
    (bursts): every run of a seed does the same work in slice k, and
    host noise only ever adds time."""
    scaled = [[wall / host_speed(run["calibration"], index)
               for index, wall in enumerate(run["slice_walls"])]
              for run in timed]
    return sum(map(min, zip(*scaled)))


def _samples(timed: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Per-run values: the noise account behind each estimate."""
    exact = timed[0]["exact"]
    return {
        "setup_s": [run["setup_s"] for run in timed],
        "ops_per_s": [ratio(exact["committed"], run["wall_s"])
                      for run in timed],
        "peak_rss_mb": [run["peak_rss_mb"] for run in timed],
        "sim_latency_p50": [exact["sim_latency_p50"]],
        "sim_latency_p99": [exact["sim_latency_p99"]],
    }


def _estimates(timed: list[dict[str, Any]]) -> dict[str, float]:
    """The reported value of each end-to-end metric."""
    samples = _samples(timed)
    values = {name: statistics.median(values)
              for name, values in samples.items()}
    values["ops_per_s"] = ratio(timed[0]["exact"]["committed"],
                                quiet_wall(timed))
    return values


def _stability(timed: list[dict[str, Any]]) -> dict[str, float]:
    """How far dropping any one run moves each estimate, as a share of
    it: the estimate cannot resolve a change smaller than that."""
    full = _estimates(timed)
    if len(timed) < 2:
        return dict.fromkeys(full, 0.0)
    dropped = [_estimates(timed[:index] + timed[index + 1:])
               for index in range(len(timed))]
    return {name: ratio(max(d[name] for d in dropped)
                        - min(d[name] for d in dropped), abs(value))
            for name, value in full.items()}


def _per_layer(timed: list[dict[str, Any]],
               traced: dict[str, Any]) -> dict[str, float]:
    exact = timed[0]["exact"]
    counters, evidence = exact["counters"], exact["evidence"]
    ops = exact["committed"]
    account = traced["trace"]
    spans = account["spans"]
    wall = statistics.median(run["wall_s"] for run in timed)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    def total_us(*names: str) -> float:
        return sum(spans.get(name, {}).get("total_ns", 0)
                   for name in names) / 1e3

    values: dict[str, float] = {}
    for layer in LAYERS:
        own = [span for span in spans.values() if span["layer"] == layer]
        values[f"{layer}.self_us_per_op"] = ratio(
            sum(span["self_ns"] for span in own) / 1e3, ops)
        values[f"{layer}.calls_per_op"] = ratio(
            sum(span["count"] for span in own), ops)

    scheduled = exact["pending_start"] + calls("EventQueue.push")
    acks, suppressed = counters.get("vm.acks", 0), counters.get(
        "vm.acks_suppressed", 0)
    plans = evidence.get("plans", 0)
    verify_ms = [run["verify_full_ms"] for run in timed
                 if run["verify_full_ms"] is not None]
    values.update({
        "sim.events_per_op": ratio(exact["steps"], ops),
        "sim.ns_per_event": ratio(wall * 1e9, exact["steps"]),
        "sim.cancel_share": ratio(
            scheduled - exact["steps"] - exact["pending"], scheduled),
        "net.sent_per_op": ratio(counters.get("net.sent", 0), ops),
        "net.delivered_share": ratio(counters.get("net.delivered", 0),
                                     counters.get("net.sent", 0)),
        "net.payloads_per_envelope": ratio(
            sum(exact["payloads"].values()), counters.get("net.sent", 0)),
        "core.vm.created_per_op": ratio(counters.get("vm.created", 0), ops),
        "core.vm.retransmit_ratio": ratio(
            counters.get("vm.retransmissions", 0),
            counters.get("vm.created", 0)),
        "core.vm.acks_per_op": ratio(acks, ops),
        "core.vm.acks_suppressed_share": ratio(suppressed,
                                               acks + suppressed),
        "core.vm.delivery_p50": exact["vm_delivery_p50"],
        "core.vm.delivery_p99": exact["vm_delivery_p99"],
        "core.transactions.rechecks_per_op": ratio(
            calls("Transaction.recheck"), ops),
        "core.transactions.requests_per_op": ratio(
            exact["requests_sent"], ops),
        "core.transactions.abort_share": ratio(exact["aborted"],
                                               exact["attempted"]),
        "core.transactions.timeout_share": ratio(exact["timeouts"],
                                                 exact["attempted"]),
        "core.locks.refused_share": ratio(account["lock_refused"],
                                          account["lock_attempts"]),
        "core.fragments.value_reads_per_op": ratio(
            calls("FragmentStore.value"), ops),
        "storage.log_appends_per_op": ratio(exact["log_records"], ops),
        "storage.page_reads_per_op": ratio(calls("PageStore.read"), ops),
        "storage.page_writes_per_op": ratio(calls("PageStore.write"),
                                            ops),
        # The long runs time their one final scan untraced; a chaos
        # plan's scans are inside the region, so only spans see them.
        "core.invariants.verify_full_ms": (
            statistics.median(verify_ms) if verify_ms else ratio(
                total_us("ConservationAuditor.verify_full") / 1e3,
                calls("ConservationAuditor.verify_full"))),
        "core.recovery.us_per_recover": ratio(
            total_us("recover_site"), calls("recover_site")),
        "serving.shed_share": ratio(exact["shed"], exact["attempted"]),
        "serving.queue_wait_p50": exact["queue_wait_p50"],
        "serving.queue_wait_p99": exact["queue_wait_p99"],
        "reads.served_share": ratio(evidence.get("reads_served", 0),
                                    evidence.get("reads_committed", 0)),
        "reads.fallback_share": ratio(evidence.get("reads_fallback", 0),
                                      evidence.get("reads", 0)),
        "reads.refresh_msgs_per_op": ratio(
            exact["payloads"].get("ViewRefresh", 0), ops),
        "reads.stale_max": evidence.get("stale_max", 0.0),
        "chaos.plans_per_s": ratio(plans, wall),
        "chaos.build_us_per_plan": ratio(
            total_us("DvPSystem.__init__", "DvPSystem.add_item"), plans),
        "chaos.oracle_us_per_plan": ratio(
            total_us(*(name for name in spans
                       if name.endswith("Oracle.check"))), plans),
        "host.wall_s": wall,
        "host.cpu_s": statistics.median(run["cpu_s"] for run in timed),
        "host.sched_share": statistics.median(
            1.0 - ratio(run["cpu_s"], run["wall_s"]) for run in timed),
        "host.gc_collections": statistics.median(
            run["gc_collections"] for run in timed),
        "host.gen_s": statistics.median(run["gen_s"] for run in timed),
        "trace.overhead": ratio(traced["wall_s"], wall) - 1.0,
        "trace.coverage": ratio(
            sum(span["self_ns"] for span in spans.values()) / 1e9,
            traced["wall_s"]),
    })
    return values


def assemble(timed: list[dict[str, Any]],
             traced: dict[str, Any] | None) -> dict[str, Any]:
    """One workload's result from its child runs."""
    runs = timed + ([traced] if traced is not None else [])
    failures = [failure for run in runs for failure in run["failures"]]
    failures += check_repeatable(runs)
    exact = timed[0]["exact"]
    correct = not failures
    refused = (exact["aborted"] + exact["shed"] + exact["unserved"]
               + exact["lost"])
    result: dict[str, Any] = {
        "workload": timed[0]["workload"],
        "correct": correct,
        "failures": failures,
        "attempted": exact["attempted"],
        "committed": exact["committed"],
        # Typed refusals — shed, aborted, timed out, wiped by an
        # injected crash — are correct outcomes of the protocol; an op
        # *fails* when its run's checks do.
        "refused": refused,
        "failed": 0 if correct else exact["attempted"],
        "latency_samples": exact["latency_samples"],
        "generator_lateness": 0,
        "input_sha256": timed[0]["input_sha256"],
        "end_to_end": {},
        "per_layer": {},
        "exact": exact,
        "runs": [dict(
            {key: run[key] for key in (
                "setup_s", "gen_s", "wall_s", "cpu_s", "gc_collections",
                "peak_rss_mb")},
            host_speed=statistics.median(run["calibration"])
            / REFERENCE_UNIT_S) for run in timed],
    }
    if len({len(run["slice_walls"]) for run in timed}) != 1:
        raise ValueError("runs of one seed clocked different slices")
    samples, values = _samples(timed), _estimates(timed)
    stability = _stability(timed)
    for metric in END_TO_END:
        q1, median, q3 = quartiles(samples[metric.name])
        result["end_to_end"][metric.name] = {
            "unit": metric.unit, "clock": metric.clock,
            "better": metric.better, "bound": metric.bound,
            "value": values[metric.name],
            "samples": samples[metric.name],
            "q1": q1, "median": median, "q3": q3,
            "spread": spread(samples[metric.name]),
            "stability": stability[metric.name],
            # An estimate that one run can move by more than the bound
            # cannot resolve a change of that size.
            "unresolved": stability[metric.name] > metric.bound,
        }
    if traced is not None:
        values = _per_layer(timed, traced)
        result["per_layer"] = {
            metric.name: {"unit": metric.unit, "clock": metric.clock,
                          "value": values[metric.name]}
            for metric in PER_LAYER}
        result["traced_wall_s"] = traced["wall_s"]
        result["trace"] = {key: traced["trace"].get(key) for key in (
            "fingerprint", "missing", "leftovers", "records_kept")}
    return result


def render(result: dict[str, Any]) -> list[str]:
    """Every metric of one workload by name, with its unit."""
    lines = [
        f"== {result['workload']}: "
        f"{'correct' if result['correct'] else 'INCORRECT'}; "
        f"{result['attempted']} ops attempted, {result['committed']} "
        f"committed, {result['refused']} refused, {result['failed']} "
        f"failed; latency over {result['latency_samples']} timed (p50) / "
        f"{result['committed']} committed (p99) ops; "
        "generator lateness 0 (arrivals are kernel events at their due "
        "sim time)"]
    lines += [f"   FAILED CHECK: {failure}"
              for failure in result["failures"]]
    for name, entry in result["end_to_end"].items():
        note = ""
        if len(entry["samples"]) > 1:
            note = (f"  [runs: q1 {entry['q1']:.6g}, median "
                    f"{entry['median']:.6g}, q3 {entry['q3']:.6g}, spread "
                    f"{entry['spread']:.1%}; one run moves the estimate "
                    f"{entry['stability']:.1%}, bound {entry['bound']:.0%}]")
        if entry["unresolved"]:
            note += "  UNRESOLVED"
        lines.append(f"   {name:<36} {entry['value']:>14.6g} "
                     f"{entry['unit']:<10} {entry['clock']:<5}{note}")
    for name, entry in result["per_layer"].items():
        lines.append(f"   {name:<36} {entry['value']:>14.6g} "
                     f"{entry['unit']:<10} {entry['clock']}")
    return lines


# -- two result files ---------------------------------------------------------

def compare(old: dict[str, Any], new: dict[str, Any]) -> tuple[list[str],
                                                                bool]:
    """Rows for ``run.py --compare``; the flag says something got
    worse by more than its bound."""
    lines = [f"{'workload':<17} {'metric':<17} {'old':>12} {'new':>12} "
             f"{'delta (of old)':>16} {'bound':>6}  verdict"]
    any_worse = False
    moved: list[str] = []
    shared = [name for name in old["workloads"] if name in new["workloads"]]
    for name in shared:
        before, after = old["workloads"][name], new["workloads"][name]
        for metric in END_TO_END:
            a = before["end_to_end"][metric.name]
            b = after["end_to_end"][metric.name]
            worse = worsening(metric, a["value"], b["value"])
            if worse > metric.bound:
                verdict = "worse"
                any_worse = True
            elif a["unresolved"] or b["unresolved"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            delta = ratio(b["value"] - a["value"], abs(a["value"]))
            lines.append(
                f"{name:<17} {metric.name:<17} {a['value']:>12.6g} "
                f"{b['value']:>12.6g} {delta:>+9.2%} of {a['value']:<.4g}"
                f" {metric.bound:>6.0%}  {verdict}")
        if before["input_sha256"] != after["input_sha256"]:
            moved.append(f"{name:<17} inputs differ: the workload itself "
                         "changed")
        if (before.get("trace") or {}).get("fingerprint") != \
                (after.get("trace") or {}).get("fingerprint"):
            moved.append(f"{name:<17} trace fingerprint differs: events "
                         "were reordered")
        if before["exact"]["evidence"].get("digest") != \
                after["exact"]["evidence"].get("digest"):
            moved.append(f"{name:<17} exploration digest differs")
        for metric in PER_LAYER:
            a = before["per_layer"].get(metric.name)
            b = after["per_layer"].get(metric.name)
            if a is None or b is None:
                continue
            change = ratio(b["value"] - a["value"], abs(a["value"]))
            if metric.clock == "host":
                if abs(change) <= HOST_MOVE:
                    continue
            elif a["value"] == b["value"]:
                continue
            moved.append(
                f"{name:<17} {metric.name:<36} {a['value']:>12.6g} -> "
                f"{b['value']:<12.6g} {change:>+9.2%} of {a['value']:.4g} "
                f"({metric.clock})")
    lines.append("")
    lines.append(f"per-layer rows that moved (host clock: > {HOST_MOVE:.0%}"
                 "; exact and sim clocks: at all):")
    lines += moved or ["  none"]
    return lines, any_worse
