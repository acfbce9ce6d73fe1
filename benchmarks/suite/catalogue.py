"""Names, units, clocks and directions of everything the suite reports.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; this table is what the code emits. ``run.py --selftest``
asserts the two agree name for name and unit for unit.

Two clocks, and every number says which: **host** time is what the
researcher, CI and tier-1 wait for (noisy); **sim** time is what the
modelled DvP protocol would take (bit-repeatable for a seed). ``exact``
marks deterministic counts and ratios of counts — for a seed they
repeat exactly, so two commits compare exactly.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    clock: str          # "host" | "sim" | "exact"
    better: str         # "lower" | "higher"
    about: str
    #: End-to-end only: share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: float | None = None


WORKLOADS: tuple[tuple[str, str], ...] = (
    ("transfer_fanout",
     "Every commit pulls remote value as Vm over the unbundled network: "
     "net + core.vm + core.site dominate. The ROADMAP hot-path scenario."),
    ("transfer_bundled",
     "Identical inputs through the bundling Outbox with ack coalescing: "
     "a Network.send win must show on transfer_fanout and cost nothing "
     "here."),
    ("local_commit",
     "The paper's sweet spot and the bypass workload: every op commits "
     "from the local quota with 0 envelopes, so transport, recheck, "
     "serving and reads changes must not move it."),
    ("serving_knee",
     "E14's 64-site cell at its saturation knee: the only workload "
     "through serving, the sharded kernel, net.sync, the partitioner "
     "and Conc2 lock queues; queue wait is in the latency."),
    ("read_mostly",
     "Bounded-staleness view reads beside writes that feed the views: a "
     "write-path change that taxes the observer feed, or a reads change "
     "that slows writes, shows here and nowhere else."),
    ("chaos_explore",
     "1200 short faulty runs judged by the oracles instead of one long "
     "steady run: construction, crash, recovery, retransmit and "
     "verify_full costs, which is what CI spends its minutes on."),
)

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "host", "lower",
           "child start to timed region: import repro, build the "
           "system, front-end and views, register items; excludes the "
           "suite's own input generation (host.gen_s)", 0.25),
    Metric("ops_per_s", "1/s", "host", "higher",
           "committed ops per quiet-host second of the timed region "
           "(run + settle; per slice, the fastest of the runs)",
           0.15),
    Metric("peak_rss_mb", "MiB", "host", "lower",
           "ru_maxrss of the child process", 0.10),
    Metric("sim_latency_p50", "sim_units", "sim", "lower",
           "median sim time from submit/enqueue to decision, over "
           "committed ops that took any sim time", 0.10),
    Metric("sim_latency_p99", "sim_units", "sim", "lower",
           "99th percentile of the same time over every committed op",
           0.25),
)

LAYERS: tuple[str, ...] = (
    "sim", "net", "core.vm", "core.site", "core.transactions",
    "core.locks", "core.fragments", "storage", "core.invariants",
    "core.partition", "core.recovery", "serving", "reads", "metrics",
    "obs", "chaos",
)

_LAYER_PAIRS = tuple(
    metric for layer in LAYERS for metric in (
        Metric(f"{layer}.self_us_per_op", "us/op", "host", "lower",
               f"host self time in {layer} per committed op (traced run)"),
        Metric(f"{layer}.calls_per_op", "1/op", "exact", "lower",
               f"boundary calls into {layer} per committed op"),
    ))

PER_LAYER: tuple[Metric, ...] = _LAYER_PAIRS + (
    Metric("sim.events_per_op", "1/op", "exact", "lower",
           "kernel events executed per committed op"),
    Metric("sim.ns_per_event", "ns", "host", "lower",
           "untraced wall of the timed region / kernel events"),
    Metric("sim.cancel_share", "ratio", "exact", "lower",
           "events cancelled / events scheduled"),
    Metric("net.sent_per_op", "1/op", "exact", "lower",
           "real envelopes sent per committed op"),
    Metric("net.delivered_share", "ratio", "exact", "higher",
           "envelopes delivered / envelopes sent"),
    Metric("net.payloads_per_envelope", "ratio", "exact", "higher",
           "logical payloads / real envelopes (1 without bundling)"),
    Metric("core.vm.created_per_op", "1/op", "exact", "lower",
           "virtual messages created per committed op"),
    Metric("core.vm.retransmit_ratio", "ratio", "exact", "lower",
           "Vm retransmissions / Vm created: wasted work when no "
           "message is ever lost"),
    Metric("core.vm.acks_per_op", "1/op", "exact", "lower",
           "explicit Vm acks sent per committed op"),
    Metric("core.vm.acks_suppressed_share", "ratio", "exact", "higher",
           "acks a same-instant piggyback made redundant / acks due"),
    Metric("core.vm.delivery_p50", "sim_units", "sim", "lower",
           "median sim time from Vm create to accept"),
    Metric("core.vm.delivery_p99", "sim_units", "sim", "lower",
           "99th percentile sim time from Vm create to accept"),
    Metric("core.transactions.rechecks_per_op", "1/op", "exact", "lower",
           "Transaction.recheck calls per committed op"),
    Metric("core.transactions.requests_per_op", "1/op", "exact", "lower",
           "redistribution requests sent per committed op"),
    Metric("core.transactions.abort_share", "ratio", "exact", "lower",
           "aborted ops / attempted ops"),
    Metric("core.transactions.timeout_share", "ratio", "exact", "lower",
           "ops aborted by timeout / attempted ops"),
    Metric("core.locks.refused_share", "ratio", "exact", "lower",
           "lock acquisitions refused or queued / attempts"),
    Metric("core.fragments.value_reads_per_op", "1/op", "exact", "lower",
           "FragmentStore.value calls per committed op"),
    Metric("storage.log_appends_per_op", "1/op", "exact", "lower",
           "stable-log forces per committed op"),
    Metric("storage.page_reads_per_op", "1/op", "exact", "lower",
           "PageStore.read calls per committed op"),
    Metric("storage.page_writes_per_op", "1/op", "exact", "lower",
           "PageStore.write calls per committed op"),
    Metric("core.invariants.verify_full_ms", "ms", "host", "lower",
           "host time of one verify_full() scan"),
    Metric("core.recovery.us_per_recover", "us", "host", "lower",
           "host time of one recover_site() (0 when none ran)"),
    Metric("serving.shed_share", "ratio", "exact", "lower",
           "requests shed by admission control / attempted"),
    Metric("serving.queue_wait_p50", "sim_units", "sim", "lower",
           "median sim time a dispatched request spent queued"),
    Metric("serving.queue_wait_p99", "sim_units", "sim", "lower",
           "99th percentile sim time spent queued"),
    Metric("reads.served_share", "ratio", "exact", "higher",
           "committed view reads served from a certificate / "
           "committed view reads"),
    Metric("reads.fallback_share", "ratio", "exact", "lower",
           "view reads that escalated to the fan-out / view reads"),
    Metric("reads.refresh_msgs_per_op", "1/op", "exact", "lower",
           "ViewRefresh payloads sent per committed op"),
    Metric("reads.stale_max", "sim_units", "sim", "lower",
           "worst staleness any served certificate admitted"),
    Metric("chaos.plans_per_s", "1/s", "host", "higher",
           "fault plans explored per host second"),
    Metric("chaos.build_us_per_plan", "us", "host", "lower",
           "DvPSystem.__init__ + add_item host time per plan"),
    Metric("chaos.oracle_us_per_plan", "us", "host", "lower",
           "Oracle.check host time per plan"),
    Metric("host.wall_s", "s", "host", "lower",
           "wall of the untraced timed region"),
    Metric("host.cpu_s", "s", "host", "lower",
           "process CPU time over the untraced timed region"),
    Metric("host.sched_share", "ratio", "host", "lower",
           "1 - cpu / wall: how much of the region the shared host "
           "took away"),
    Metric("host.gc_collections", "count", "host", "lower",
           "garbage collections during the timed region"),
    Metric("host.gen_s", "s", "host", "lower",
           "the suite's own input generation and call binding"),
    Metric("trace.overhead", "ratio", "host", "lower",
           "traced wall / median untraced wall - 1"),
    Metric("trace.coverage", "ratio", "host", "higher",
           "sum of span self time / traced wall (target >= 0.9)"),
)
