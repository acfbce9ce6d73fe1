"""The structured observability layer: TraceBus, typed events, JSON
lines, metrics registry, timeline rendering, chaos trace tails."""

import hashlib
import json
import pathlib

import pytest

from repro.chaos import TRACE_TAIL_EVENTS, ReproArtifact
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
    TransferOp,
)
from repro.metrics.stats import summarize
from repro.net.link import LinkConfig
from repro.net.outbox import BundlingConfig
from repro.obs import (
    EVENT_TYPES,
    KernelStep,
    MetricsRegistry,
    TraceBus,
    TraceFilter,
    VmCreate,
    event_to_json,
    render_timeline,
)
from repro.serving import ServingConfig, ServingFrontend
from repro.sim.kernel import Simulator

REPRO = (pathlib.Path(__file__).parent / "repros" /
         "chaos_auditor-serial_crash_seed16220008651848166696_1act.json")


def event_from_json(line):
    """The event one canonical JSON line describes."""
    payload = json.loads(line)
    return EVENT_TYPES[payload.pop("kind")](**payload)


def build_system(**kwargs):
    kwargs.setdefault("sites", ["A", "B", "C"])
    kwargs.setdefault("txn_timeout", 10.0)
    kwargs.setdefault("retransmit_period", 2.0)
    kwargs.setdefault("link", LinkConfig(base_delay=1.0))
    system = DvPSystem(SystemConfig(seed=11, **kwargs))
    system.add_item("x", CounterDomain(), total=90)
    return system


class TestTraceBus:
    def test_disabled_by_default_and_emits_nothing(self):
        system = build_system()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)))
        system.run_for(30.0)
        assert not system.sim.obs.enabled
        assert system.sim.obs.emitted == 0
        assert system.sim.obs.events() == []

    def test_enabled_captures_protocol_lifecycle(self):
        system = build_system()
        system.sim.obs.enable()
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)),
                      results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        kinds = {event.kind for event in system.sim.obs.events()}
        # The decrement needs remote value: every family must appear.
        assert {"txn.submit", "txn.locks-granted", "txn.redistribute",
                "txn.commit", "vm.create", "vm.transmit", "vm.accept",
                "vm.ack", "net.send", "net.deliver",
                "site.log-force"} <= kinds

    def test_ring_truncation_keeps_most_recent(self):
        bus = TraceBus()
        bus.enable(ring_limit=3)
        for index in range(10):
            bus.emit(KernelStep(t=float(index), label=f"e{index}"))
        assert bus.emitted == 10
        assert bus.truncated == 7
        assert [event.label for event in bus.events()] == ["e7", "e8", "e9"]

    def test_ring_limit_validated(self):
        with pytest.raises(ValueError):
            TraceBus().enable(ring_limit=0)

    def test_clear_resets_counts(self):
        bus = TraceBus()
        bus.enable()
        bus.emit(KernelStep(t=0.0, label="e"))
        bus.clear()
        assert bus.emitted == 0
        assert bus.events() == []

    def test_event_order_matches_trace_fingerprint_order(self):
        """KernelStep events and the kernel's fingerprint trace are the
        same sequence: the structured trace is a faithful, typed view
        of exactly what the fingerprint hashes."""
        def run(collect_obs: bool):
            system = build_system()
            system.sim.enable_trace()
            if collect_obs:
                system.sim.obs.enable(kernel_steps=True)
            system.submit("A", TransactionSpec(
                ops=(DecrementOp("x", 40),)))
            system.run_for(30.0)
            return system

        traced = run(collect_obs=True)
        steps = [(event.t, event.label)
                 for event in traced.sim.obs.events()
                 if isinstance(event, KernelStep)]
        assert steps == traced.sim.trace
        # And observation is passive: same fingerprint without the bus.
        untraced = run(collect_obs=False)
        assert (traced.sim.trace_fingerprint()
                == untraced.sim.trace_fingerprint())


class TestJsonl:
    def test_round_trip(self):
        system = build_system()
        system.sim.obs.enable()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)))
        system.run_for(30.0)
        events = system.sim.obs.events()
        assert events
        lines = [event_to_json(event) for event in events]
        assert [event_from_json(line) for line in lines] == events

    def test_canonical_lines_are_stable(self):
        event = VmCreate(t=1.5, site="A", dst="B", item="x", seq=3,
                         amount=7, vm_kind="transfer", txn="A#1")
        line = event_to_json(event)
        assert line == ('{"amount":7,"dst":"B","item":"x",'
                        '"kind":"vm.create","seq":3,"site":"A",'
                        '"t":1.5,"txn":"A#1","vm_kind":"transfer"}')
        assert event_from_json(line) == event


class TestMetricsRegistry:
    def test_label_key_is_canonical_without_sorting(self):
        from repro.obs.registry import _label_key
        assert _label_key({}) == ()
        assert _label_key({"site": "A"}) == (("site", "A"),)
        assert _label_key({"site": "A", "outcome": 3}) == \
            _label_key({"outcome": 3, "site": "A"}) == \
            (("outcome", "3"), ("site", "A"))
        assert _label_key({"c": 1, "a": 2, "b": 3}) == \
            (("a", "2"), ("b", "3"), ("c", "1"))
        registry = MetricsRegistry()
        assert registry.counter("n", src="A", dst="B") is \
            registry.counter("n", dst="B", src="A")

    def test_close_drops_marks_and_keeps_the_rest(self):
        system = bundled_four_site_run()
        metrics = system.sim.metrics
        metrics.mark("pending", 1.0)  # nothing will collect it
        rows = metric_rows(metrics)
        system.close()
        assert metrics._marks == {}
        assert metric_rows(metrics) == rows

    def test_counters_memoized_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("vm.created", site="A")
        assert registry.counter("vm.created", site="A") is a
        b = registry.counter("vm.created", site="B")
        assert b is not a
        a.inc()
        a.inc(2)
        assert a.value == 3
        assert registry.total("vm.created") == 3

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("vm.delivery", src="A", dst="B")
        for value in (1.0, 2.0, 3.0):
            h.observe(value)
        summary = summarize(h.values)
        assert summary.count == 3
        assert summary.mean == 2.0

    def test_marks_pair_up_across_components(self):
        registry = MetricsRegistry()
        registry.mark(("vm", "A", "B", 1), 5.0)
        assert registry.elapsed_since_mark(("vm", "A", "B", 1), 8.0) == 3.0
        # consumed: a second take finds nothing
        assert registry.elapsed_since_mark(("vm", "A", "B", 1), 9.0) is None

    def test_system_metrics_flow_end_to_end(self):
        system = build_system()
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)),
                      results.append)
        system.run_for(30.0)
        metrics = system.sim.metrics
        assert results[0].committed
        assert metrics.total("vm.created") >= 1
        assert metrics.total("vm.accepted") == metrics.total("vm.created")
        assert metrics.total("net.sent") > 0
        deliveries = metrics.histograms("vm.delivery")
        # One delivery-latency sample per accepted Vm (channels that
        # never delivered keep empty histograms — that's fine).
        assert sum(len(h.values) for h in deliveries) == \
            metrics.total("vm.accepted")
        decisions = [h for h in metrics.histograms("txn.decision")
                     if dict(h.labels)["outcome"] == "committed"]
        assert sum(len(h.values) for h in decisions) == 1

    def test_per_site_counters_are_labelled_by_site(self):
        system = build_system()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)))
        system.run_for(30.0)
        metrics = system.sim.metrics
        # A was short of 40: its peers created the Vm, A accepted them.
        accepted = {site: metrics.counter("vm.accepted", site=site).value
                    for site in system.sites}
        assert accepted["A"] == metrics.total("vm.created") >= 1
        assert accepted["B"] == accepted["C"] == 0
        assert metrics.counter("vm.created", site="A").value == 0
        assert metrics.counter("net.dropped.partition").value == 0
        assert metrics.counter("net.dropped.loss").value == 0

    def test_counters_survive_recovery_rebuild(self):
        """Recovery replaces the VmManager object; the registry-backed
        per-site counters must keep their cumulative values."""
        system = build_system()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)))
        system.run_for(30.0)
        accepted = system.sim.metrics.counter("vm.accepted", site="A")
        accepted_before = accepted.value
        assert accepted_before > 0
        system.crash("A")
        system.recover("A")
        assert accepted.value == accepted_before
        # The rebuilt manager counts on from there, into the same counter.
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)))
        system.run_for(30.0)
        assert accepted.value > accepted_before


def bundled_four_site_run():
    """Lossy, duplicating, bundled links under a one-slot front-end —
    every counter and histogram family of the transport, Vm, txn and
    serving layers — and one link configured again mid-run."""
    sites = ["A", "B", "C", "D"]
    system = DvPSystem(SystemConfig(
        sites=sites, seed=11, txn_timeout=10.0, retransmit_period=2.0,
        link=LinkConfig(base_delay=1.0, jitter=0.5, loss_probability=0.1,
                        duplicate_probability=0.1),
        bundling=BundlingConfig(flush_delay=0.5)))
    system.add_item("x", CounterDomain(),
                    split={"A": 0, "B": 40, "C": 40, "D": 40})
    system.add_item("y", CounterDomain(), total=80)
    frontend = ServingFrontend(system, ServingConfig(max_inflight=1))
    frontend.start()
    for index in range(16):
        site = sites[index % 4]
        ops = ((DecrementOp("x", 5 + index),) if index % 2 == 0
               else (TransferOp("y", "x", 3), IncrementOp("y", 1)))
        system.sim.at_site(
            site, 1.0 + index,
            lambda site=site, ops=ops: frontend.submit(
                site, TransactionSpec(ops=ops, work=0.3)),
            label="arrival")
    system.sim.at(9.0, lambda: system.network.configure_link(
        "B", "A", LinkConfig(base_delay=1.5)), label="reconfigure")
    system.run_until(60.0)
    return system


def metric_rows(metrics):
    """Every counter and histogram of *metrics* as plain JSON rows."""
    rows = {"counters": [], "histograms": []}
    for metric in metrics.counters():
        rows["counters"].append({"name": metric.name,
                                 "labels": dict(metric.labels),
                                 "value": metric.value})
    for metric in metrics.histograms():
        summary = summarize(metric.values)
        rows["histograms"].append({
            "name": metric.name, "labels": dict(metric.labels),
            "count": summary.count, "mean": summary.mean,
            "p50": summary.p50, "p95": summary.p95, "p99": summary.p99,
            "max": summary.maximum})
    return rows


class TestMetricRows:
    #: sha256 of json.dumps(metric_rows(...), sort_keys=True) for the
    #: run above: every counter and histogram a lossy, duplicating,
    #: bundled, served run books.
    #: (net.bundle.size's integer max and p50 print as floats since
    #: samples are C doubles: 3 -> 3.0, 1 -> 1.0; nothing else moved.)
    ROWS_SHA256 = ("1f3e796bdcb53ac696f2469e1b408bad"
                   "00a788919bf96ebf124f9046e7f4ce18")

    def test_counters_and_histograms_are_pinned(self):
        metrics = bundled_four_site_run().sim.metrics
        blob = json.dumps(metric_rows(metrics), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            self.ROWS_SHA256


class TestTimeline:
    def make_events(self):
        system = build_system()
        system.sim.obs.enable()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)))
        system.submit("B", TransactionSpec(ops=(IncrementOp("x", 3),)))
        system.run_for(30.0)
        return system.sim.obs.events()

    def test_filters_are_conjunctive(self):
        events = self.make_events()
        vm_only = list(TraceFilter(kind="vm.").apply(events))
        assert vm_only and all(e.kind.startswith("vm.") for e in vm_only)
        site_a = list(TraceFilter(site="A").apply(events))
        for event in site_a:
            data = event.to_dict()
            assert "A" in (data.get("site"), data.get("src"),
                           data.get("dst"))
        both = list(TraceFilter(site="A", kind="vm.").apply(events))
        assert set(both) <= set(vm_only) & set(site_a)

    def test_txn_filter_matches_id_and_label(self):
        events = self.make_events()
        txn = list(TraceFilter(txn="A#1").apply(events))
        assert any(event.kind == "txn.submit" for event in txn)

    def test_render_is_deterministic_and_aligned(self):
        events = self.make_events()
        first = render_timeline(events, title="t")
        second = render_timeline(self.make_events(), title="t")
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "t"
        assert lines[-1] == f"({len(events)} events)"

    def test_render_empty(self):
        assert "(no events)" in render_timeline([], title="t")


class TestChaosTraceTail:
    def test_committed_artifact_embeds_tail(self):
        artifact = ReproArtifact.load(REPRO)
        assert len(artifact.trace_tail) == TRACE_TAIL_EVENTS
        # every line is canonical JSON for a known event kind
        for line in artifact.trace_tail:
            assert event_to_json(event_from_json(line)) == line

    def test_replay_tail_byte_identical(self):
        """The embedded tail reproduces byte-for-byte on replay — the
        cross-process determinism `repro trace` relies on."""
        artifact = ReproArtifact.load(REPRO)
        result = artifact.replay(trace_limit=TRACE_TAIL_EVENTS)
        assert result.trace_tail == artifact.trace_tail
        again = artifact.replay(trace_limit=TRACE_TAIL_EVENTS)
        assert again.trace_tail == result.trace_tail
        assert again.fingerprint == result.fingerprint

    def test_artifact_without_tail_still_loads(self):
        artifact = ReproArtifact.load(REPRO)
        data = artifact.to_dict()
        del data["trace_tail"]  # a pre-PR3 artifact
        loaded = ReproArtifact.from_dict(data)
        assert loaded.trace_tail == []
        assert loaded.plan.to_dicts() == artifact.plan.to_dicts()


class TestKernelIntegration:
    def test_kernel_steps_off_by_default_when_enabled(self):
        sim = Simulator()
        sim.obs.enable()
        sim.after(1.0, lambda: None, label="x")
        sim.run()
        assert sim.obs.events() == []  # kernel steps are opt-in

    def test_kernel_steps_cover_run_and_run_until(self):
        sim = Simulator()
        sim.obs.enable(kernel_steps=True)
        sim.after(1.0, lambda: None, label="a")
        sim.after(2.0, lambda: None, label="b")
        sim.run_until(1.5)
        sim.run()
        assert [event.label for event in sim.obs.events()] == ["a", "b"]
