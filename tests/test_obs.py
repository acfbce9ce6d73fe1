"""The structured observability layer: TraceBus, typed events, JSONL
export, metrics registry, timeline rendering, chaos trace tails."""

import hashlib
import io
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
from repro.net.link import LinkConfig
from repro.net.outbox import BundlingConfig
from repro.obs import (
    KernelStep,
    MetricsRegistry,
    TraceBus,
    TraceFilter,
    VmCreate,
    dumps_jsonl,
    event_from_dict,
    event_to_json,
    read_jsonl,
    render_timeline,
)
from repro.serving import ServingConfig, ServingFrontend
from repro.sim.kernel import Simulator

REPRO = (pathlib.Path(__file__).parent / "repros" /
         "chaos_auditor-serial_crash_seed16220008651848166696_1act.json")


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
        assert [event.label for event in bus.tail(2)] == ["e8", "e9"]
        assert bus.tail(0) == []

    def test_ring_limit_validated(self):
        with pytest.raises(ValueError):
            TraceBus().enable(ring_limit=0)

    def test_sinks_see_truncated_events(self):
        bus = TraceBus()
        seen = []
        bus.add_sink(seen.append)
        bus.enable(ring_limit=2)
        for index in range(5):
            bus.emit(KernelStep(t=float(index), label=f"e{index}"))
        assert len(seen) == 5  # the stream is complete despite the ring
        bus.remove_sink(seen.append)

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
        bus = TraceBus()
        bus.enable()
        system = build_system()
        system.sim.obs.enable()
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)))
        system.run_for(30.0)
        events = system.sim.obs.events()
        assert events
        text = dumps_jsonl(events)
        parsed = list(read_jsonl(io.StringIO(text)))
        assert parsed == events

    def test_canonical_lines_are_stable(self):
        event = VmCreate(t=1.5, site="A", dst="B", item="x", seq=3,
                         amount=7, vm_kind="transfer", txn="A#1")
        line = event_to_json(event)
        assert line == ('{"amount":7,"dst":"B","item":"x",'
                        '"kind":"vm.create","seq":3,"site":"A",'
                        '"t":1.5,"txn":"A#1","vm_kind":"transfer"}')
        assert event_from_dict(json.loads(line)) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"kind": "no.such.event", "t": 0.0})


class TestMetricsRegistry:
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
        summary = h.summary()
        assert h.count == 3
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
        assert sum(h.count for h in deliveries) == \
            metrics.total("vm.accepted")
        decisions = [h for h in metrics.histograms("txn.decision")
                     if dict(h.labels)["outcome"] == "committed"]
        assert sum(h.count for h in decisions) == 1

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
    every metric family incl. both kinds of gauge — and one link
    configured again mid-run."""
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


class TestGaugeProvider:
    #: sha256 of json.dumps(snapshot(), sort_keys=True) for the run
    #: above. The test also re-registers every link's three gauges the
    #: old way and compares; the hash was re-recorded when the Vm
    #: retransmission tick began skipping entries sent less than a
    #: period ago (docs/LEDGER.md).
    SNAPSHOT_SHA256 = ("2b18ee913bb8942ae9fc4a919857d9d7"
                       "3fc7d4c4433e7a90a9c3027cdbc8111c")

    def test_snapshot_is_byte_equal_to_per_link_registration(self):
        system = bundled_four_site_run()
        metrics = system.sim.metrics
        blob = json.dumps(metrics.snapshot(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            self.SNAPSHOT_SHA256
        # ...and to what registering them here, the old way, gives.
        links = list(system.network._links.values())
        assert len(links) == 10  # every pair the run used
        assert len(metrics._gauges) == 8  # serve.depth / .inflight x 4
        assert len(metrics.gauges()) == 3 * 10 + 8
        metrics._providers = []
        for link in links:
            for name in ("transmissions", "losses", "duplicates"):
                metrics.gauge(f"link.{name}", link.counter_reader(name),
                              src=link.src, dst=link.dst)
        assert json.dumps(metrics.snapshot(), sort_keys=True) == blob

    def test_provided_gauges_read_live_and_follow_a_reconfigured_link(self):
        system = build_system()
        metrics = system.sim.metrics
        assert metrics.gauges("link.transmissions") == []  # no link yet
        system.network.send("A", "B", "ping")
        gauge, = metrics.gauges("link.transmissions")
        assert dict(gauge.labels) == {"src": "A", "dst": "B"}
        assert gauge.value == 1
        system.network.send("A", "B", "ping")
        assert gauge.value == 2  # a read-through view, not a copy
        system.network.configure_link("A", "B", LinkConfig(base_delay=2.0))
        fresh, = metrics.gauges("link.transmissions")
        assert fresh.value == 0 and gauge.value == 2

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

    def test_close_drops_gauges_and_marks_and_keeps_the_rest(self):
        system = bundled_four_site_run()
        metrics = system.sim.metrics
        counters = metrics.snapshot()["counters"]
        histograms = metrics.snapshot()["histograms"]
        assert metrics.gauges()
        system.close()
        after = metrics.snapshot()
        assert after["gauges"] == [] and metrics._marks == {}
        assert after["counters"] == counters
        assert after["histograms"] == histograms


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
            event = event_from_dict(json.loads(line))
            assert event_to_json(event) == line

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
