"""The structured observability layer: TraceBus, the kind table, JSON
lines, metrics registry, timeline rendering, chaos trace tails."""

import ast
import copy
import hashlib
import json
import pathlib
import pickle

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
    KINDS,
    MetricsRegistry,
    TraceBus,
    TraceFilter,
    event_to_json,
    render_timeline,
)
from repro.serving import ServingConfig, ServingFrontend
from repro.sim.kernel import Simulator

REPRO = (pathlib.Path(__file__).parent / "repros" /
         "chaos_auditor-serial_crash_seed16220008651848166696_1act.json")


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def make_event(kind, t, **fields):
    """The event a bus records for ``emit(kind, t, **fields)``."""
    bus = TraceBus()
    bus.enable()
    bus.emit(kind, t, **fields)
    return bus.events()[0]


def event_from_json(line):
    """The event one canonical JSON line describes."""
    payload = json.loads(line)
    return make_event(payload.pop("kind"), payload.pop("t"), **payload)


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
            bus.emit("kernel.step", float(index), label=f"e{index}")
        assert bus.emitted == 10
        assert bus.truncated == 7
        assert [event.label for event in bus.events()] == ["e7", "e8", "e9"]

    def test_ring_limit_validated(self):
        with pytest.raises(ValueError):
            TraceBus().enable(ring_limit=0)

    def test_clear_resets_counts(self):
        bus = TraceBus()
        bus.enable()
        bus.emit("kernel.step", 0.0, label="e")
        bus.clear()
        assert bus.emitted == 0
        assert bus.events() == []

    def test_event_order_matches_trace_fingerprint_order(self):
        """kernel.step events and the kernel's fingerprint trace are
        the same sequence: the structured trace is a faithful, typed
        view of exactly what the fingerprint hashes."""
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
                 if event.kind == "kernel.step"]
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
        event = make_event("vm.create", 1.5, site="A", dst="B", item="x",
                           seq=3, amount=7, vm_kind="transfer", txn="A#1")
        line = event_to_json(event)
        assert line == ('{"amount":7,"dst":"B","item":"x",'
                        '"kind":"vm.create","seq":3,"site":"A",'
                        '"t":1.5,"txn":"A#1","vm_kind":"transfer"}')
        assert event_from_json(line) == event


class TestKindTable:
    """One record type; KINDS names each kind's fields in output order."""

    def test_unknown_kind_is_refused(self):
        bus = TraceBus()
        bus.enable()
        with pytest.raises(ValueError, match="txn.finish"):
            bus.emit("txn.finish", 0.0, site="A", txn="A#1")
        assert bus.emitted == 0 and bus.events() == []

    def test_missing_field_is_refused(self):
        bus = TraceBus()
        bus.enable()
        with pytest.raises(TypeError, match="'txn'"):
            bus.emit("txn.commit", 0.0, site="A")
        assert bus.emitted == 0

    def test_extra_field_is_refused(self):
        bus = TraceBus()
        bus.enable()
        with pytest.raises(TypeError, match="'item'"):
            bus.emit("txn.commit", 0.0, site="A", txn="A#1", item="x")
        assert bus.emitted == 0

    def test_every_kind_is_named_by_an_emitter(self):
        """A kind no module under src/ names is a dead row."""
        named = set()
        for path in SRC.rglob("*.py"):
            if path == SRC / "obs" / "events.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, str):
                    named.add(node.value)
        assert sorted(set(KINDS) - named) == []

    def test_fields_in_table_order(self):
        event = make_event("vm.ack", 2.0, cumulative=4, dst="B", site="A")
        assert event.values == ("A", "B", 4)
        assert list(event.to_dict()) == ["kind", "t", "site", "dst",
                                         "cumulative"]
        assert (event.site, event.dst, event.cumulative) == ("A", "B", 4)
        assert getattr(event, "item", None) is None
        with pytest.raises(AttributeError, match="vm.ack"):
            event.item

    def test_equality_hash_and_repr(self):
        event = make_event("txn.abort", 1.0, site="A", txn="A#1",
                           reason="locked")
        same = make_event("txn.abort", 1.0, site="A", txn="A#1",
                          reason="locked")
        assert event == same and hash(event) == hash(same)
        assert event != make_event("txn.abort", 1.0, site="A",
                                   txn="A#1", reason="timeout")
        assert event != make_event("txn.commit", 1.0, site="A", txn="A#1")
        assert repr(event) == ("TraceEvent('txn.abort', t=1.0, site='A', "
                               "txn='A#1', reason='locked')")

    def test_copy_and_pickle(self):
        event = make_event("site.recover", 3.0, site="B", redo_applied=2,
                           vm_rebuilt=1, from_checkpoint=False)
        for clone in (copy.copy(event), copy.deepcopy(event),
                      pickle.loads(pickle.dumps(event))):
            assert clone == event and clone.redo_applied == 2


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
        # One delivery-latency sample per accepted Vm, and a histogram
        # only for a pair that delivered.
        assert sum(len(h.values) for h in deliveries) == \
            metrics.total("vm.accepted")
        assert all(h.values for h in deliveries)
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


def bundled_four_site_run(trace: bool = False):
    """Lossy, duplicating, bundled links under a one-slot front-end —
    every counter and histogram family of the transport, Vm, txn and
    serving layers — and one link configured again mid-run. *trace*
    records the run's trace events as well."""
    sites = ["A", "B", "C", "D"]
    system = DvPSystem(SystemConfig(
        sites=sites, seed=11, txn_timeout=10.0, retransmit_period=2.0,
        link=LinkConfig(base_delay=1.0, jitter=0.5, loss_probability=0.1,
                        duplicate_probability=0.1),
        bundling=BundlingConfig(flush_delay=0.5)))
    if trace:
        system.sim.obs.enable()
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
    #: (Per-pair Vm families are booked on their first count, so the
    #: four zero per-peer counters and three empty vm.delivery
    #: histograms a channel's opening used to register are gone;
    #: every other row is unchanged.)
    ROWS_SHA256 = ("714e35bce3e84788e3b0915400457383"
                   "a1821f47c488d6e75f78ebcc79e91c2a")

    def test_counters_and_histograms_are_pinned(self):
        metrics = bundled_four_site_run().sim.metrics
        blob = json.dumps(metric_rows(metrics), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            self.ROWS_SHA256


#: The per-pair Vm counter families, and the trace event each counts
#: with the field naming its peer.
PER_PEER = {"vm.retransmissions": ("vm.retransmit", "dst"),
            "vm.duplicates": ("vm.duplicate-discard", "src")}


def per_peer_rows(metrics):
    """``{(family, site, peer): value}`` of every per-pair counter row."""
    rows = {}
    for metric in metrics.counters():
        if metric.name in PER_PEER:
            labels = dict(metric.labels)
            rows[metric.name, labels["site"], labels["peer"]] = metric.value
    return rows


class TestPerPeerRows:
    """A per-pair family gets a row on its first count: the registry
    counts what the trace records, and a pair that never retransmits,
    discards or delivers books nothing."""

    def test_rows_and_trace_events_agree_on_a_lossy_run(self):
        system = bundled_four_site_run(trace=True)
        traced = {}
        for event in system.sim.obs.events():
            for family, (kind, peer) in PER_PEER.items():
                if event.kind == kind:
                    key = family, event.site, getattr(event, peer)
                    traced[key] = traced.get(key, 0) + 1
        rows = per_peer_rows(system.sim.metrics)
        assert rows == traced
        assert {family for family, _, _ in rows} == set(PER_PEER)
        assert all(h.values
                   for h in system.sim.metrics.histograms("vm.delivery"))

    def test_a_lossless_synchronous_run_books_no_per_peer_row(self):
        sites = [f"S{index}" for index in range(8)]
        system = DvPSystem(SystemConfig(sites=sites, seed=11,
                                        synchronous=True))
        system.add_item("x", CounterDomain(), total=160)
        results = []
        for index, site in enumerate(sites):
            # Each takes 25 of a 20-unit share: every commit pulls Vm.
            system.sim.at(3.0 * index, lambda site=site: system.submit(
                site, TransactionSpec(ops=(DecrementOp("x", 25),)),
                results.append), label="arrival")
        system.run_for(80.0)
        metrics = system.sim.metrics
        assert sum(result.committed for result in results) >= 6
        assert metrics.total("vm.accepted") > 0
        assert per_peer_rows(metrics) == {}
        assert metrics.total("vm.retransmissions") == 0
        deliveries = metrics.histograms("vm.delivery")
        assert deliveries and all(h.values for h in deliveries)


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


class TestTimelinePins:
    """What `repro trace NAME` prints, run from tests/repros, for every
    committed artifact: a renamed, reordered or dropped field, or a
    changed value format, moves a hash."""

    SHA256 = {
        "chaos_auditor-serial_crash_seed14253557195298170862_1act.json":
            "7f8fadcd239557ac22eabc5f898edeb12a990a7cbb27f883996190fa8244f1ec",
        "chaos_auditor-serial_crash_seed16220008651848166696_1act.json":
            "94c825ecea23c9911c6cc76b1619e6dea73c8ce06aac9658187c1a433dd7610d",
        "chaos_auditor-serial_duplicate-grant_seed16220008651848166696_0act.json":
            "87e9ebe652587cc2ef187ecfa0d1e3094f941ad1e84558b6af91654aefef5c02",
        "chaos_auditor-serial_write_seed12522134497235605397_1act.json":
            "a90d9147017a2d296754fd8b11de69428cb7a5f53a8743de32976724d55990b5",
        "chaos_auditor-serial_write_seed14253557195298170862_1act.json":
            "580ee41c2023a7d1bf3670e2fdc5d7f2e3fc88a787a7b0df1aa7eb5e0ae6cc12",
        "chaos_auditor-serial_write_seed16220008651848166696_1act.json":
            "ec7713e01e24e19ca168c6fca8916ae4d23acebf212a8b7deac5b5fe4870db16",
        "chaos_auditor-serial_write_seed6335850603464525492_0act.json":
            "bb368f9827337b6a30c5041601f3706a8138680f41fb465d1573ad4b93583cea",
        "chaos_progress_run-first-seq_seed16220008651848166696_2act.json":
            "085562a60859c45b34ab23368d7e17435879ce92078538323884c618b70b470c",
        "chaos_view_view-staleness_seed14253557195298170862_0act.json":
            "3765ba66dcdce6ea202bad2233747ea6dc48ca7bf1b11903a3240707cbcc0c44",
        "chaos_wave-crash-before-send_seed16220008651848166696_3act.json":
            "90642d587211092533da8d2f8c6cf490d47105e0c2b423cdb8d650864eb30cfd",
    }

    def test_every_artifact_is_pinned(self):
        assert sorted(self.SHA256) == sorted(
            path.name for path in REPRO.parent.glob("*.json"))

    @pytest.mark.parametrize("name", sorted(SHA256))
    def test_timeline_text(self, name, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.chdir(REPRO.parent)
        assert main(["trace", name]) == 0
        printed = capsys.readouterr().out
        assert hashlib.sha256(printed.encode()).hexdigest() == \
            self.SHA256[name]
