"""Tests for the bundled transport (repro.net.outbox), ack coalescing,
and the O(1) channel accounting that replaced the per-send scans.

Unit layers use a bundled Network with plain list handlers (transport
semantics) and the two-site VmManager harness (protocol semantics);
system layers run whole DvP scenarios with bundling on and assert the
paper's invariants — conservation, identical outcomes — survive every
fault the bundle can hit as a unit (loss, partition, duplication).
"""

import random

import pytest

from repro.core.domain import CounterDomain
from repro.core.messages import VmAck, VmTransfer
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import TransactionSpec, TransferOp
from repro.core.vm import IncomingChannel, VmManager
from repro.metrics.collector import Collector
from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.net.outbox import BundlingConfig
from repro.sim.kernel import Simulator
from repro.workloads.airline import AirlineWorkload
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver


def make_network(flush_delay=0.0, sim=None, **link_kwargs):
    sim = sim or Simulator(1)
    network = Network(sim, LinkConfig(**link_kwargs),
                      bundling=BundlingConfig(flush_delay=flush_delay))
    inboxes: dict[str, list] = {}
    for name in ("A", "B", "C"):
        inboxes[name] = []
        network.register(name, inboxes[name].append)
    return sim, network, inboxes


def counter_total(sim, name):
    return sim.metrics.total(name)


class TestBundlingConfig:
    @pytest.mark.parametrize("delay", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_a_non_finite_flush_delay_is_refused(self, delay):
        with pytest.raises(ValueError, match="flush_delay"):
            BundlingConfig(flush_delay=delay)

    def test_negative_flush_delay_rejected(self):
        with pytest.raises(ValueError):
            BundlingConfig(flush_delay=-0.5)

    def test_default_is_same_instant_only(self):
        assert BundlingConfig().flush_delay == 0.0


class TestCoalescing:
    def test_same_instant_sends_share_one_envelope(self):
        sim, network, inboxes = make_network(base_delay=2.0)
        network.send("A", "B", "one")
        network.send("A", "B", "two")
        network.send("A", "B", "three")
        sim.run()
        assert counter_total(sim, "net.sent") == 1
        assert counter_total(sim, "net.delivered") == 1
        assert [env.payload for env in inboxes["B"]] == [
            "one", "two", "three"]

    def test_payload_counts_stay_per_logical_message(self):
        sim, network, _ = make_network(base_delay=2.0)
        network.send("A", "B", "x")
        network.send("A", "B", "y")
        sim.run()
        # sent_counts/delivered_counts stay per payload: every consumer
        # of the per-kind books sees logical messages, not envelopes.
        assert network.sent_counts["str"] == 2
        assert network.delivered_counts["str"] == 2

    def test_distinct_destinations_get_distinct_bundles(self):
        sim, network, inboxes = make_network(base_delay=2.0)
        network.send("A", "B", "to-b")
        network.send("A", "C", "to-c")
        sim.run()
        assert counter_total(sim, "net.sent") == 2
        assert inboxes["B"][0].payload == "to-b"
        assert inboxes["C"][0].payload == "to-c"

    def test_single_send_timing_matches_unbundled(self):
        sim_b, network_b, inboxes_b = make_network(base_delay=2.0)
        network_b.send("A", "B", "solo")
        sim_b.run()
        sim_p = Simulator(1)
        plain = Network(sim_p, LinkConfig(base_delay=2.0))
        got: list = []
        plain.register("A", got.append)
        plain.register("B", got.append)
        plain.send("A", "B", "solo")
        sim_p.run()
        assert sim_b.now == sim_p.now == 2.0
        assert inboxes_b["B"][0].payload == got[0].payload

    def test_flush_window_collects_later_sends(self):
        sim, network, inboxes = make_network(flush_delay=5.0,
                                             base_delay=2.0)
        network.send("A", "B", "first")
        sim.at(3.0, lambda: network.send("A", "B", "second"))
        sim.run()
        assert counter_total(sim, "net.sent") == 1
        assert [env.payload for env in inboxes["B"]] == ["first", "second"]
        # One delivery at open + flush + delay.
        assert sim.now == 7.0

    def test_send_after_window_opens_new_bundle(self):
        sim, network, inboxes = make_network(flush_delay=1.0,
                                             base_delay=5.0)
        network.send("A", "B", "early")
        # The first bundle departs at t=1 but lands at t=6; a send at
        # t=3 is past the window and must open a second envelope.
        sim.at(3.0, lambda: network.send("A", "B", "late"))
        sim.run()
        assert counter_total(sim, "net.sent") == 2
        assert [env.payload for env in inboxes["B"]] == ["early", "late"]

    def test_send_after_delivery_opens_new_bundle(self):
        sim, network, inboxes = make_network(base_delay=2.0)
        network.send("A", "B", "first")
        sim.run()
        network.send("A", "B", "second")
        sim.run()
        assert counter_total(sim, "net.sent") == 2
        assert len(inboxes["B"]) == 2

    def test_broadcast_bundles_per_destination(self):
        sim, network, inboxes = make_network(base_delay=2.0)
        for payload in ("hello", "again"):  # each to every peer
            for name in ("B", "C"):
                network.send("A", name, payload)
        sim.run()
        assert counter_total(sim, "net.sent") == 2  # one per peer
        for name in ("B", "C"):
            assert [env.payload for env in inboxes[name]] == [
                "hello", "again"]

    def test_bundle_size_histogram_observed(self):
        sim, network, _ = make_network(base_delay=1.0)
        for payload in ("x", "y", "z"):
            network.send("A", "B", payload)
        sim.run()
        [histogram] = sim.metrics.histograms("net.bundle.size")
        # An array('d') of samples: the int reads back as a float.
        assert histogram.values.tolist() == [3.0]

    def test_bundle_event_emitted(self):
        sim, network, _ = make_network(base_delay=1.0)
        sim.obs.enable()
        network.send("A", "B", "x")
        network.send("A", "B", "y")
        sim.run()
        bundles = [event for event in sim.obs.events()
                   if event.kind == "net.bundle"]
        assert len(bundles) == 1
        assert bundles[0].size == 2


class TestBundleFaults:
    def test_lost_bundle_drops_whole_and_counts_once(self):
        sim, network, inboxes = make_network(base_delay=2.0,
                                             loss_probability=1.0)
        for payload in ("x", "y", "z"):
            network.send("A", "B", payload)
        sim.run()
        assert inboxes["B"] == []
        assert counter_total(sim, "net.sent") == 1
        assert counter_total(sim, "net.dropped.loss") == 1
        assert counter_total(sim, "net.dropped.partition") == 0

    def test_partitioned_bundle_counts_one_partition_drop(self):
        sim, network, inboxes = make_network(base_delay=2.0)
        network.partition([["A"], ["B", "C"]])
        for payload in ("x", "y"):
            network.send("A", "B", payload)
        sim.run()
        assert inboxes["B"] == []
        assert counter_total(sim, "net.dropped.partition") == 1
        assert counter_total(sim, "net.dropped.loss") == 0

    def test_partition_strikes_bundle_in_flight(self):
        sim, network, inboxes = make_network(base_delay=5.0)
        network.send("A", "B", "x")
        network.send("A", "B", "y")
        sim.at(1.0, lambda: network.partition([["A"], ["B", "C"]]))
        sim.run()
        assert inboxes["B"] == []
        assert counter_total(sim, "net.dropped.partition") == 1

    def test_duplicated_bundle_delivered_twice(self):
        sim, network, inboxes = make_network(base_delay=2.0,
                                             duplicate_probability=1.0)
        network.send("A", "B", "x")
        network.send("A", "B", "y")
        sim.run()
        assert counter_total(sim, "net.sent") == 1
        assert counter_total(sim, "net.delivered") == 2
        payloads = [env.payload for env in inboxes["B"]]
        assert payloads == ["x", "y", "x", "y"]
        assert [env.duplicated for env in inboxes["B"]] == [
            False, False, True, True]

    def test_doomed_bundle_absorbs_window_sends(self):
        """Payloads enqueued while a lost bundle's window is open drop
        with it — one envelope, one loss — exactly as if one big
        message was lost."""
        sim, network, inboxes = make_network(flush_delay=4.0,
                                             base_delay=2.0,
                                             loss_probability=1.0)
        network.send("A", "B", "first")
        sim.at(2.0, lambda: network.send("A", "B", "absorbed"))
        sim.run()
        assert inboxes["B"] == []
        assert counter_total(sim, "net.sent") == 1
        assert counter_total(sim, "net.dropped.loss") == 1

    def test_new_bundle_after_doomed_window_lapses(self):
        sim, network, inboxes = make_network(flush_delay=1.0,
                                             base_delay=2.0)
        link = network.link("A", "B")
        link.fail()
        network.send("A", "B", "lost")
        link.restore()
        sim.at(5.0, lambda: network.send("A", "B", "arrives"))
        sim.run()
        assert [env.payload for env in inboxes["B"]] == ["arrives"]
        assert counter_total(sim, "net.sent") == 2
        assert counter_total(sim, "net.dropped.loss") == 1


class VmHarness:
    """Two VmManagers on one simulator with scriptable delivery."""

    def __init__(self, coalesce_acks=False):
        self.sim = Simulator(1)
        self.wire: list[tuple[str, str, object]] = []
        self.accepted: dict[str, list] = {"A": [], "B": []}
        self.refuse: dict[str, bool] = {"A": False, "B": False}
        self.managers: dict[str, VmManager] = {}
        clock = {"t": 0}

        def ts() -> int:
            clock["t"] += 1
            return clock["t"]

        for name in ("A", "B"):
            def send(dst, payload, src=name):
                self.wire.append((src, dst, payload))

            def accept(entry, src, me=name):
                if self.refuse[me]:
                    return False
                self.accepted[me].append((src, entry))
                return True

            self.managers[name] = VmManager(
                name, self.sim, send=send, accept=accept, clock_ts=ts,
                coalesce_acks=coalesce_acks)

    def flush(self) -> int:
        queued, self.wire = self.wire, []
        for src, dst, payload in queued:
            manager = self.managers[dst]
            if isinstance(payload, VmTransfer):
                manager.on_transfer(payload)
            else:
                manager.on_ack(payload)
        return len(queued)

    def send_value(self, src, dst, item, amount):
        manager = self.managers[src]
        entry = manager.allocate_entry(dst, item, amount, "transfer", "t")
        manager.register_created([entry])
        return entry


class TestAckCoalescing:
    def test_ack_deferred_to_event_end(self):
        """Inside a kernel event the explicit ack waits for the event to
        finish, then goes out once for any number of accepts."""
        h = VmHarness(coalesce_acks=True)
        for amount in (1, 2, 3):
            h.send_value("A", "B", "x", amount)

        def deliver():
            h.flush()

        h.sim.after(1.0, deliver)
        h.sim.run_until(1.0)
        acks = [payload for _s, _d, payload in h.wire
                if isinstance(payload, VmAck)]
        assert len(acks) == 1
        assert acks[0].cumulative == 3

    def test_ack_suppressed_when_piggyback_covers_it(self):
        """A data message to the same peer leaving the same instant
        makes the explicit ack redundant: its piggyback field already
        carries the cumulative value."""
        h = VmHarness(coalesce_acks=True)
        h.send_value("A", "B", "x", 1)

        def deliver_and_reply():
            h.flush()  # B accepts seq 1 (ack deferred to event end) ...
            h.send_value("B", "A", "y", 7)  # ... then owes A data anyway

        h.sim.after(1.0, deliver_and_reply)
        h.sim.run_until(1.0)
        transfers = [payload for _s, _d, payload in h.wire
                     if isinstance(payload, VmTransfer)]
        acks = [payload for _s, _d, payload in h.wire
                if isinstance(payload, VmAck)]
        assert [t.piggyback_ack for t in transfers if t.src == "B"] == [1]
        assert acks == []
        assert h.managers["B"]._c_suppressed.value == 1

    def test_ack_immediate_outside_event_loop(self):
        """With no event executing the deferral is unavailable and the
        ack goes out right away, exactly as without coalescing."""
        h = VmHarness(coalesce_acks=True)
        h.send_value("A", "B", "x", 1)
        h.flush()
        acks = [payload for _s, _d, payload in h.wire
                if isinstance(payload, VmAck)]
        assert len(acks) == 1

    def test_suppression_never_loses_acknowledgement(self):
        """Sender learns the cumulative value from the piggyback: the
        suppressed explicit ack carries no extra information."""
        h = VmHarness(coalesce_acks=True)
        h.send_value("A", "B", "x", 1)

        def deliver_and_reply():
            h.flush()
            h.send_value("B", "A", "y", 7)

        h.sim.after(1.0, deliver_and_reply)
        h.sim.run_until(1.0)
        h.flush()  # B's transfer (with piggyback) reaches A
        assert h.managers["A"].outgoing["B"].cumulative_acked == 1
        assert h.managers["A"].unacked_count() == 0


class TestChannelAccounting:
    def test_counters_track_send_and_ack(self):
        h = VmHarness()
        a = h.managers["A"]
        h.send_value("A", "B", "x", 1)
        h.send_value("A", "B", "y", 2)
        assert a.unacked_count() == 2
        assert a.has_outstanding("x") and a.has_outstanding("y")
        assert a.check_accounting()
        h.flush()  # transfers
        h.flush()  # acks
        assert a.unacked_count() == 0
        assert not a.has_outstanding("x")
        assert a.check_accounting()

    def test_partial_ack_prunes_exactly_confirmed(self):
        h = VmHarness()
        a = h.managers["A"]
        for index in range(4):
            h.send_value("A", "B", f"item{index}", 1)
        a.on_ack(VmAck(src="B", cumulative=2, ts=99))
        assert a.unacked_count() == 2
        assert not a.has_outstanding("item0")
        assert a.has_outstanding("item3")
        assert a.check_accounting()

    def test_multiple_vm_same_item(self):
        h = VmHarness()
        a = h.managers["A"]
        h.send_value("A", "B", "x", 1)
        h.send_value("A", "B", "x", 2)
        assert a.has_outstanding("x")
        a.on_ack(VmAck(src="B", cumulative=1, ts=99))
        assert a.has_outstanding("x")  # one of two still live
        a.on_ack(VmAck(src="B", cumulative=2, ts=100))
        assert not a.has_outstanding("x")
        assert a.check_accounting()

    def test_stale_ack_changes_nothing(self):
        h = VmHarness()
        a = h.managers["A"]
        h.send_value("A", "B", "x", 1)
        a.on_ack(VmAck(src="B", cumulative=1, ts=99))
        before = a.unacked_count()
        a.on_ack(VmAck(src="B", cumulative=1, ts=100))  # replay
        a.on_ack(VmAck(src="B", cumulative=0, ts=101))  # stale
        assert a.unacked_count() == before == 0
        assert a.check_accounting()

    def test_restore_entry_rebuilds_counters(self):
        """Recovery re-inserts live entries without create records; the
        counters must follow, and a checkpointed entry plus its create
        record must not double-count."""
        h = VmHarness()
        a = h.managers["A"]
        entry = h.send_value("A", "B", "x", 3)
        rebuilt = VmManager("A", h.sim, send=lambda d, p: None,
                            accept=lambda e, s: True,
                            clock_ts=lambda: 0)
        rebuilt.restore(entries=(entry,))
        rebuilt.restore(entries=(entry,))  # checkpoint + log replay overlap
        assert rebuilt.unacked_count() == 1
        assert rebuilt.has_outstanding("x")
        assert rebuilt.check_accounting()
        assert a.check_accounting()


class TestDrainFifo:
    def test_reentrant_drain_stays_fifo(self):
        """An accept callback that re-enters drain only enqueues; the
        outer loop absorbs channels in arrival order (regression for
        the deque rewrite of the drain work queue)."""
        sim = Simulator(1)
        order = []
        manager_box = {}

        def accept(run, src):
            for entry in run:
                order.append((src, entry.channel_seq))
                if src == "B" and entry.channel_seq == 1:
                    # Re-entrant poke mid-accept, as a lock release does.
                    manager_box["m"].drain("C")
            return len(run)

        manager = VmManager("A", sim, send=lambda d, p: None,
                            accept=accept, clock_ts=lambda: 0)
        manager_box["m"] = manager
        for src, seq in (("B", 1), ("B", 2), ("C", 1)):
            channel = manager.incoming.setdefault(src, IncomingChannel(src))
            channel.pending[seq] = type(
                "E", (), {"channel_seq": seq, "item": "x", "amount": 1,
                          "kind": "transfer", "txn_id": "t",
                          "dst": "A"})()
        manager.drain("B")
        # The nested drain("C") must not run before B finishes.
        assert order == [("B", 1), ("B", 2), ("C", 1)]


def build_system(seed=0, flush_delay=2.0, **kwargs):
    names = ["S0", "S1", "S2", "S3"]
    system = DvPSystem(SystemConfig(
        sites=names, seed=seed, txn_timeout=15.0, retransmit_period=3.0,
        link=LinkConfig(base_delay=1.0, jitter=1.0,
                        **kwargs.pop("link_kwargs", {})),
        bundling=BundlingConfig(flush_delay=flush_delay), **kwargs))
    system.add_item("item", CounterDomain(), total=200)
    return system


def drive_system(system, rate=0.1, duration=150.0, settle=300.0):
    config = WorkloadConfig(
        arrival_rate=rate, duration=duration,
        mix=OpMix(reserve=0.5, cancel=0.4, read=0.1),
        amount_low=1, amount_high=8)
    source = AirlineWorkload(["item"], config)
    collector = Collector()
    WorkloadDriver(system.sim, system, list(system.sites), source,
                   config, collector).install()
    system.run_until(duration)
    system.run_for(settle)
    return collector


def run_fanned(bundling):
    """Three-op transfers fanned toward one peer at a time, over
    per-site cycling items so no two in-flight transactions conflict;
    run to quiescence and audited."""
    names = ["W", "X", "Y", "Z"]
    system = DvPSystem(SystemConfig(
        sites=names, seed=11, txn_timeout=15.0,
        retransmit_period=12.0,
        link=LinkConfig(base_delay=2.0, jitter=1.0),
        bundling=bundling))
    n_items = 32

    class Fanned:
        def __init__(self):
            self.next = {name: 0 for name in names}

        def make_spec(self, rng: random.Random,
                      site: str) -> TransactionSpec:
            peers = [peer for peer in names if peer != site]
            other = rng.choice(peers)
            base = self.next[site]
            self.next[site] = base + 3
            return TransactionSpec(ops=tuple(
                TransferOp(f"acct_{site}_{(base + j) % n_items}",
                           f"sink_{other}_{(base + j) % n_items}",
                           rng.randint(1, 4))
                for j in range(3)))

    for name in names:
        split = {peer: 50 for peer in names if peer != name}
        for index in range(n_items):
            system.add_item(f"acct_{name}_{index}", CounterDomain(),
                            split=split)
            system.add_item(f"sink_{name}_{index}", CounterDomain(),
                            split={peer: 1 for peer in names})
    config = WorkloadConfig(arrival_rate=0.3, duration=120.0)
    WorkloadDriver(system.sim, system, names, Fanned(), config,
                   Collector()).install()
    system.run_until(120.0)
    system.run_for(60.0)
    system.auditor.assert_ok()
    return system


class TestBundledSystem:
    @pytest.mark.parametrize("seed", range(3))
    def test_conservation_with_bundling(self, seed):
        system = build_system(seed=seed)
        drive_system(system)
        system.auditor.assert_ok()
        for site in system.sites.values():
            assert site.vm.check_accounting()
        assert len(system.committed()) > 0

    def test_fanned_transfers_suppress_acks(self):
        """Multi-op transfers toward one peer leave several same-instant
        data messages; the piggybacks they carry make the explicit acks
        redundant, and the coalescer counts every one it elides."""
        system = run_fanned(BundlingConfig(flush_delay=2.0))
        assert len(system.committed()) > 0
        assert system.sim.metrics.total("vm.acks_suppressed") > 0

    def test_bundling_cuts_envelopes_and_kernel_events(self):
        """What bundling is for, in counts: the same fanned transfers
        decide identically with fewer real envelopes and fewer kernel
        events — and without it no ack is ever suppressed."""
        off = run_fanned(None)
        bundled = run_fanned(BundlingConfig(flush_delay=2.0))
        assert len(off.results) == len(bundled.results)
        assert len(off.committed()) == len(bundled.committed()) > 0
        assert (bundled.sim.metrics.total("net.sent")
                < off.sim.metrics.total("net.sent"))
        assert bundled.sim.steps < off.sim.steps
        assert off.sim.metrics.total("vm.acks_suppressed") == 0

    def test_conservation_with_lossy_bundles(self):
        system = build_system(seed=2, link_kwargs={
            "loss_probability": 0.3})
        drive_system(system)
        system.auditor.assert_ok()
        assert system.sim.metrics.total("net.dropped.loss") > 0

    def test_duplicated_bundles_dedup_per_vm(self):
        """A link that duplicates every bundle redelivers whole payload
        lists; the per-channel sequence numbers discard the replays."""
        system = build_system(seed=3, link_kwargs={
            "duplicate_probability": 1.0})
        drive_system(system, duration=80.0, settle=200.0)
        system.auditor.assert_ok()
        assert system.sim.metrics.total("vm.duplicates") > 0

    def test_crash_recovery_rebuilds_accounting(self):
        system = build_system(seed=4, checkpoint_interval=20)
        config = WorkloadConfig(arrival_rate=0.1, duration=100.0,
                                mix=OpMix(reserve=0.6, cancel=0.4))
        source = AirlineWorkload(["item"], config)
        WorkloadDriver(system.sim, system, list(system.sites), source,
                       config, Collector()).install()
        system.run_until(40.0)
        system.crash("S1")
        system.run_for(10.0)
        system.recover("S1")
        system.run_until(100.0)
        system.run_for(300.0)
        system.auditor.assert_ok()
        for site in system.sites.values():
            assert site.vm.check_accounting()

    def test_outcomes_identical_with_and_without_bundling(self):
        """Conflict-free cross-site transfers decide identically under
        every transport mode; bundling may only change the wire."""
        def run(flush_delay):
            names = ["W", "X", "Y", "Z"]
            if flush_delay is None:
                bundling = None
            else:
                bundling = BundlingConfig(flush_delay=flush_delay)
            system = DvPSystem(SystemConfig(
                sites=names, seed=11, txn_timeout=15.0,
                link=LinkConfig(base_delay=2.0, jitter=1.0),
                bundling=bundling))
            for name in names:
                split = {peer: 50 for peer in names if peer != name}
                system.add_item(f"acct_{name}", CounterDomain(),
                                split=split)
                system.add_item(f"sink_{name}", CounterDomain(),
                                split={peer: 1 for peer in names})
            counters = {name: 0 for name in names}
            for start in range(0, 60, 10):
                for name in names:
                    other = names[(names.index(name) + 1) % len(names)]
                    counters[name] += 1
                    spec = TransactionSpec(ops=(
                        TransferOp(f"acct_{name}", f"sink_{other}", 2),))
                    system.sim.at(float(start + 1),
                                  lambda n=name, s=spec:
                                  system.submit(n, s))
            system.run_until(200.0)
            system.auditor.assert_ok()
            return (len(system.results), len(system.committed()))

        off = run(None)
        same_instant = run(0.0)
        windowed = run(2.0)
        assert off == same_instant == windowed
        assert off[0] > 0
