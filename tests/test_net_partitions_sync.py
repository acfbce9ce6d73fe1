"""Unit tests for partition schedules and the synchronous network."""

import pytest

from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.net.partitions import (
    PartitionEvent,
    PartitionSchedule,
    PartitionScheduler,
)
from repro.net.sync import SynchronousNetwork
from repro.sim.kernel import Simulator


class TestPartitionSchedule:
    def test_window_builder(self):
        schedule = PartitionSchedule.window(10.0, 20.0, [["A"], ["B"]])
        assert len(schedule.events) == 2
        assert schedule.events[0].time == 10.0
        assert not schedule.events[0].heals
        assert schedule.events[1].heals

    def test_window_rejects_reversed(self):
        with pytest.raises(ValueError):
            PartitionSchedule.window(20.0, 10.0, [["A"]])

    def test_fluent_chaining(self):
        schedule = PartitionSchedule().split_at(1.0, [["A"]]).heal_at(2.0)
        assert [event.time for event in schedule.events] == [1.0, 2.0]

    def test_event_groups_frozen(self):
        event = PartitionEvent(1.0, (("A",), ("B",)))
        assert event.groups == (("A",), ("B",))


class TestPartitionScheduler:
    def test_applies_split_and_heal(self):
        sim = Simulator()
        network = Network(sim)
        for name in ("A", "B"):
            network.register(name, lambda e: None)
        schedule = PartitionSchedule.window(5.0, 10.0, [["A"], ["B"]])
        PartitionScheduler(sim, network, schedule).install()
        sim.run_until(6.0)
        assert not network.reachable("A", "B")
        sim.run_until(11.0)
        assert network.reachable("A", "B")

    def test_records_applied_events(self):
        sim = Simulator()
        network = Network(sim)
        network.register("A", lambda e: None)
        scheduler = PartitionScheduler(
            sim, network, PartitionSchedule().heal_at(1.0))
        scheduler.install()
        sim.run()
        assert len(scheduler.applied) == 1


class TestSynchronousNetwork:
    def make(self):
        sim = Simulator(1)
        network = SynchronousNetwork(sim, delay=1.0)
        inboxes: dict[str, list] = {}
        for name in ("A", "B", "C", "D"):
            inboxes[name] = []
            network.register(
                name, lambda e, n=name: inboxes[n].append(e.payload))
        return sim, network, inboxes

    def test_constant_delay(self):
        sim, network, inboxes = self.make()
        network.send("A", "B", "x")
        sim.run()
        assert sim.now == 1.0

    def test_no_loss(self):
        sim, network, inboxes = self.make()
        for _ in range(50):
            network.send("A", "B", "x")
        sim.run()
        assert len(inboxes["B"]) == 50

    def test_order_synchronicity(self):
        # If C receives m_a (from A) before m_b (from B), then m_a was
        # sent earlier — equal constant delay guarantees it.
        sim, network, inboxes = self.make()
        network.send("A", "C", "first")
        sim.run_until(0.5)
        network.send("B", "C", "second")
        sim.run()
        assert inboxes["C"] == ["first", "second"]

    def test_simultaneous_broadcasts_same_order_everywhere(self):
        # Two sites broadcast at the same instant: every receiver must
        # observe the two broadcasts in the same (rank) order.
        sim, network, inboxes = self.make()
        sim.at(1.0, lambda: network.broadcast("B", "from-B"))
        sim.at(1.0, lambda: network.broadcast("A", "from-A"))
        sim.run()
        # A registered before B -> rank order puts A's message first.
        assert inboxes["C"] == ["from-A", "from-B"]
        assert inboxes["D"] == ["from-A", "from-B"]

    def test_partition_still_possible(self):
        sim, network, inboxes = self.make()
        network.partition([["A"], ["B", "C", "D"]])
        network.send("A", "B", "x")
        sim.run()
        assert inboxes["B"] == []
        assert sim.metrics.counter("net.dropped.partition").value == 1

    def test_unknown_destination(self):
        _sim, network, _ = self.make()
        with pytest.raises(KeyError):
            network.send("A", "Z", "x")
