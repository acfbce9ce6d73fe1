"""Unit tests for the synchronous network."""

import pytest

from repro.net.sync import SynchronousNetwork
from repro.sim.kernel import Simulator


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

        def broadcast(src, payload):
            for dst in inboxes:
                if dst != src:
                    network.send(src, dst, payload)

        sim.at(1.0, lambda: broadcast("B", "from-B"))
        sim.at(1.0, lambda: broadcast("A", "from-A"))
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
