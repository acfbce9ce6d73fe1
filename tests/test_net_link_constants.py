"""Per-link constants (DESIGN.md §7): what a ``Link`` carries so that a
send need not look it up must still follow every topology change —
including for envelopes already in flight on a link that has since
been reconfigured away."""

from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.net.sync import SynchronousNetwork
from repro.sim.kernel import Simulator


def _network(cls=Network, **kwargs):
    sim = Simulator(seed=3)
    network = cls(sim, **kwargs)
    inbox = []
    for name in "AB":
        network.register(name, inbox.append)
    return sim, network, inbox


def test_partition_swallows_a_message_in_flight_on_a_replaced_link():
    sim, network, inbox = _network(default_link=LinkConfig(base_delay=5.0))
    network.send("A", "B", "hello")
    network.configure_link("A", "B", LinkConfig(base_delay=1.0))
    network.partition([["A"], ["B"]])
    sim.run_until(10.0)
    assert inbox == []
    assert sim.metrics.counter("net.dropped.partition").value == 1
    network.heal()
    network.send("A", "B", "again")
    sim.run_until(20.0)
    assert [envelope.payload for envelope in inbox] == ["again"]


def test_handler_swap_reaches_messages_already_in_flight():
    sim, network, inbox = _network(default_link=LinkConfig(base_delay=5.0))
    network.send("A", "B", "hello")
    late = []
    network.replace_handler("B", late.append)
    sim.run_until(10.0)
    assert inbox == [] and [e.payload for e in late] == ["hello"]


def test_link_created_before_its_destination_registers():
    sim = Simulator(seed=3)
    network = Network(sim)
    network.configure_link("A", "C", LinkConfig(base_delay=2.0))
    got = []
    network.register("A", got.append)
    network.register("C", got.append)
    network.send("A", "C", 7)
    sim.run_until(5.0)
    assert [envelope.payload for envelope in got] == [7]


def test_delivery_labels_are_formatted_once_and_keep_their_text():
    sim, network, _ = _network()
    sim.enable_trace()
    for _ in range(3):
        network.send("A", "B", 1)
    network.send("A", "B", "x")
    sim.run_until(5.0)
    labels = [label for _time, label in sim.trace]
    assert labels == ["deliver:int:A->B"] * 3 + ["deliver:str:A->B"]
    assert network.link("A", "B").labels == {
        "int": "deliver:int:A->B", "str": "deliver:str:A->B"}


def test_synchronous_links_draw_nothing():
    sim, network, inbox = _network(SynchronousNetwork, delay=1.0)
    sim.enable_trace()
    network.send("A", "B", 1)
    sim.run_until(2.0)
    assert [label for _t, label in sim.trace] == ["sync-deliver:int:A->B"]
    assert network.link("A", "B")._rng is None
    assert len(inbox) == 1 and not inbox[0].duplicated
