"""Unit tests for links, the network, partitions and delivery."""

import pytest

from repro.net.link import Link, LinkConfig
from repro.net.message import Envelope
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams


def make_network(sim=None, **link_kwargs):
    sim = sim or Simulator(1)
    network = Network(sim, LinkConfig(**link_kwargs))
    inboxes: dict[str, list] = {}
    for name in ("A", "B", "C"):
        inboxes[name] = []
        network.register(name, inboxes[name].append)
    return sim, network, inboxes


def dropped(sim, cause):
    return sim.metrics.counter(f"net.dropped.{cause}").value


class TestLinkConfig:
    @pytest.mark.parametrize("kwargs", [
        {"base_delay": -1.0},
        {"jitter": -0.1},
        {"loss_probability": 1.5},
        {"loss_probability": -0.1},
        {"duplicate_probability": 2.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkConfig(**kwargs)

    def test_defaults_are_reliable(self):
        config = LinkConfig()
        assert config.loss_probability == 0.0
        assert config.duplicate_probability == 0.0


class TestLink:
    def test_delay_without_jitter_is_constant(self):
        link = Link("A", "B", LinkConfig(base_delay=2.0),
                    RandomStreams(1).stream("l"))
        assert all(link.fate() == (2.0,) for _ in range(5))

    def test_delay_with_jitter_in_bounds(self):
        link = Link("A", "B", LinkConfig(base_delay=2.0, jitter=1.0),
                    RandomStreams(1).stream("l"))
        for _ in range(100):
            (delay,) = link.fate()
            assert 2.0 <= delay <= 3.0

    def test_down_link_drops_everything(self):
        link = Link("A", "B", LinkConfig(), RandomStreams(1).stream("l"))
        link.fail()
        assert all(link.fate() == () for _ in range(10))
        assert link.losses == 10 and link.transmissions == 10
        link.restore()
        assert link.fate() == (1.0,)

    def test_loss_rate_statistics(self):
        link = Link("A", "B", LinkConfig(loss_probability=0.5),
                    RandomStreams(1).stream("l"))
        drops = sum(not link.fate() for _ in range(2000))
        assert 850 < drops < 1150
        assert link.losses == drops

    def test_duplicate_counter(self):
        link = Link("A", "B", LinkConfig(duplicate_probability=1.0,
                                         jitter=0.5),
                    RandomStreams(1).stream("l"))
        first, second = link.fate()
        assert 1.0 <= first <= 1.5 and 1.0 <= second <= 1.5
        assert link.duplicates == 1

    def test_partition_wins_over_loss(self):
        link = Link("A", "B", LinkConfig(loss_probability=1.0),
                    RandomStreams(1).stream("l"))
        link.dst_end.group = 1
        assert link.fate() is None
        assert link.losses == 1  # the loss draw still counts on the link


class TestNetwork:
    def test_delivery(self):
        sim, network, inboxes = make_network(base_delay=2.0)
        network.send("A", "B", "hello")
        sim.run()
        assert [envelope.payload for envelope in inboxes["B"]] == ["hello"]
        assert sim.now == 2.0

    def test_duplicate_registration_rejected(self):
        _sim, network, _ = make_network()
        with pytest.raises(ValueError):
            network.register("A", lambda e: None)

    def test_unknown_destination_rejected(self):
        _sim, network, _ = make_network()
        with pytest.raises(KeyError):
            network.send("A", "Zebra", "x")

    def test_send_counts_by_kind(self):
        sim, network, _ = make_network()
        network.send("A", "B", "payload")
        assert network.sent_counts["str"] == 1
        sim.run()
        assert network.delivered_counts["str"] == 1

    def test_partition_blocks_cross_group(self):
        sim, network, inboxes = make_network()
        network.partition([["A"], ["B", "C"]])
        network.send("A", "B", "lost")
        network.send("B", "C", "kept")
        sim.run()
        assert inboxes["B"] == []
        assert [e.payload for e in inboxes["C"]] == ["kept"]
        assert dropped(sim, "partition") == 1

    def test_partition_drop_is_silent(self):
        sim, network, inboxes = make_network()
        network.partition([["A"], ["B"]])
        network.send("A", "B", "x")
        sim.run()  # no exception, no delivery, no notification
        assert inboxes["B"] == []

    def test_unlisted_sites_form_leftover_group(self):
        _sim, network, _ = make_network()
        network.partition([["A"]])
        assert network.reachable("B", "C")
        assert not network.reachable("A", "B")

    def test_partition_unknown_site_rejected(self):
        _sim, network, _ = make_network()
        with pytest.raises(KeyError):
            network.partition([["Zebra"]])

    def test_partition_duplicate_site_rejected(self):
        _sim, network, _ = make_network()
        with pytest.raises(ValueError):
            network.partition([["A"], ["A"]])

    def test_heal_restores_reachability(self):
        sim, network, inboxes = make_network()
        network.partition([["A"], ["B"]])
        network.heal()
        network.send("A", "B", "x")
        sim.run()
        assert len(inboxes["B"]) == 1
        assert not network.partitioned

    def test_partitioned_property(self):
        _sim, network, _ = make_network()
        assert not network.partitioned
        network.partition([["A"], ["B", "C"]])
        assert network.partitioned

    def test_message_in_flight_swallowed_by_partition(self):
        sim, network, inboxes = make_network(base_delay=5.0)
        network.send("A", "B", "doomed")
        sim.run_until(1.0)
        network.partition([["A"], ["B", "C"]])
        sim.run()
        assert inboxes["B"] == []
        assert dropped(sim, "partition") == 1

    def test_loss_drops_messages(self):
        sim, network, inboxes = make_network(loss_probability=1.0)
        network.send("A", "B", "x")
        sim.run()
        assert inboxes["B"] == []
        assert dropped(sim, "loss") == 1

    def test_duplication_delivers_twice(self):
        sim, network, inboxes = make_network(duplicate_probability=1.0)
        network.send("A", "B", "x")
        sim.run()
        assert len(inboxes["B"]) == 2
        assert inboxes["B"][1].duplicated

    def test_jitter_can_reorder(self):
        sim = Simulator(3)
        network = Network(sim, LinkConfig(base_delay=1.0, jitter=5.0))
        received = []
        network.register("A", lambda e: None)
        network.register("B", lambda e: received.append(e.payload))
        for index in range(30):
            network.send("A", "B", index)
        sim.run()
        assert sorted(received) == list(range(30))
        assert received != list(range(30))

    def test_configure_link_overrides(self):
        sim, network, inboxes = make_network(base_delay=1.0)
        network.configure_link("A", "B", LinkConfig(base_delay=9.0))
        network.send("A", "B", "x")
        sim.run()
        assert sim.now == 9.0

    def test_inject_link_fault_shadows_base_config(self):
        sim, network, inboxes = make_network(base_delay=1.0)
        network.inject_link_fault("A", "B", LinkConfig(base_delay=9.0))
        network.send("A", "B", "slow")
        sim.run()
        assert sim.now == 9.0
        network.clear_link_fault("A", "B")
        network.send("A", "B", "fast")
        sim.run()
        assert sim.now == 10.0

    def test_clear_all_link_faults_restores_down_links(self):
        sim, network, inboxes = make_network()
        network.inject_link_fault("A", "B",
                                  LinkConfig(loss_probability=1.0))
        network.link("A", "B").fail()
        network.clear_all_link_faults()
        network.send("A", "B", "x")
        sim.run()
        assert [e.payload for e in inboxes["B"]] == ["x"]

    def test_replace_handler(self):
        sim, network, inboxes = make_network()
        replacement: list = []
        network.replace_handler("B", replacement.append)
        network.send("A", "B", "x")
        sim.run()
        assert inboxes["B"] == []
        assert len(replacement) == 1

    def test_replace_handler_unknown_site(self):
        _sim, network, _ = make_network()
        with pytest.raises(KeyError):
            network.replace_handler("Zebra", lambda e: None)

    def test_partition_plus_loss_counted_once(self):
        # Regression: a message eaten by the partition while the link
        # would also have dropped it must be counted exactly once,
        # attributed to the partition (which takes precedence).
        sim, network, inboxes = make_network(loss_probability=1.0)
        network.partition([["A"], ["B", "C"]])
        network.send("A", "B", "x")
        sim.run()
        assert inboxes["B"] == []
        assert dropped(sim, "partition") == 1
        assert dropped(sim, "loss") == 0

    def test_loss_stream_not_perturbed_by_partition(self):
        # The loss draw is sampled whether or not the partition eats
        # the message, so a partition window never shifts the loss
        # outcomes of later sends (fault plans stay composable).
        deliveries = []
        for with_partition in (False, True):
            sim, network, inboxes = make_network(loss_probability=0.5)
            if with_partition:
                network.partition([["A"], ["B", "C"]])
                network.send("A", "B", "eaten")
                network.heal()
            else:
                # A down link takes the loss draw and nothing else.
                network.link("A", "B").fail()
                network.send("A", "B", "eaten")
                network.link("A", "B").restore()
            for index in range(20):
                network.send("A", "B", index)
            sim.run()
            deliveries.append([e.payload for e in inboxes["B"]])
        assert deliveries[0] == deliveries[1]

    def test_envelope_metadata(self):
        sim, network, inboxes = make_network(base_delay=1.5)
        network.send("A", "B", 42)
        sim.run()
        envelope = inboxes["B"][0]
        assert isinstance(envelope, Envelope)
        assert envelope.src == "A"
        assert envelope.dst == "B"
        assert envelope.sent_at == 0.0
        assert envelope.payload == 42
