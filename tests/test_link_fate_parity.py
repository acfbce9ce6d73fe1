"""One-call link fate against the four-call reference.

Hypothesis drives random schedules — sends on every directed pair,
loss, duplication and jitter in the base config, fault windows shadowing
it, links taken down and restored, partitions and heals (also while
envelopes are in flight), with and without bundling — through the real
:class:`~repro.net.network.Network` and through
:class:`~tests.fate_reference.ReferenceNetwork`, on the same seed. Both
must leave identical link counters (``transmissions``, ``losses``,
``duplicates``), identical ``net.dropped.partition`` /
``net.dropped.loss`` and ``net.sent``, and deliver the same envelopes at
the same instants in the same order.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.link import LinkConfig
from repro.net.network import Network
from repro.net.outbox import BundlingConfig
from repro.sim.kernel import Simulator
from tests.fate_reference import ReferenceNetwork

SITES = ("A", "B", "C")
_PAIRS = [(src, dst) for src in SITES for dst in SITES if src != dst]

_configs = st.builds(
    LinkConfig,
    base_delay=st.sampled_from([0.0, 0.5, 1.0, 2.25]),
    jitter=st.sampled_from([0.0, 0.7, 3.0]),
    loss_probability=st.sampled_from([0.0, 0.3, 1.0]),
    duplicate_probability=st.sampled_from([0.0, 0.4, 1.0]))

_pair = st.sampled_from(_PAIRS)

_ops = st.lists(st.one_of(
    st.tuples(st.just("send"), _pair),
    st.tuples(st.just("send"), _pair),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.25, 1.0, 2.5])),
    st.tuples(st.just("fault"), st.tuples(_pair, _configs)),
    st.tuples(st.just("clear"), _pair),
    st.tuples(st.just("down"), _pair),
    st.tuples(st.just("up"), _pair),
    st.tuples(st.just("split"), st.sampled_from(
        [[["A"], ["B", "C"]], [["A", "B"], ["C"]], [["B"]]])),
    st.tuples(st.just("heal"), st.none()),
), min_size=1, max_size=60)

_bundling = st.sampled_from([None, BundlingConfig(0.0),
                             BundlingConfig(0.5)])


def _observe(network_class, seed, base, bundling, ops):
    sim = Simulator(seed)
    network = network_class(sim, base, bundling=bundling)
    deliveries = []
    for name in SITES:
        network.register(name, lambda envelope, sim=sim: deliveries.append(
            (sim.now, envelope.src, envelope.dst, envelope.payload,
             envelope.sent_at, envelope.duplicated)))
    sent = 0
    for kind, value in ops:
        if kind == "send":
            network.send(*value, sent)
            sent += 1
        elif kind == "run":
            sim.run_until(sim.now + value)
        elif kind == "fault":
            network.inject_link_fault(*value[0], value[1])
        elif kind == "clear":
            network.clear_link_fault(*value)
        elif kind == "down":
            network.link(*value).fail()
        elif kind == "up":
            network.link(*value).restore()
        elif kind == "split":
            network.partition(value)
        else:
            network.heal()
    sim.run()
    links = {pair: (link.transmissions, link.losses, link.duplicates)
             for pair, link in sorted(network._links.items())}
    counters = {name: sim.metrics.counter(name).value
                for name in ("net.sent", "net.delivered",
                             "net.dropped.partition", "net.dropped.loss")}
    return links, counters, deliveries


@given(seed=st.integers(min_value=0, max_value=2**16), base=_configs,
       bundling=_bundling, ops=_ops)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_one_call_fate_matches_the_four_call_reference(seed, base,
                                                      bundling, ops):
    assert _observe(Network, seed, base, bundling, ops) == \
        _observe(ReferenceNetwork, seed, base, bundling, ops)


def test_reference_is_exercised():
    """The schedule space reaches every outcome: losses, duplicates,
    both drop causes and deliveries all occur on one fixed script."""
    ops = [("send", ("A", "B"))] * 30 + [
        ("split", [["A"], ["B", "C"]]), ("send", ("A", "B")),
        ("heal", None), ("down", ("A", "C")), ("send", ("A", "C"))]
    links, counters, deliveries = _observe(
        ReferenceNetwork, 3, LinkConfig(jitter=1.0, loss_probability=0.3,
                                        duplicate_probability=0.3),
        None, ops)
    assert links["A", "B"][1] > 0 and links["A", "B"][2] > 0
    assert counters["net.dropped.partition"] >= 1
    assert counters["net.dropped.loss"] >= 2
    assert any(delivery[-1] for delivery in deliveries)
