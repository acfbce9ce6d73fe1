"""A link's transmission fate, drawn the four-call way.

``Link.fate`` draws one transmission's whole fate in one call: loss,
reachability, delay, duplicate. Before it, ``Network.send`` and the
bundling ``Outbox`` made four calls per envelope — the loss draw, the
reachability check, the delay draw and the duplicate draw (plus the
duplicate's delay), each re-reading the link's config. This module
keeps that sequence as the *reference* (as ``tests/heap_queue.py``
keeps a heap of bare events beside the kernel's queue):
``tests/test_link_fate_parity.py`` runs random schedules of sends,
fault windows, down links, partitions and bundles through a
:class:`ReferenceNetwork` and through the real :class:`Network`, and
demands identical link counters, drop counters and delivery instants.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.net.message import Envelope
from repro.net.network import Network
from repro.net.outbox import BundleEnvelope, Outbox, _OpenBundle


def _lose(link) -> bool:
    """The loss draw, counted either way. Drawn even while the link is
    down, so a down window never shifts the draws made after it."""
    link.transmissions += 1
    lost = link._rng.random() < \
        (link._fault or link.config).loss_probability
    if not link.up or lost:
        link.losses += 1
        return True
    return False


def _passes(network: Network, link) -> bool:
    """Loss, then reachability; a message both partitioned and lost
    counts once, as partitioned."""
    lost = _lose(link)
    if link.src_end.group != link.dst_end.group:
        network._c_dropped_partition.value += 1
        return False
    if lost:
        network._c_dropped_loss.value += 1
    return not lost


def _delay(link) -> float:
    config = link._fault or link.config
    if config.jitter == 0:
        return config.base_delay
    return config.base_delay + link._rng.uniform(0.0, config.jitter)


def _duplicate(link) -> bool:
    if link._rng.random() < \
            (link._fault or link.config).duplicate_probability:
        link.duplicates += 1
        return True
    return False


class ReferenceOutbox(Outbox):
    """The outbox, opening each bundle with the four calls."""

    def _dispatch(self, src: str, dst: str, payload: Any,
                  now: float) -> _OpenBundle:
        net = self._network
        open_bundle = _OpenBundle(src, dst, opened_at=now,
                                  departs_at=now + self.config.flush_delay,
                                  bundle=BundleEnvelope([payload]))
        kind = type(payload).__name__
        net._c_sent.value += 1
        link = net.link(src, dst)
        if not _passes(net, link):
            open_bundle.doomed = True
            return open_bundle
        label = f"{net.delivery_label}:{kind}:{src}->{dst}"
        self._schedule(open_bundle, label,
                       self.config.flush_delay + _delay(link),
                       duplicated=False)
        if _duplicate(link):
            self._schedule(open_bundle, label,
                           self.config.flush_delay + _delay(link),
                           duplicated=True)
        return open_bundle


class ReferenceNetwork(Network):
    """The network, sending each envelope with the four calls.

    The trace bus is not fed: the parity test compares counters and
    deliveries, not trace events."""

    def __init__(self, sim, default_link=None, bundling=None) -> None:
        super().__init__(sim, default_link, bundling)
        if bundling is not None:
            self._outbox = ReferenceOutbox(self, bundling)

    def send(self, src: str, dst: str, payload: Any) -> None:
        if dst not in self._handlers:
            raise KeyError(f"unknown destination {dst!r}")
        kind = type(payload).__name__
        self.sent_counts[kind] += 1
        if self._outbox is not None:
            self._outbox.enqueue(src, dst, payload)
            return
        self._c_sent.value += 1
        link = self.link(src, dst)
        if not _passes(self, link):
            return
        now = self.sim.now
        label = f"{self.delivery_label}:{kind}:{src}->{dst}"
        self.sim.after_for_site(
            dst, _delay(link),
            partial(self._deliver, link, Envelope(src, dst, payload, now),
                    kind), label=label)
        if _duplicate(link):
            self.sim.after_for_site(
                dst, _delay(link),
                partial(self._deliver, link,
                        Envelope(src, dst, payload, now, duplicated=True),
                        kind), label=label)
