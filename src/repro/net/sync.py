"""Order-synchronous network mode required by Conc2 (Section 6.2).

The paper's two-phase-locking scheme is only sound when the network
guarantees *message-order synchronicity*: if site k receives m_i (from
s_i) before m_j (from s_j), then m_i was sent earlier in real time, with
simultaneous sends tie-broken by a total order on sites — and broadcasts
are atomic (no partial failure while sending).

We realize those axioms with a constant network delay and a delivery
priority derived from (send time, sender rank, send sequence): every
receiver then observes all broadcasts in the same global order.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.net.link import Link, LinkConfig
from repro.net.message import Envelope
from repro.net.network import Network
from repro.obs.events import NetSend
from repro.sim.kernel import Simulator


class SynchronousNetwork(Network):
    """A lossless, constant-delay network with totally ordered delivery."""

    delivery_label = "sync-deliver"

    def __init__(self, sim: Simulator, delay: float = 1.0) -> None:
        super().__init__(sim, LinkConfig(base_delay=delay, jitter=0.0))
        self.delay = delay
        self._site_rank: dict[str, int] = {}

    def register(self, name: str, handler) -> None:
        super().register(name, handler)
        # Rank by registration order: the paper's "total order on sites".
        self._site_rank[name] = len(self._site_rank)

    def _new_link(self, src: str, dst: str, config: LinkConfig) -> Link:
        # Lossless and constant-delay: a synchronous link never draws,
        # so it gets no RNG stream (and _link_gauges no fate to show).
        return Link(src, dst, config, None, self._end(src), self._end(dst))

    def _link_gauges(self):
        return ()

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Constant-delay, loss-free, priority-ordered delivery."""
        if dst not in self._handlers:
            raise KeyError(f"unknown destination {dst!r}")
        kind = type(payload).__name__
        now = self.sim.now
        self.sent_counts[kind] += 1
        self._c_sent.inc()
        if self._obs.enabled:
            self._obs.emit(NetSend(t=now, src=src, dst=dst, payload=kind))
        link = self.link(src, dst)
        if link.src_end.group != link.dst_end.group:
            # Partitions are outside Conc2's assumptions, but the mode is
            # still usable under them so E10 can demonstrate the unsoundness.
            self._drop(src, dst, kind)
            return
        # Equal delay keeps send order and arrival order identical;
        # priority breaks simultaneous sends by sender rank at EVERY
        # receiver, which yields the common global order Conc2 needs.
        # Site-routed for shard placement, like the async transport.
        self.sim.at_site(
            dst, now + self.delay,
            partial(self._deliver, link, Envelope(src, dst, payload, now),
                    kind),
            priority=self._site_rank[src], label=self._label(link, kind))
