"""Per-destination outboxes: coalescing payloads into bundles.

Section 4.2 lets *any number* of real messages carry a Vm, and lets one
real message carry many — cumulative acks are "piggybacked onto regular
messages". This module takes the second half literally: every payload a
site sends to the same destination within one *flush window* travels in
a single real envelope (a :class:`BundleEnvelope`), which pays for one
loss draw, one delay draw, one duplicate draw, and — the currency the
benchmarks actually measure — one kernel delivery event.

The bundle *grows in place*: the first payload toward an idle (src, dst)
pair opens a bundle, draws its transport fate immediately (in exactly
the order ``Network.send`` draws it for a single message, so RNG streams
are consumed identically), and schedules the one delivery event at
``open_time + flush_delay + drawn_delay``. Payloads enqueued before the
bundle departs (``now <= open_time + flush_delay``) simply append to the
open bundle's payload list — no extra kernel event, no rescheduling.
With the default ``flush_delay=0`` only same-instant payloads coalesce,
so a lone send behaves exactly like the unbundled transport.

Fate is atomic per bundle: a bundle that loses its loss draw, opens into
a partition, or hits a partition mid-flight drops *whole*, counted once
in ``net.dropped.*``. A doomed bundle still absorbs payloads until its
departure time passes — they all drop together, exactly as if one big
message was lost. Vm semantics are untouched either way: create/accept
log records define a Vm's existence, envelopes are only carriers, and
retransmission re-offers whatever a dropped bundle carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.net.network import Network


@dataclass(frozen=True)
class BundlingConfig:
    """Transport batching knobs.

    *flush_delay* is how long (in virtual time) a bundle stays open
    after its first payload: 0.0 coalesces only payloads enqueued at the
    same virtual instant (single-message behaviour is then identical to
    the unbundled transport); larger values trade added latency for
    bigger bundles and fewer real messages.
    """

    flush_delay: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.flush_delay < inf:
            raise ValueError("flush_delay must be >= 0 and finite")


@dataclass
class BundleEnvelope:
    """The payloads one real envelope carries, in enqueue order."""

    payloads: list[Any] = field(default_factory=list)


@dataclass
class _OpenBundle:
    """A bundle still accepting payloads (or doomed and absorbing them)."""

    src: str
    dst: str
    opened_at: float
    departs_at: float
    bundle: BundleEnvelope
    doomed: bool = False
    closed: bool = False


class Outbox:
    """Coalesces each (src, dst) pair's same-window payloads.

    Owned by :class:`~repro.net.network.Network` when bundling is
    enabled; ``Network.send`` routes payloads here instead of building
    one envelope each. The outbox reuses the network's links, partition
    map, and drop counters so the fault model and its accounting stay in
    one place.
    """

    def __init__(self, network: "Network", config: BundlingConfig) -> None:
        self._network = network
        self.config = config
        self._open: dict[tuple[str, str], _OpenBundle] = {}

    def close(self) -> None:
        """Forget the open bundles and the owning network."""
        self._open = {}
        self._network = None

    def enqueue(self, src: str, dst: str, payload: Any) -> None:
        """Add *payload* to the open bundle toward *dst*, or open one."""
        now = self._network.sim.now
        key = (src, dst)
        open_bundle = self._open.get(key)
        if open_bundle is not None and (open_bundle.closed
                                        or now > open_bundle.departs_at):
            # Delivered, or a doomed bundle whose window lapsed.
            del self._open[key]
            open_bundle = None
        if open_bundle is not None:
            open_bundle.bundle.payloads.append(payload)
            return
        self._open[key] = self._dispatch(src, dst, payload, now)

    def _dispatch(self, src: str, dst: str, payload: Any,
                  now: float) -> _OpenBundle:
        """Open a bundle: draw its fate once, schedule its one delivery.

        The fate is a single message's (``Link.fate``, as
        ``Network.send`` draws it), so enabling bundling never shifts a
        link's RNG stream.
        """
        net = self._network
        open_bundle = _OpenBundle(src, dst, opened_at=now,
                                  departs_at=now + self.config.flush_delay,
                                  bundle=BundleEnvelope([payload]))
        kind = type(payload).__name__
        net._c_sent.value += 1  # one real envelope, whatever its fate
        link = net.link(src, dst)
        delays = link.fate()
        if not delays:
            net._drop(src, dst, kind, partitioned=delays is None)
            open_bundle.doomed = True
            return open_bundle
        label = net._label(link, kind)
        for duplicated, delay in zip((False, True), delays):
            self._schedule(open_bundle, label,
                           self.config.flush_delay + delay, duplicated)
        return open_bundle

    def _schedule(self, open_bundle: _OpenBundle, label: str, delay: float,
                  duplicated: bool) -> None:
        net = self._network

        def deliver() -> None:
            # First delivery (original or link duplicate) closes the
            # bundle: later same-instant payloads must open a fresh one
            # rather than append to a list already handed out.
            self._close(open_bundle)
            net._deliver_bundle(open_bundle, duplicated)

        # Shard-routed like the unbundled transport: the delivery event
        # runs on the destination's shard (see Network.send).
        net._after_for_site(open_bundle.dst, delay, deliver, label=label)

    def _close(self, open_bundle: _OpenBundle) -> None:
        open_bundle.closed = True
        key = (open_bundle.src, open_bundle.dst)
        if self._open.get(key) is open_bundle:
            del self._open[key]
