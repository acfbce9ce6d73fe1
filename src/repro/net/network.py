"""The network: site registry, routing, partitions, failure injection."""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Callable, Iterable

from repro.net.link import Endpoint, Link, LinkConfig
from repro.net.message import Envelope
from repro.net.outbox import BundlingConfig, Outbox, _OpenBundle
from repro.sim.kernel import Simulator

Handler = Callable[[Envelope], None]


class Network:
    """Connects named sites with failure-prone point-to-point links.

    Sites register a delivery handler. :meth:`send` consults the
    partition map and the directed link, then either drops the message
    silently (the paper's model: no failure notifications, ever) or
    schedules delivery after the link's sampled delay.
    """

    #: Kernel-event label prefix of a scheduled delivery.
    delivery_label = "deliver"

    def __init__(self, sim: Simulator,
                 default_link: LinkConfig | None = None,
                 bundling: BundlingConfig | None = None) -> None:
        self.sim = sim
        self.default_link = default_link or LinkConfig()
        self._handlers: dict[str, Handler] = {}
        #: Bumped by register(); sites key their cached peers on it.
        self.membership = 0
        self._links: dict[tuple[str, str], Link] = {}
        #: Per site, its partition group and handler (see Endpoint).
        self._ends: dict[str, Endpoint] = {}
        self._up: dict[str, bool] = {}
        self.sent_counts: Counter[str] = Counter()
        self.delivered_counts: Counter[str] = Counter()
        self._obs = sim.obs
        self._after_for_site = sim.after_for_site
        self._c_dropped_partition = sim.metrics.counter(
            "net.dropped.partition")
        self._c_dropped_loss = sim.metrics.counter("net.dropped.loss")
        self._c_sent = sim.metrics.counter("net.sent")
        self._c_delivered = sim.metrics.counter("net.delivered")
        # Transport bundling (repro.net.outbox): when enabled, send()
        # routes payloads through per-(src, dst) outboxes and net.sent /
        # net.delivered count real envelopes (bundles) while the
        # per-kind sent_counts / delivered_counts keep counting logical
        # payloads. None (the default) keeps the one-envelope-per-send
        # path below byte-for-byte untouched.
        self._outbox: Outbox | None = None
        self._h_bundle_size = None
        if bundling is not None:
            self._outbox = Outbox(self, bundling)
            self._h_bundle_size = sim.metrics.histogram("net.bundle.size")

    # -- topology ---------------------------------------------------------

    @property
    def sites(self) -> list[str]:
        return list(self._handlers)

    def register(self, name: str, handler: Handler) -> None:
        """Attach a site; *handler* receives each delivered envelope."""
        if name in self._handlers:
            raise ValueError(f"site {name!r} already registered")
        self._handlers[name] = handler
        self._up[name] = True
        self.membership += 1
        end = self._end(name)
        end.group, end.handler = 0, handler

    def replace_handler(self, name: str, handler: Handler) -> None:
        """Swap a site's delivery handler (used when a site restarts)."""
        if name not in self._handlers:
            raise KeyError(name)
        self._handlers[name] = self._ends[name].handler = handler

    def _end(self, name: str) -> Endpoint:
        """*name*'s endpoint; a site not (yet) registered is in no group."""
        end = self._ends.get(name)
        if end is None:
            end = self._ends[name] = Endpoint()
        return end

    def link(self, src: str, dst: str) -> Link:
        """The directed link src->dst, created on first use."""
        link = self._links.get((src, dst))
        if link is None:
            link = self.configure_link(src, dst, self.default_link)
        return link

    def _new_link(self, src: str, dst: str, config: LinkConfig) -> Link:
        return Link(src, dst, config,
                    self.sim.rng.stream(f"link:{src}->{dst}"),
                    self._end(src), self._end(dst))

    def configure_link(self, src: str, dst: str,
                       config: LinkConfig) -> Link:
        """Override one directed link's behaviour."""
        self._links[src, dst] = link = self._new_link(src, dst, config)
        return link

    def delay_lower_bound(self) -> float:
        """The least delay any message on any link can have.

        The sharded kernel's conservative lookahead (repro.sim.shard)
        must lower-bound every cross-shard delivery delay; since any
        link may cross a shard boundary, the network-wide minimum over
        the default and every explicitly configured link is the safe
        bound.
        """
        bound = self.default_link.delay_lower_bound
        for link in self._links.values():
            bound = min(bound, link.config.delay_lower_bound)
        return bound

    def close(self) -> None:
        """The system is closing: let go of the sites' handlers (bound
        methods of sites that hold this network), of the links and the
        endpoints they share, and of the outbox's way back here.
        Send/delivery/drop counts stay readable."""
        for end in self._ends.values():
            end.handler = None
        self._handlers = {}
        self._ends = {}
        self._links = {}
        if self._outbox is not None:
            self._outbox.close()

    # -- scripted link faults (chaos engine) ------------------------------

    def inject_link_fault(self, src: str, dst: str,
                          config: LinkConfig) -> None:
        """Shadow the directed link src->dst with *config* until cleared.

        Unlike :meth:`configure_link` this never replaces the link
        object (its RNG stream and counters continue), so a fault
        window composes cleanly with replay: the same seed makes the
        same draws, only the thresholds differ inside the window.
        """
        self.link(src, dst).inject_fault(config)

    def clear_link_fault(self, src: str, dst: str) -> None:
        key = (src, dst)
        if key in self._links:
            self._links[key].clear_fault()

    def clear_all_link_faults(self) -> None:
        """Lift every injected fault window (chaos settle phase)."""
        for link in self._links.values():
            link.clear_fault()
            link.restore()

    # -- liveness registry -------------------------------------------------

    def note_down(self, name: str) -> None:
        """Record that *name* crashed (called by ``DvPSystem.crash``).

        Planning-only input: the transport semantics are unchanged — a
        message to a down site is still silently dropped, never
        reported. Consumers (the rebalance daemon) use it to avoid
        *choosing* to ship value at a site known to be dead, standing
        in for the failure detector a deployment would run out of band.
        """
        if name in self._handlers:
            self._up[name] = False

    def note_up(self, name: str) -> None:
        """Record that *name* recovered."""
        if name in self._handlers:
            self._up[name] = True

    def is_up(self, name: str) -> bool:
        """Last known liveness of *name* (unknown sites default to up)."""
        return self._up.get(name, True)

    # -- partitions -------------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network; sites in different groups cannot talk.

        Unlisted sites land in an implicit final group together.
        """
        assignment: dict[str, int] = {}
        group_id = 0
        for group_id, group in enumerate(groups):
            for name in group:
                if name not in self._handlers:
                    raise KeyError(f"unknown site {name!r}")
                if name in assignment:
                    raise ValueError(f"site {name!r} in two groups")
                assignment[name] = group_id
        leftover = group_id + 1
        for name in self._handlers:
            assignment.setdefault(name, leftover)
        for name, group in assignment.items():
            self._ends[name].group = group

    def heal(self) -> None:
        """Undo any partition; all sites reachable again."""
        for name in self._handlers:
            self._ends[name].group = 0

    def reachable(self, src: str, dst: str) -> bool:
        return self._end(src).group == self._end(dst).group

    @property
    def partitioned(self) -> bool:
        return len({self._ends[name].group
                    for name in self._handlers}) > 1

    # -- transport --------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Send *payload* from *src* to *dst*; may silently drop it."""
        if dst not in self._handlers:
            raise KeyError(f"unknown destination {dst!r}")
        kind = type(payload).__name__
        self.sent_counts[kind] += 1
        obs = self._obs
        if obs.enabled:
            obs.emit("net.send", self.sim.now, src=src, dst=dst,
                     payload=kind)
        if self._outbox is not None:
            self._outbox.enqueue(src, dst, payload)
            return
        self._c_sent.value += 1
        link = self._links.get((src, dst)) or self.link(src, dst)
        delays = link.fate()
        if not delays:
            self._drop(src, dst, kind, partitioned=delays is None)
            return
        now = self.sim.now
        label = link.labels.get(kind) or self._label(link, kind)
        # Routed to the destination's shard when the simulation is
        # sharded (repro.sim.shard): delivery events mutate receiver
        # state, and the link's delay lower bound is exactly what the
        # sharded kernel's lookahead is derived from.
        self._after_for_site(dst, delays[0], partial(
            self._deliver, link, Envelope(src, dst, payload, now), kind),
            label=label)
        if len(delays) > 1:
            self._after_for_site(dst, delays[1], partial(
                self._deliver, link,
                Envelope(src, dst, payload, now, duplicated=True), kind),
                label=label)

    def _drop(self, src: str, dst: str, kind: str,
              partitioned: bool = True) -> None:
        """Count one envelope dropped by a partition (or by the link):
        ``net.dropped.partition`` + ``net.dropped.loss`` + deliveries
        scheduled always equals sends."""
        if partitioned:
            self._c_dropped_partition.value += 1
            event = "net.drop-partition"
        else:
            self._c_dropped_loss.value += 1
            event = "net.drop-loss"
        if self._obs.enabled:
            self._obs.emit(event, self.sim.now, src=src, dst=dst,
                           payload=kind)

    def _label(self, link: Link, kind: str) -> str:
        """A delivery's kernel-event label, formatted once per kind."""
        label = link.labels.get(kind)
        if label is None:
            label = link.labels[kind] = \
                f"{self.delivery_label}:{kind}:{link.src}->{link.dst}"
        return label

    def _deliver(self, link: Link, envelope: Envelope, kind: str) -> None:
        """The kernel event of one envelope arriving over *link*."""
        # Re-check reachability at delivery time: a partition that
        # strikes while the message is in flight swallows it.
        if link.src_end.group != link.dst_end.group:
            self._drop(link.src, link.dst, kind)
            return
        self.delivered_counts[kind] += 1
        self._c_delivered.value += 1
        if self._obs.enabled:
            self._obs.emit("net.deliver", self.sim.now, src=link.src,
                           dst=link.dst, payload=kind)
        link.dst_end.handler(envelope)

    def _deliver_bundle(self, open_bundle: _OpenBundle,
                        duplicated: bool) -> None:
        """Deliver one bundle: unpack payloads in enqueue order.

        The bundle is one real envelope, so the in-flight partition
        check swallows it whole (one ``net.dropped.partition``) and a
        successful delivery counts once in ``net.delivered``; the
        receiver's handler then runs once per logical payload, each
        wrapped in a fresh :class:`Envelope` stamped with the bundle's
        open time.
        """
        src, dst = open_bundle.src, open_bundle.dst
        payloads = open_bundle.bundle.payloads
        now = self.sim.now
        if not self.reachable(src, dst):
            self._drop(src, dst, type(payloads[0]).__name__)
            return
        self._c_delivered.value += 1
        self._h_bundle_size.observe(len(payloads))
        if self._obs.enabled:
            self._obs.emit("net.bundle", now, src=src, dst=dst,
                           size=len(payloads))
        handler = self._handlers[dst]
        for payload in payloads:
            kind = type(payload).__name__
            self.delivered_counts[kind] += 1
            if self._obs.enabled:
                self._obs.emit("net.deliver", now, src=src, dst=dst,
                               payload=kind)
            handler(Envelope(src, dst, payload,
                             sent_at=open_bundle.opened_at,
                             duplicated=duplicated))

    # -- metrics ----------------------------------------------------------

    @property
    def total_sent(self) -> int:
        return sum(self.sent_counts.values())
