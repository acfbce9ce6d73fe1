"""The hybrid mode manager.

Wraps a :class:`~repro.core.system.DvPSystem`. Every item starts in
DvP mode. ``consolidate(item, home)`` runs a full-read transaction at
*home*; when it commits, the entire value sits in home's fragment and
the item flips to CENTRAL mode. From then on the manager routes
transactions: submissions at the home run as ordinary local DvP
transactions (the fragment IS the value); submissions elsewhere are
forwarded to the home over the network and decided there (the origin
applies its usual timeout, so the non-blocking bound survives — a
partition just means forwarded transactions abort, like any traditional
system). ``deconsolidate(item, split)`` ships quotas back out as Rds
transactions and flips the item back to DVP mode.

Mode metadata is manager-local (a client-side routing table), not
replicated state: misrouted submissions degrade to ordinary DvP
behaviour, never to inconsistency — the underlying protocol is mode
oblivious.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.baselines.common import Timers
from repro.core.site import SiteDown
from repro.core.system import DvPSystem
from repro.core.transactions import (
    ApplyOp,
    Outcome,
    ReadFullOp,
    ReadLocalOp,
    TransactionSpec,
    TxnResult,
)
from repro.net.message import Envelope


class ItemMode(enum.Enum):
    DVP = "dvp"
    CENTRAL = "central"


@dataclass(frozen=True)
class ForwardRequest:
    """A transaction shipped to a centralized item's home site."""

    forward_id: int
    origin: str
    spec: TransactionSpec


@dataclass(frozen=True)
class ForwardReply:
    forward_id: int
    outcome: Outcome
    reason: str
    read_values: tuple[tuple[str, Any], ...] = ()
    delta_row: tuple = ()  # TxnResult.delta_row


@dataclass
class _PendingForward:
    spec: TransactionSpec
    origin: str
    submitted_at: float
    on_done: Callable[[TxnResult], None] | None


class HybridSystem:
    """Mode-aware routing façade over a DvPSystem.

    With ``path_sensitive=True`` the manager applies Soethout et al.'s
    local coordination avoidance (*Path-Sensitive Atomic Commit*,
    PAPERS.md) before forwarding: if every path through the submitted
    spec provably commits from the origin's local fragment alone —
    update-only ops whose aggregate needs the fragment covers;
    increments trivially qualify — the transaction is decided locally
    as an ordinary DvP transaction instead of round-tripping to the
    centralized home. The underlying protocol is mode-oblivious, so
    the fast path can never create inconsistency; its only cost is
    dispersal (the home's fragment stops being the whole value, so
    full reads there lose the free-local rewrite until the next
    consolidation).

    It answers the :class:`~repro.core.system.System` contract:
    ``submit`` is the routing one below, everything else is the wrapped
    system's (``close()`` included — the forward deadlines are attached
    to it, so closing the system cancels them).
    """

    def __init__(self, system: DvPSystem,
                 path_sensitive: bool = False) -> None:
        self.system = system
        self.path_sensitive = path_sensitive
        self.modes: dict[str, ItemMode] = {}
        self.homes: dict[str, str] = {}
        self._c_local = system.sim.metrics.counter("hybrid.local_commits")
        self._c_forward = system.sim.metrics.counter("hybrid.forwards")
        #: Centralized items whose value leaked away from the home via
        #: path-sensitive local commits at other sites; their full
        #: reads must fan out again until re-consolidated.
        self._dispersed: set[str] = set()
        self._forward_ids = itertools.count(1)
        self._pending: dict[int, _PendingForward] = {}
        self._deadlines = Timers(system.sim, system.config, "forward")
        system.attach(self._deadlines)
        # Interpose on every site's delivery to catch Forward* payloads,
        # and on each recovered incarnation's.
        for site in system.sites.values():
            self._interpose(site)
        system.on_recover.append(self._interpose)

    def __getattr__(self, name: str) -> Any:
        # Whatever the manager does not route or track itself — the
        # rest of the System contract, the auditor — is the wrapped
        # system's.
        return getattr(self.system, name)

    # -- mode inspection ------------------------------------------------------

    def mode_of(self, item: str) -> ItemMode:
        return self.modes.get(item, ItemMode.DVP)

    # -- mode transitions -------------------------------------------------------

    def consolidate(self, item: str, home: str,
                    on_done: Callable[[TxnResult], None] | None = None
                    ) -> None:
        """Drain every fragment of *item* to *home*; flip to CENTRAL.

        Implemented as a full-read transaction: if it commits, home's
        fragment holds the entire value. An abort leaves the item in
        DVP mode (and redistributed, harmlessly).
        """

        def done(result: TxnResult) -> None:
            if result.committed:
                self.modes[item] = ItemMode.CENTRAL
                self.homes[item] = home
                # The full read drained every fragment (including any
                # path-sensitively dispersed ones) back to the home.
                self._dispersed.discard(item)
            if on_done is not None:
                on_done(result)

        self.system.sites[home].submit(
            TransactionSpec(ops=(ReadFullOp(item),),
                            label=f"consolidate:{item}"), done)

    def deconsolidate(self, item: str, split: dict[str, Any]) -> bool:
        """Ship quotas back out from the home; flip to DVP.

        *split* maps peer site -> amount; anything not shipped stays at
        the home. Returns False (mode unchanged) if the item is not
        centralized, the home fragment cannot cover the split, or the
        home is down or the item locked right now.
        """
        if self.mode_of(item) is not ItemMode.CENTRAL:
            return False
        home = self.homes[item]
        site = self.system.sites[home]
        domain = site.fragments.domain(item)
        if not domain.covers(site.fragments.value(item),
                             domain.pi(split.values())):
            return False
        shares = tuple((peer, amount)
                       for peer, amount in sorted(split.items())
                       if not domain.is_zero(amount))
        if site.ship(f"deconsolidate:{item}", item, shares) is None:
            return False  # down or locked right now
        self.modes[item] = ItemMode.DVP
        del self.homes[item]
        self._dispersed.discard(item)
        return True

    # -- routing ---------------------------------------------------------------

    def submit(self, site: str, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None = None) -> None:
        """Submit, forwarding to the home when items are centralized.

        All centralized items of one transaction must share a home (the
        manager enforces this at consolidation time by routing, not by
        distributed locking). A down site refuses, even where it
        would forward: it sends nothing.
        """
        if not self.system.sites[site].alive:
            raise SiteDown(f"site {site} is down")
        homes = {self.homes[item] for item in spec.items()
                 if self.mode_of(item) is ItemMode.CENTRAL}
        if self.path_sensitive and homes - {site} and \
                self._locally_decidable(site, spec):
            # Soethout check passed: every path through this spec
            # commits from the local fragment alone, so skip the
            # forward entirely and decide here. Remember which
            # centralized items just leaked value away from home.
            self._c_local.inc()
            for item in spec.update_items():
                if self.mode_of(item) is ItemMode.CENTRAL and \
                        self.homes.get(item) != site:
                    self._dispersed.add(item)
            self.system.submit(site, spec, on_done)
            return
        if len(homes) > 1:
            raise ValueError(
                f"spec touches centralized items with different homes: "
                f"{sorted(homes)}")
        target = homes.pop() if homes else site
        if target == site:
            self.system.submit(site, self._localize_reads(site, spec),
                               on_done)
            return
        self._forward(site, target, spec, on_done)

    def _locally_decidable(self, site: str, spec: TransactionSpec) -> bool:
        """True iff the origin's fragments provably cover every path
        through *spec*: no full reads (their value depends on global
        state), no opaque operators (unprovable preconditions), and
        the local fragment covers the spec's aggregate per-item needs
        — increments need nothing, so they always qualify."""
        for op in spec.ops:
            if isinstance(op, ReadFullOp):
                return False
            if isinstance(op, ApplyOp):
                try:
                    op.operator.delta(
                        self.system.sites[site].fragments.domain(op.item))
                except (NotImplementedError, KeyError):
                    return False
        origin = self.system.sites[site]
        try:
            needs = spec.needs(origin.fragments.domain)
            for item, need in needs.items():
                domain = origin.fragments.domain(item)
                if not domain.covers(origin.fragments.value(item), need):
                    return False
        except KeyError:
            return False  # an item this site never registered
        return True

    def _localize_reads(self, site: str,
                        spec: TransactionSpec) -> TransactionSpec:
        """At an item's home the fragment IS the value: rewrite full
        reads of centralized items into free local-fragment reads."""
        rewritten = []
        changed = False
        for op in spec.ops:
            if isinstance(op, ReadFullOp) and \
                    self.mode_of(op.item) is ItemMode.CENTRAL and \
                    self.homes.get(op.item) == site and \
                    op.item not in self._dispersed:
                rewritten.append(ReadLocalOp(op.item))
                changed = True
            else:
                rewritten.append(op)
        if not changed:
            return spec
        return TransactionSpec(ops=tuple(rewritten), label=spec.label,
                               work=spec.work)

    def _forward(self, origin: str, home: str, spec: TransactionSpec,
                 on_done: Callable[[TxnResult], None] | None) -> None:
        self._c_forward.inc()
        forward_id = next(self._forward_ids)
        self._pending[forward_id] = _PendingForward(
            spec, origin, self.system.sim.now, on_done)
        self._deadlines.arm(forward_id, self._forward_timeout)
        self.system.network.send(origin, home,
                                 ForwardRequest(forward_id, origin, spec))

    def _forward_timeout(self, forward_id: int) -> None:
        self._conclude(forward_id, Outcome.ABORTED, "forward-timeout")

    def _conclude(self, forward_id: int, outcome: Outcome, reason: str,
                  **payload: Any) -> None:
        """Answer a forwarded transaction's client, exactly once."""
        pending = self._pending.pop(forward_id, None)
        if pending is None:
            return
        self._deadlines.disarm(forward_id)
        if pending.on_done is not None:
            pending.on_done(TxnResult(
                txn_id=f"fwd#{forward_id}", label=pending.spec.label,
                outcome=outcome, reason=reason, site=pending.origin,
                submitted_at=pending.submitted_at,
                finished_at=self.system.sim.now, **payload))

    # -- message handling --------------------------------------------------------

    def _interpose(self, site) -> None:
        """Put a handler that takes Forward* payloads before *site*'s
        own delivery on the network."""
        name, inner = site.name, site.deliver

        def handler(envelope: Envelope) -> None:
            payload = envelope.payload
            if isinstance(payload, ForwardRequest):
                self._on_forward_request(name, payload)
            elif isinstance(payload, ForwardReply):
                self._on_forward_reply(payload)
            else:
                inner(envelope)

        self.system.network.replace_handler(name, handler)

    def _on_forward_request(self, home: str,
                            request: ForwardRequest) -> None:
        def done(result: TxnResult) -> None:
            self.system.network.send(home, request.origin, ForwardReply(
                request.forward_id, result.outcome, result.reason,
                tuple(result.read_values.items()), result.delta_row))

        try:
            self.system.sites[home].submit(
                self._localize_reads(home, request.spec), done)
        except SiteDown:
            pass  # origin's timeout handles it

    def _on_forward_reply(self, reply: ForwardReply) -> None:
        self._conclude(reply.forward_id, reply.outcome, reply.reason,
                       read_values=dict(reply.read_values),
                       delta_row=reply.delta_row)
