"""Trace events — the vocabulary of the observability layer.

One record type carries every event: a :class:`TraceEvent` is a
``kind``, the virtual time ``t`` and ``values``, the kind's fields in
the order :data:`KINDS` lists them. The fields are deterministic,
JSON-representable names (sites, items, transaction ids) and numbers;
nothing references live objects, wall clocks or memory addresses, so a
trace captured from a ``(seed, plan)`` replay is byte-identical across
runs — the property ``repro trace`` and the embedded chaos trace tails
rely on.

The families mirror the protocol's moving parts:

* **txn** — the Section 5 lifecycle: submit, lock wait/grant,
  redistribution requests, commit, abort (with reason);
* **vm** — Section 4.2's virtual messages: create, transmit,
  retransmit, duplicate discard, accept, ack;
* **rebal** — planned redistribution: a surplus push (Vm created by
  the daemon) or a deficit pull request, with the policy that chose
  the peer;
* **dir** / **migrate** — the partition directory and resharding;
* **net** — physical transmissions: send, partition drop, loss drop,
  deliver, bundle;
* **site** — join, decommission, crash, recover, log force;
* **serve** — the serving front-end's admission path: enqueue,
  dequeue (dispatch into the system), shed (typed Overload refusal);
* **read** — bounded-staleness view reads and refresh rounds;
* **kernel** — one event per executed simulator event (optional,
  heavyweight; lines up with :meth:`Simulator.trace_fingerprint`).

A new kind is one row of :data:`KINDS` — ``"family.what": ("site",
...)`` under a comment saying what happened — and one guarded emit
naming every field::

    if obs.enabled:
        obs.emit("family.what", now, site=self.site, ...)

:meth:`~repro.obs.bus.TraceBus.emit` refuses a kind the table does not
list and a field it does not name for that kind, or one it leaves out.
"""

from __future__ import annotations

from typing import Any, Iterator

#: Each event kind's fields, in output order (after ``t``).
KINDS: dict[str, tuple[str, ...]] = {
    # -- transaction lifecycle (Section 5) -------------------------------
    "txn.submit": ("site", "txn", "label"),
    # Step 1 stalled: the CC scheme queued the lock acquisition.
    "txn.lock-wait": ("site", "txn"),
    "txn.locks-granted": ("site", "txn"),
    # Step 2: requests for value fanned out to peers.
    "txn.redistribute": ("site", "txn", "requests"),
    "txn.commit": ("site", "txn"),
    "txn.abort": ("site", "txn", "reason"),
    # -- virtual messages (Section 4.2) ----------------------------------
    # The Vm came into existence (create record forced at *site*).
    "vm.create": ("site", "dst", "item", "seq", "amount", "vm_kind", "txn"),
    # A real message carrying the Vm left *site* (first send).
    "vm.transmit": ("site", "dst", "seq"),
    "vm.retransmit": ("site", "dst", "seq"),
    # An already-absorbed sequence number arrived again at *site*.
    "vm.duplicate-discard": ("site", "src", "seq"),
    # The Vm ceased to exist (accept record forced at *site*).
    "vm.accept": ("site", "src", "item", "seq"),
    # An explicit cumulative acknowledgement left *site*.
    "vm.ack": ("site", "dst", "cumulative"),
    # -- rebalancing (planned redistribution) ----------------------------
    # The rebalance daemon pushed surplus toward *dst* (Vm created).
    "rebal.ship": ("site", "dst", "item", "amount", "policy"),
    # The rebalance daemon requested deficit value from *src*.
    "rebal.pull": ("site", "src", "item", "amount", "policy"),
    # -- partition directory + migration (docs/PARTITIONING.md) ----------
    # The partition directory advanced to a new epoch.
    "dir.epoch": ("epoch", "reason", "site", "sites"),
    # The migration controller moved a fragment toward its new owner
    # (an ordinary transfer-mode Vm; the auditor sees nothing special).
    "migrate.ship": ("site", "dst", "item", "amount", "epoch"),
    # Every planned move of a reshard was shipped and accepted.
    "migrate.done": ("epoch", "moves", "fence_waits"),
    # A new site joined the running topology.
    "site.join": ("site", "epoch"),
    # A site left the directory (stays alive to drain its value).
    "site.decommission": ("site", "epoch"),
    # -- network ---------------------------------------------------------
    "net.send": ("src", "dst", "payload"),
    "net.drop-partition": ("src", "dst", "payload"),
    "net.drop-loss": ("src", "dst", "payload"),
    "net.deliver": ("src", "dst", "payload"),
    # One real envelope delivered carrying *size* coalesced payloads
    # (transport bundling only; 1 means no same-window partner).
    "net.bundle": ("src", "dst", "size"),
    # -- site ------------------------------------------------------------
    "site.crash": ("site", "txns_wiped"),
    "site.recover": ("site", "redo_applied", "vm_rebuilt",
                     "from_checkpoint"),
    # A record hit stable storage (the protocol's commit points).
    "site.log-force": ("site", "record", "lsn"),
    # -- serving front-end (docs/SERVING.md) -----------------------------
    # A routed request passed admission and entered *site*'s queue.
    "serve.enqueue": ("site", "origin", "depth"),
    # A queued request was dispatched into the system at *site*.
    "serve.dequeue": ("site", "waited", "inflight"),
    # Admission control refused a request (typed Overload to client).
    "serve.shed": ("site", "origin", "reason", "depth"),
    # -- bounded-staleness read views (docs/READS.md) --------------------
    # A cached view entry satisfied a reader's staleness bound.
    "read.view-serve": ("site", "txn", "item", "staleness", "bound"),
    # The cache could not certify the bound; the reader escalates.
    "read.view-miss": ("site", "txn", "item", "reason"),
    # One write-behind refresh round published at a global barrier.
    "read.refresh": ("publishers", "items", "sends"),
    # -- kernel ----------------------------------------------------------
    # One executed simulator event; mirrors the trace fingerprint.
    "kernel.step": ("label",),
}


class TraceEvent:
    """One event of *kind* at virtual time *t*; *values* are the kind's
    fields in :data:`KINDS` order, each also readable by name
    (``event.site``). Built by :meth:`TraceBus.emit
    <repro.obs.bus.TraceBus.emit>`; read-only by convention."""

    __slots__ = ("kind", "t", "values")

    def __init__(self, kind: str, t: float, values: tuple) -> None:
        self.kind = kind
        self.t = t
        self.values = values

    def __getattr__(self, name: str) -> Any:
        # Reached only for names that are not set slots. ``copy`` and
        # ``pickle`` probe an instance before its slots are set, so an
        # unset slot must fail here rather than recurse through
        # ``self.kind``.
        if name in TraceEvent.__slots__:
            raise AttributeError(name)
        names = KINDS[self.kind]
        if name not in names:
            raise AttributeError(
                f"a {self.kind} event has no field {name!r}")
        return self.values[names.index(name)]

    def fields(self) -> Iterator[tuple[str, Any]]:
        """``(name, value)`` for each field after ``t``, in order."""
        return zip(KINDS[self.kind], self.values)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind, "t": self.t}
        data.update(self.fields())
        return data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.kind, self.t, self.values) == \
            (other.kind, other.t, other.values)

    def __hash__(self) -> int:
        return hash((self.kind, self.t, self.values))

    def __repr__(self) -> str:
        fields = "".join(f", {name}={value!r}"
                         for name, value in self.fields())
        return f"TraceEvent({self.kind!r}, t={self.t!r}{fields})"


__all__ = ["KINDS", "TraceEvent"]
