"""Typed trace events — the vocabulary of the observability layer.

Every event is a small frozen dataclass carrying only deterministic,
JSON-representable fields: the virtual time ``t`` plus names (sites,
items, transaction ids) and integers. Nothing here references live
objects, wall clocks, or memory addresses, so a trace captured from a
``(seed, plan)`` replay is byte-identical across runs — the property
``repro trace`` and the embedded chaos trace tails rely on.

The event families mirror the protocol's moving parts:

* **txn** — the Section 5 lifecycle: submit, lock wait/grant,
  redistribution requests, commit, abort (with reason);
* **vm** — Section 4.2's virtual messages: create, transmit,
  retransmit, duplicate discard, accept, ack;
* **rebal** — planned redistribution: a surplus push (Vm created by
  the daemon) or a deficit pull request, with the policy that chose
  the peer;
* **net** — physical transmissions: send, partition drop, loss drop,
  deliver;
* **site** — crash, recover, log force;
* **serve** — the serving front-end's admission path: enqueue,
  dequeue (dispatch into the system), shed (typed Overload refusal);
* **kernel** — one event per executed simulator event (optional,
  heavyweight; lines up with :meth:`Simulator.trace_fingerprint`).

``to_dict``/``event_from_dict`` round-trip events through plain dicts
for the JSONL export; ``EVENT_TYPES`` is the kind → class registry.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar


@dataclass(frozen=True)
class TraceEvent:
    """Base shape: every event happens at one virtual instant."""

    kind: ClassVar[str] = "event"
    t: float

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind}
        for spec in fields(self):
            data[spec.name] = getattr(self, spec.name)
        return data


# -- transaction lifecycle (Section 5) ---------------------------------------

@dataclass(frozen=True)
class TxnSubmit(TraceEvent):
    kind: ClassVar[str] = "txn.submit"
    site: str = ""
    txn: str = ""
    label: str = ""


@dataclass(frozen=True)
class TxnLockWait(TraceEvent):
    """Step 1 stalled: the CC scheme queued the lock acquisition."""

    kind: ClassVar[str] = "txn.lock-wait"
    site: str = ""
    txn: str = ""


@dataclass(frozen=True)
class TxnLocksGranted(TraceEvent):
    kind: ClassVar[str] = "txn.locks-granted"
    site: str = ""
    txn: str = ""


@dataclass(frozen=True)
class TxnRedistribute(TraceEvent):
    """Step 2: requests for value fanned out to peers."""

    kind: ClassVar[str] = "txn.redistribute"
    site: str = ""
    txn: str = ""
    requests: int = 0


@dataclass(frozen=True)
class TxnCommit(TraceEvent):
    kind: ClassVar[str] = "txn.commit"
    site: str = ""
    txn: str = ""


@dataclass(frozen=True)
class TxnAbort(TraceEvent):
    kind: ClassVar[str] = "txn.abort"
    site: str = ""
    txn: str = ""
    reason: str = ""


# -- virtual messages (Section 4.2) ------------------------------------------

@dataclass(frozen=True)
class VmCreate(TraceEvent):
    """The Vm came into existence (create record forced at *site*)."""

    kind: ClassVar[str] = "vm.create"
    site: str = ""
    dst: str = ""
    item: str = ""
    seq: int = 0
    amount: Any = None
    vm_kind: str = "transfer"
    txn: str = ""


@dataclass(frozen=True)
class VmTransmit(TraceEvent):
    """A real message carrying the Vm left *site* (first send)."""

    kind: ClassVar[str] = "vm.transmit"
    site: str = ""
    dst: str = ""
    seq: int = 0


@dataclass(frozen=True)
class VmRetransmit(TraceEvent):
    kind: ClassVar[str] = "vm.retransmit"
    site: str = ""
    dst: str = ""
    seq: int = 0


@dataclass(frozen=True)
class VmDuplicateDiscard(TraceEvent):
    """An already-absorbed sequence number arrived again at *site*."""

    kind: ClassVar[str] = "vm.duplicate-discard"
    site: str = ""
    src: str = ""
    seq: int = 0


@dataclass(frozen=True)
class VmAccept(TraceEvent):
    """The Vm ceased to exist (accept record forced at *site*)."""

    kind: ClassVar[str] = "vm.accept"
    site: str = ""
    src: str = ""
    item: str = ""
    seq: int = 0


@dataclass(frozen=True)
class VmAckSent(TraceEvent):
    """An explicit cumulative acknowledgement left *site*."""

    kind: ClassVar[str] = "vm.ack"
    site: str = ""
    dst: str = ""
    cumulative: int = 0


# -- network -----------------------------------------------------------------

@dataclass(frozen=True)
class NetSend(TraceEvent):
    kind: ClassVar[str] = "net.send"
    src: str = ""
    dst: str = ""
    payload: str = ""


@dataclass(frozen=True)
class NetDropPartition(TraceEvent):
    kind: ClassVar[str] = "net.drop-partition"
    src: str = ""
    dst: str = ""
    payload: str = ""


@dataclass(frozen=True)
class NetDropLoss(TraceEvent):
    kind: ClassVar[str] = "net.drop-loss"
    src: str = ""
    dst: str = ""
    payload: str = ""


@dataclass(frozen=True)
class NetDeliver(TraceEvent):
    kind: ClassVar[str] = "net.deliver"
    src: str = ""
    dst: str = ""
    payload: str = ""


@dataclass(frozen=True)
class NetBundle(TraceEvent):
    """One real envelope delivered carrying *size* coalesced payloads.

    Emitted only when transport bundling is enabled (see
    ``repro.net.outbox``); ``size`` counts the logical payloads the
    bundle carried — 1 means no same-window partner was found.
    """

    kind: ClassVar[str] = "net.bundle"
    src: str = ""
    dst: str = ""
    size: int = 0


# -- rebalancing (planned redistribution) ------------------------------------

@dataclass(frozen=True)
class RebalShip(TraceEvent):
    """The rebalance daemon pushed surplus toward *dst* (Vm created)."""

    kind: ClassVar[str] = "rebal.ship"
    site: str = ""
    dst: str = ""
    item: str = ""
    amount: Any = None
    policy: str = ""


@dataclass(frozen=True)
class RebalPull(TraceEvent):
    """The rebalance daemon requested deficit value from *src*."""

    kind: ClassVar[str] = "rebal.pull"
    site: str = ""
    src: str = ""
    item: str = ""
    amount: Any = None
    policy: str = ""


# -- partition directory + migration (docs/PARTITIONING.md) ------------------

@dataclass(frozen=True)
class DirectoryEpoch(TraceEvent):
    """The partition directory advanced to a new epoch."""

    kind: ClassVar[str] = "dir.epoch"
    epoch: int = 0
    reason: str = ""
    site: str = ""
    sites: int = 0


@dataclass(frozen=True)
class MigrationShip(TraceEvent):
    """The migration controller moved a fragment toward its new owner
    (an ordinary transfer-mode Vm; the auditor sees nothing special)."""

    kind: ClassVar[str] = "migrate.ship"
    site: str = ""
    dst: str = ""
    item: str = ""
    amount: Any = None
    epoch: int = 0


@dataclass(frozen=True)
class MigrationDone(TraceEvent):
    """Every planned move of a reshard was shipped and accepted."""

    kind: ClassVar[str] = "migrate.done"
    epoch: int = 0
    moves: int = 0
    fence_waits: int = 0


@dataclass(frozen=True)
class SiteJoin(TraceEvent):
    """A new site joined the running topology."""

    kind: ClassVar[str] = "site.join"
    site: str = ""
    epoch: int = 0


@dataclass(frozen=True)
class SiteDecommission(TraceEvent):
    """A site left the directory (stays alive to drain its value)."""

    kind: ClassVar[str] = "site.decommission"
    site: str = ""
    epoch: int = 0


# -- site --------------------------------------------------------------------

@dataclass(frozen=True)
class SiteCrash(TraceEvent):
    kind: ClassVar[str] = "site.crash"
    site: str = ""
    txns_wiped: int = 0


@dataclass(frozen=True)
class SiteRecover(TraceEvent):
    kind: ClassVar[str] = "site.recover"
    site: str = ""
    redo_applied: int = 0
    vm_rebuilt: int = 0
    from_checkpoint: bool = False


@dataclass(frozen=True)
class LogForce(TraceEvent):
    """A record hit stable storage (the protocol's commit points)."""

    kind: ClassVar[str] = "site.log-force"
    site: str = ""
    record: str = ""
    lsn: int = 0


# -- serving front-end (docs/SERVING.md) -------------------------------------

@dataclass(frozen=True)
class ServeEnqueue(TraceEvent):
    """A routed request passed admission and entered *site*'s queue."""

    kind: ClassVar[str] = "serve.enqueue"
    site: str = ""
    origin: str = ""
    depth: int = 0


@dataclass(frozen=True)
class ServeDequeue(TraceEvent):
    """A queued request was dispatched into the system at *site*."""

    kind: ClassVar[str] = "serve.dequeue"
    site: str = ""
    waited: float = 0.0
    inflight: int = 0


@dataclass(frozen=True)
class ServeShed(TraceEvent):
    """Admission control refused a request (typed Overload to client)."""

    kind: ClassVar[str] = "serve.shed"
    site: str = ""
    origin: str = ""
    reason: str = ""
    depth: int = 0


# -- bounded-staleness read views (docs/READS.md) ----------------------------

@dataclass(frozen=True)
class ReadViewServe(TraceEvent):
    """A cached view entry satisfied a reader's staleness bound."""

    kind: ClassVar[str] = "read.view-serve"
    site: str = ""
    txn: str = ""
    item: str = ""
    staleness: float = 0.0
    bound: float | None = None


@dataclass(frozen=True)
class ReadViewMiss(TraceEvent):
    """The cache could not certify the bound; the reader escalates."""

    kind: ClassVar[str] = "read.view-miss"
    site: str = ""
    txn: str = ""
    item: str = ""
    reason: str = ""


@dataclass(frozen=True)
class ReadViewRefresh(TraceEvent):
    """One write-behind refresh round published at a global barrier."""

    kind: ClassVar[str] = "read.refresh"
    publishers: int = 0
    items: int = 0
    sends: int = 0


# -- kernel ------------------------------------------------------------------

@dataclass(frozen=True)
class KernelStep(TraceEvent):
    """One executed simulator event; mirrors the trace fingerprint."""

    kind: ClassVar[str] = "kernel.step"
    label: str = ""


EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls for cls in (
        TxnSubmit, TxnLockWait, TxnLocksGranted, TxnRedistribute,
        TxnCommit, TxnAbort,
        VmCreate, VmTransmit, VmRetransmit, VmDuplicateDiscard,
        VmAccept, VmAckSent,
        RebalShip, RebalPull,
        DirectoryEpoch, MigrationShip, MigrationDone,
        SiteJoin, SiteDecommission,
        NetSend, NetDropPartition, NetDropLoss, NetDeliver, NetBundle,
        SiteCrash, SiteRecover, LogForce,
        ServeEnqueue, ServeDequeue, ServeShed,
        ReadViewServe, ReadViewMiss, ReadViewRefresh,
        KernelStep,
    )
}


__all__ = ["TraceEvent", "EVENT_TYPES"] + [
    cls.__name__ for cls in EVENT_TYPES.values()]
