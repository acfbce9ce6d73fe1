"""Shared pieces for the baseline systems.

Baselines store each logical item as a single whole value (possibly
replicated); they reuse the simulator, the network, the stable log and
the :class:`~repro.core.transactions.TxnResult` shape so every
comparison against DvP isolates the protocol difference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.transactions import (
    EMPTY,
    DecrementOp,
    IncrementOp,
    Outcome,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
    TxnResult,
    UnsupportedSpec,
)
from repro.sim.kernel import Simulator


class UnknownItem(UnsupportedSpec):
    """Typed refusal for a spec naming an item the baseline never
    created.

    Subclasses :class:`UnsupportedSpec` so workload drivers treat it
    like any other out-of-scope spec (the customer walks away) instead
    of a raw ``KeyError`` crashing the simulation mid-event.
    """


@dataclass
class BaselineConfig:
    """Knobs shared by every baseline."""

    txn_timeout: float = 30.0
    #: Decision/retry retransmission period (2PC decisions, quorum
    #: releases) — baselines also need at-least-once delivery for
    #: their control messages.
    retry_period: float = 5.0


@dataclass
class WholeItem:
    """A single-copy (or one replica of a) data item."""

    value: Any
    version: int = 0
    locked_by: str | None = None


class WholeStore:
    """Item name -> :class:`WholeItem` at one site."""

    def __init__(self) -> None:
        self._items: dict[str, WholeItem] = {}

    def __contains__(self, item: str) -> bool:
        return item in self._items

    def create(self, item: str, value: Any) -> None:
        if item in self._items:
            raise ValueError(f"item {item!r} already exists")
        self._items[item] = WholeItem(value)

    def get(self, item: str) -> WholeItem:
        try:
            return self._items[item]
        except KeyError:
            raise UnknownItem(f"unknown item {item!r}") from None

    def items(self) -> dict[str, WholeItem]:
        return self._items


@dataclass(frozen=True)
class SimpleOp:
    """A home-site-local effect: +amount / -amount / read."""

    kind: str  # "inc" | "dec" | "read"
    item: str
    amount: Any = None


def partition_ops(spec: TransactionSpec, home: dict[str, str]
                  ) -> dict[str, tuple[SimpleOp, ...]]:
    """Group a spec's ops by the home site of each touched item.

    Shared by the coordinated baselines (2PC, Paxos Commit): both
    partition a transaction into per-participant effect lists. Raises
    :class:`UnknownItem` for items with no home — a typed refusal the
    submitter sees synchronously, not a ``KeyError`` inside a later
    delivery event.
    """
    grouped: dict[str, list[SimpleOp]] = {}

    def add(op: SimpleOp) -> None:
        try:
            site = home[op.item]
        except KeyError:
            raise UnknownItem(f"unknown item {op.item!r}") from None
        grouped.setdefault(site, []).append(op)

    for op in spec.ops:
        if isinstance(op, DecrementOp):
            add(SimpleOp("dec", op.item, op.amount))
        elif isinstance(op, IncrementOp):
            add(SimpleOp("inc", op.item, op.amount))
        elif isinstance(op, TransferOp):
            add(SimpleOp("dec", op.src_item, op.amount))
            add(SimpleOp("inc", op.dst_item, op.amount))
        elif isinstance(op, ReadFullOp):
            add(SimpleOp("read", op.item))
        else:
            raise UnsupportedSpec(f"unsupported op for commit "
                                  f"protocol: {op!r}")
    return {site: tuple(ops) for site, ops in grouped.items()}


def make_result(txn_id: str, label: str, outcome: Outcome, reason: str,
                site: str, submitted_at: float, finished_at: float,
                deltas: list[tuple[str, int, Any]] | None = None,
                read_values: dict[str, Any] | None = None) -> TxnResult:
    """Build a TxnResult in baseline code without core's Transaction."""
    return TxnResult(
        txn_id=txn_id, label=label, outcome=outcome, reason=reason,
        site=site, submitted_at=submitted_at, finished_at=finished_at,
        read_values=read_values or EMPTY,
        semantic_deltas=tuple(deltas or ()))


class IdSource:
    """Monotonic ids with a prefix (txn ids, message ids)."""

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        self._counter = itertools.count(1)

    def next(self) -> str:
        return f"{self._prefix}#{next(self._counter)}"


@dataclass
class PendingDone:
    """Callback wrapper that guarantees exactly-once completion."""

    callback: Callable[[TxnResult], None] | None
    fired: bool = False
    collected: list[TxnResult] = field(default_factory=list)

    def fire(self, result: TxnResult) -> bool:
        if self.fired:
            return False
        self.fired = True
        self.collected.append(result)
        if self.callback is not None:
            self.callback(result)
        return True


def within(sim: Simulator, start: float, timeout: float) -> bool:
    return sim.now - start < timeout
