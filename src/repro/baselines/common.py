"""The substrate every baseline system is built on.

Baselines store each logical item as a single whole value (possibly
replicated); they reuse the simulator, the network, the stable log and
the :class:`~repro.core.transactions.TxnResult` shape so every
comparison against DvP isolates the protocol difference.

What the protocols do *not* differ in lives here, once:
:class:`BaselineSite` (identity, store, log, liveness; message dispatch
and the one place that decides "deliver locally or send"; finishing a
transaction exactly once; the common half of ``crash``),
:class:`Timers` (a deadline per open transaction, resend loops that
stop themselves) and :class:`BaselineSystem` — the baselines' answer to
the :class:`~repro.core.system.System` contract (``submit``,
``run_for`` / ``run_until``, ``crash`` / ``recover``, ``total_value``,
``blocked``, ``close``). Item registration stays per system: homes,
primaries and quorums really differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

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
from repro.net.link import LinkConfig
from repro.net.message import Envelope
from repro.net.network import Network
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.storage.log import StableLog


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
    """Build a TxnResult in baseline code without core's Transaction;
    *deltas* are ``(item, sign, amount)`` triples, stored as one flat
    row."""
    return TxnResult(
        txn_id=txn_id, label=label, outcome=outcome, reason=reason,
        site=site, submitted_at=submitted_at, finished_at=finished_at,
        read_values=read_values or EMPTY,
        delta_row=tuple([atom for delta in deltas or () for atom in delta]))


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


class Timers:
    """One process's clockwork: a deadline per open transaction, and
    resend loops giving its control messages at-least-once delivery.
    A crash stops all of it; whoever owns the process closes it
    (DESIGN.md §7)."""

    def __init__(self, sim: Simulator, config: BaselineConfig,
                 tag: str) -> None:
        self._sim = sim
        self._config = config
        self._tag = tag
        self._deadlines: dict[Any, Event] = {}
        self._loops: list[PeriodicTimer] = []

    def arm(self, txn_id: Any, on_timeout: Callable[[Any], None]) -> None:
        """Call ``on_timeout(txn_id)`` a transaction timeout from now,
        unless :meth:`disarm` comes first."""

        def fire() -> None:
            del self._deadlines[txn_id]
            on_timeout(txn_id)

        self._deadlines[txn_id] = self._sim.after(
            self._config.txn_timeout, fire,
            label=f"{self._tag}-timeout:{txn_id}")

    def disarm(self, txn_id: Any) -> None:
        deadline = self._deadlines.pop(txn_id, None)
        if deadline is not None:
            deadline.cancel()

    def loop(self, label: str, step: Callable[[], bool]) -> PeriodicTimer:
        """A loop that, once started, calls *step* every retry period:
        it re-sends whatever is still unanswered and says whether
        anything was; the loop stops itself when nothing is."""

        def tick() -> None:
            if not step():
                loop.stop()

        loop = PeriodicTimer(self._sim, self._config.retry_period, tick,
                             label=label)
        self._loops.append(loop)
        return loop

    def stop(self) -> None:
        for loop in self._loops:
            loop.stop()
        for deadline in self._deadlines.values():
            deadline.cancel()
        self._deadlines = {}

    def close(self) -> None:
        self.stop()
        for loop in self._loops:
            loop.close()


class BaselineSite:
    """One site of a baseline system; protocols subclass it."""

    #: Prefix of this protocol's kernel-event labels.
    tag = ""
    #: Payload type -> name of the method that handles it.
    handlers: dict[type, str] = {}

    def __init__(self, name: str, system: "BaselineSystem") -> None:
        self.name = name
        self.system = system
        self.sim = system.sim
        self.network = system.network
        self.config = system.config
        self.store = WholeStore()
        self.log = StableLog(name)
        self.alive = True
        self.crash_count = 0
        self._ids = IdSource(name)
        self.timers = Timers(self.sim, self.config, self.tag)
        self.network.register(name, self.deliver)

    def deliver(self, envelope: Envelope) -> None:
        if self.alive:
            self._handle(envelope.payload)

    def _handle(self, payload: Any) -> None:
        getattr(self, self.handlers[type(payload)])(payload)

    def _route(self, dst: str, payload: Any) -> None:
        """Get *payload* to *dst*: straight into the handler when that
        is this site, over the network otherwise."""
        if dst == self.name:
            self._handle(payload)
        else:
            self.network.send(self.name, dst, payload)

    def _finish(self, txn_id: str, done: PendingDone,
                result: TxnResult) -> None:
        """The client's transaction is over: exactly once, tell the
        client and the system."""
        self.timers.disarm(txn_id)
        if done.fire(result):
            self.system.record_result(result)

    def in_doubt(self) -> Iterable[tuple[str, float]]:
        """(txn, since when) for everything here that holds a resource
        it cannot release on its own. Only an atomic-commit participant
        ever does; every other wait ends at its own timeout."""
        return ()

    def crash(self) -> None:
        """Fail-stop: timers, locks (they lived in memory) and — in the
        subclass — volatile protocol state are gone; the versioned
        store and the log survive."""
        self.alive = False
        self.crash_count += 1
        self.timers.stop()
        for item in self.store.items().values():
            item.locked_by = None

    def recover(self) -> dict[str, Any]:
        self.alive = True
        return {"site": self.name, "in_doubt": 0}

    def close(self) -> None:
        self.timers.close()
        self.system = None


class BaselineSystem:
    """What every baseline system is: a simulator, a network, sites,
    and the results they produce."""

    site_class: type[BaselineSite] = BaselineSite
    #: Label prefix of the system's own :attr:`timers`.
    tag = ""

    def __init__(self, sites: Iterable[str], seed: int = 0,
                 link: LinkConfig | None = None,
                 config: BaselineConfig | None = None) -> None:
        self.sim = Simulator(seed)
        self.network = Network(self.sim, link or LinkConfig())
        self.config = config or BaselineConfig()
        self.results: list[TxnResult] = []
        self.item_names: list[str] = []
        #: Clockwork of a system that is itself a process (the central
        #: counter); site-based systems keep theirs per site.
        self.timers = Timers(self.sim, self.config, self.tag)
        self.sites = {name: self.site_class(name, self) for name in sites}

    def _create(self, item: str, initial: Any,
                holders: Iterable[str]) -> None:
        """Register *item* and store a copy at each of *holders*."""
        self.item_names.append(item)
        for name in holders:
            self.sites[name].store.create(item, initial)

    def value(self, item: str) -> Any:
        """The item's current logical value (god's-eye read)."""
        raise NotImplementedError

    def total_value(self, items: list[str] | None = None) -> Any:
        return sum(self.value(item) for item in
                   (self.item_names if items is None else items))

    def submit(self, origin: str, spec: TransactionSpec,
               on_done: Callable[[TxnResult], None] | None = None) -> str:
        return self.sites[origin].submit(spec, on_done)

    def record_result(self, result: TxnResult) -> None:
        self.results.append(result)

    def blocked(self) -> list[tuple[str, str, float]]:
        """(site, txn, how long so far) for every participant still
        waiting on somebody else's decision — the unbounded tail E1
        exposes for 2PC; with a majority of acceptors connected Paxos
        Commit's drains."""
        return [(site.name, txn_id, self.sim.now - since)
                for site in self.sites.values()
                for txn_id, since in site.in_doubt()]

    def run_for(self, duration: float) -> None:
        self.sim.run_until(self.sim.now + duration)

    def run_until(self, time: float) -> None:
        self.sim.run_until(time)

    def crash(self, site: str) -> None:
        self.sites[site].crash()

    def recover(self, site: str) -> dict[str, Any]:
        return self.sites[site].recover()

    def close(self) -> None:
        """Whoever built the system is done with it: nothing runs
        afterwards, ``results``, logs and stores stay readable, and
        dropping the system frees it by reference counting alone
        (DESIGN.md §7). Closing twice is a no-op."""
        self.timers.close()
        for site in self.sites.values():
            site.close()
        self.network.close()
        self.sim.close()
