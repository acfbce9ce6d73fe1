"""Wire/value types for the bounded-staleness read views (docs/READS.md).

Kept free of any other ``repro`` imports so the core transaction layer,
the site delivery path, and the view service can all share these
without import cycles. Everything is a small immutable value —
a frozen dataclass, or a ``NamedTuple`` where a run makes one per
read — carrying deterministic, JSON-representable values only.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, NamedTuple


@dataclass(frozen=True)
class ViewEntry:
    """One item's materialized Π(b) value at a consistent cut.

    ``as_of`` is the barrier instant the snapshot was taken at —
    value == N(as_of) exactly (the conservation books Σ fragments +
    Σ live Vm are the logical value, see docs/READS.md). ``epoch``
    fences the entry against topology changes: a cache never serves an
    entry minted under a directory epoch other than the current one.

    ``reads`` is the read-only ``{item: value}`` minted once with the
    entry: every cache holding the entry shares it, and so does the
    ``read_values`` of every single-item read it serves (DESIGN.md §7).
    It is not a field, so it takes no part in ``repr`` or equality.
    """

    item: str
    value: Any
    as_of: float
    epoch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads",
                           MappingProxyType({self.item: self.value}))


@dataclass(frozen=True)
class ViewRefresh:
    """Write-behind refresh: a batch of view entries pushed by *origin*.

    One payload per publisher per refresh round, sent to every
    destination — the batching tier. Rides the ordinary network (and the
    PR 5 outbox bundling when enabled), so it can be lost, delayed, or
    partitioned away; that is safe because admission is certificate
    based: a missing refresh only makes a cache staler, never wrong.
    """

    origin: str
    entries: tuple[ViewEntry, ...]
    published_at: float


class ViewCertificate(NamedTuple):
    """Proof-of-staleness attached to a view-served read.

    A tuple, so a cache hit builds it without a dataclass ``__init__``;
    a ``TxnResult`` keeps it as the plain row ``tuple(cert)``, which
    the cycle collector stops tracking (DESIGN.md §7).

    ``checked_at - as_of`` is the staleness the reader actually
    accepted; admission requires it to be <= ``bound`` (None = only the
    cache TTL bounds it). The chaos ViewOracle replays the committed
    timeline and convicts any certificate whose ``value`` was not the
    item's exact logical value at ``as_of`` — the certificate must
    never lie, no matter what crashed, partitioned, or resharded.
    """

    item: str
    value: Any
    as_of: float
    checked_at: float
    bound: float | None
    epoch: int

    @property
    def staleness(self) -> float:
        return self.checked_at - self.as_of
