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
    It is not a field, so it takes no part in ``repr`` or equality;
    neither do the certificate rows :meth:`rows` mints.
    """

    item: str
    value: Any
    as_of: float
    epoch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads",
                           MappingProxyType({self.item: self.value}))
        #: The rows :meth:`rows` last minted.
        object.__setattr__(self, "_rows", None)

    def rows(self, bound: float | None) -> tuple[tuple, ...]:
        """``((item, value, as_of, None, bound, epoch),)``: the
        ``view_rows`` of a read this entry certifies under *bound* and
        that is decided in the instant it is certified, so its result's
        ``finished_at`` is the certificate's ``checked_at``. One row is
        kept, shared by every such read at every site that asks under
        the very *bound* object it was minted for; a read under any
        other bound object mints the row anew (DESIGN.md §7)."""
        held = self._rows
        if held is None or held[0][4] is not bound:
            held = ((self.item, self.value, self.as_of, None, bound,
                     self.epoch),)
            object.__setattr__(self, "_rows", held)
        return held


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

    A tuple, so a cache hit builds it without a dataclass ``__init__``.
    A ``TxnResult`` keeps it as a plain row of atoms, which the cycle
    collector stops tracking: a read decided in the instant it was
    certified holds its entry's shared row (:meth:`ViewEntry.rows`,
    ``checked_at`` left out as the result's ``finished_at``), any other
    the row ``tuple(cert)`` (DESIGN.md §7).

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
