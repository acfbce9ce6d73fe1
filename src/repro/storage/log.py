"""Append-only stable log with LSNs.

Appends are atomic and immediately stable (the simulated equivalent of a
forced write); a site crash never loses an appended record and never
keeps a partial one. The log supports scanning from an LSN, which is
all recovery and checkpointing need.

Stable storage holds bytes. A log is one append-only ``bytearray``
arena with every record serialised end to end, an ``array`` of where
each record ends and a kind byte per LSN — three objects however long
the log grows, none of which the cycle collector tracks or can see
into. A record is :func:`repro.storage.records.encode`'s flat payload
written with :mod:`marshal`. Only a payload marshal refuses (a token
multiset's ``Counter``, a baseline record carrying op objects) is
pickled, and the high bit of its kind byte says so; ``pickle`` is
imported by the first such record, never on the common path. A record
neither can write is refused at :meth:`StableLog.append` with a
``TypeError``.

So what is logged is a copy: volatile code cannot alias a logged
record, and every reader gets a fresh one, rebuilt from its slice of
the arena and wrapped in a :class:`LogRecordEnvelope` as a scan yields
it (DESIGN.md §7). A copy equals what was appended and has its type,
rows included; marshal writes any other buffer object as ``bytes``.
"""

from __future__ import annotations

import marshal
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.storage.records import decode, encode, kind_of

#: Kind-byte flag: this record's payload is pickled, not marshalled.
_PICKLED = 0x80


@dataclass(frozen=True, slots=True)
class LogRecordEnvelope:
    """A record as scanned: payload plus its log sequence number."""

    lsn: int
    record: Any


def _pickled(record: Any, payload: Any) -> bytes:
    """*payload* pickled, or a ``TypeError`` naming *record*'s type."""
    import pickle

    try:
        return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        raise TypeError(f"cannot log a {type(record).__name__}: "
                        f"{error}") from None


class StableLog:
    """A per-site stable log."""

    __slots__ = ("site", "forces", "_arena", "_ends", "_kinds")

    def __init__(self, site: str) -> None:
        self.site = site
        self._arena = bytearray()      # serialised payloads, end to end
        self._ends = array("Q", (0,))  # LSN n is arena[_ends[n]:_ends[n + 1]]
        self._kinds = bytearray()      # how to decode each, by LSN
        self.forces = 0

    def __len__(self) -> int:
        return len(self._kinds)

    @property
    def next_lsn(self) -> int:
        return len(self._kinds)

    def append(self, record: Any) -> int:
        """Atomically force *record* to stable storage; return its LSN."""
        kind, payload = encode(record)
        try:
            data = marshal.dumps(payload)
        except ValueError:
            data = _pickled(record, payload)
            kind |= _PICKLED
        lsn = len(self._kinds)
        self._arena += data
        self._ends.append(len(self._arena))
        self._kinds.append(kind)
        self.forces += 1
        return lsn

    def read(self, lsn: int) -> Any:
        """The record at *lsn*; ``IndexError`` if there is none."""
        if not 0 <= lsn < len(self._kinds):
            raise IndexError(f"log {self.site} has no LSN {lsn} "
                             f"(it holds {len(self._kinds)})")
        kind = self._kinds[lsn]
        data = self._arena[self._ends[lsn]:self._ends[lsn + 1]]
        if kind & _PICKLED:
            import pickle

            return decode(kind ^ _PICKLED, pickle.loads(data))
        return decode(kind, marshal.loads(data))

    def scan(self, from_lsn: int = 0) -> Iterator[LogRecordEnvelope]:
        """All records with LSN >= *from_lsn* when the scan starts, in
        order; ``ValueError`` unless 0 <= *from_lsn* <= ``len(log)``."""
        end = len(self._kinds)
        if not 0 <= from_lsn <= end:
            raise ValueError(f"cannot scan log {self.site} from LSN "
                             f"{from_lsn} (it holds {end})")
        return (LogRecordEnvelope(lsn, self.read(lsn))
                for lsn in range(from_lsn, end))

    def scan_backwards(self) -> Iterator[LogRecordEnvelope]:
        return (LogRecordEnvelope(lsn, self.read(lsn))
                for lsn in range(len(self._kinds) - 1, -1, -1))

    def last_matching(self,
                      predicate: Callable[[Any], bool]) -> LogRecordEnvelope | None:
        """Most recent record satisfying *predicate*, or None."""
        for envelope in self.scan_backwards():
            if predicate(envelope.record):
                return envelope
        return None

    def last_of(self, record_type: type) -> LogRecordEnvelope | None:
        """Most recent record of exactly *record_type* (one of the
        record classes), or None. Found by its kind byte, so it is the
        only record decoded."""
        kind = kind_of(record_type)
        lsn = max(self._kinds.rfind(kind), self._kinds.rfind(kind | _PICKLED))
        return None if lsn < 0 else LogRecordEnvelope(lsn, self.read(lsn))
