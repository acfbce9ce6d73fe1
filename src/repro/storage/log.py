"""Append-only stable log with LSNs.

Appends are atomic and immediately stable (the simulated equivalent of a
forced write); a site crash never loses an appended record and never
keeps a partial one. The log supports scanning from an LSN, which is
all recovery and checkpointing need.

Stable storage holds each record's *encoding* (the LSN is the list
index; :mod:`repro.storage.records` has the format and why), never the
object the writer passed in — so volatile code cannot alias a logged
record. Readers get the typed record rebuilt, wrapped in a
:class:`LogRecordEnvelope` as a scan yields it (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.storage.records import decode, encode


@dataclass(frozen=True, slots=True)
class LogRecordEnvelope:
    """A record as scanned: payload plus its log sequence number."""

    lsn: int
    record: Any


class StableLog:
    """A per-site stable log."""

    def __init__(self, site: str) -> None:
        self.site = site
        self._records: list[Any] = []   # payloads, by LSN
        self._kinds = bytearray()       # how to decode each, by LSN
        self.forces = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def next_lsn(self) -> int:
        return len(self._records)

    def append(self, record: Any) -> int:
        """Atomically force *record* to stable storage; return its LSN."""
        lsn = len(self._records)
        kind, payload = encode(record)
        self._kinds.append(kind)
        self._records.append(payload)
        self.forces += 1
        return lsn

    def read(self, lsn: int) -> Any:
        """The record at *lsn*."""
        return decode(self._kinds[lsn], self._records[lsn])

    def scan(self, from_lsn: int = 0) -> Iterator[LogRecordEnvelope]:
        """All records with LSN >= *from_lsn* when the scan starts, in
        order."""
        for lsn in range(from_lsn, len(self._records)):
            yield LogRecordEnvelope(lsn, self.read(lsn))

    def scan_backwards(self) -> Iterator[LogRecordEnvelope]:
        for lsn in range(len(self._records) - 1, -1, -1):
            yield LogRecordEnvelope(lsn, self.read(lsn))

    def last_matching(self,
                      predicate: Callable[[Any], bool]) -> LogRecordEnvelope | None:
        """Most recent record satisfying *predicate*, or None."""
        for envelope in self.scan_backwards():
            if predicate(envelope.record):
                return envelope
        return None
