"""Unique timestamps: Lamport counter with the site id in the low bits.

Section 7: "all local timestamps would be unique (by attaching the site
identifier in the low order bits of a timestamp — a common scheme)" and
"the reception of any messages... would 'bump-up' the counter".

Timestamps are plain ints so comparisons are total and cheap; encode /
decode helpers expose the (counter, site_rank) structure.
"""

from __future__ import annotations

MAX_SITES = 1 << 16


def encode(counter: int, site_rank: int) -> int:
    if not 0 <= site_rank < MAX_SITES:
        raise ValueError(f"site_rank {site_rank} out of range")
    return counter * MAX_SITES + site_rank


def decode(timestamp: int) -> tuple[int, int]:
    return divmod(timestamp, MAX_SITES)


class LamportClock:
    """Per-site logical clock issuing unique, totally ordered stamps.

    Volatile: a crash drops it with its site, and the next incarnation
    starts a fresh one at 0 that recovery bumps past every stamp in the
    log (Section 7's stale-clock scenario, deliberately reproducible).
    """

    def __init__(self, site_rank: int) -> None:
        if not 0 <= site_rank < MAX_SITES:
            raise ValueError(f"site_rank {site_rank} out of range")
        self.site_rank = site_rank
        self._counter = 0

    @property
    def counter(self) -> int:
        return self._counter

    def next(self) -> int:
        """Issue a fresh timestamp, greater than any issued or observed."""
        self._counter += 1
        return encode(self._counter, self.site_rank)

    def observe(self, timestamp: int) -> None:
        """Bump the counter past a timestamp seen on an incoming message."""
        counter, _rank = decode(timestamp)
        if counter > self._counter:
            self._counter = counter
