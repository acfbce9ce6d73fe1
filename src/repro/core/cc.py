"""Concurrency control schemes Conc1 and Conc2 (Section 6).

Both schemes enforce the paper's correctness notion: *serializability
subject to redistribution* — the values of data items behave as if the
real transactions ran one at a time; only the distribution of fragments
(the work of the conceptual Rds transactions) may differ.

* **Conc1** (timestamp ordering, Section 6.1): transaction ``t`` may
  lock fragment ``d_j`` — locally or via a remote request — only if
  ``TS(t) > TS(d_j)``; granting stamps the fragment with ``TS(t)``.
  Nothing ever waits: a refused lock aborts (locally) or silently
  ignores (remotely, the request will simply go unanswered).

* **Conc2** (strict two-phase locking, Section 6.2): no timestamp
  checks; lock requests queue FIFO and the whole scheme is sound only on
  a network with message-order synchronicity and atomic ordered
  broadcast (see :mod:`repro.net.sync`). Transactions broadcast all
  their remote requests together at initiation, in initiation order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Collection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.site import DvPSite


class ConcurrencyControl(ABC):
    """Strategy object consulted by sites and transactions."""

    name: str = "cc"
    #: May local lock acquisition wait (strict 2PL) or must it decide now?
    waits_for_locks: bool = False
    #: Are remote requests broadcast at initiation (Conc2's requirement)?
    broadcast_at_init: bool = False

    # A scheme that waits for locks is never asked the two admission
    # questions: the lock queue decides (Transaction.start,
    # DvPSite.handle_request).

    def may_lock_local(self, site: "DvPSite", ts: int,
                       items: Collection[str]) -> bool:
        """May a transaction with timestamp *ts* lock *items* here?"""
        raise NotImplementedError

    @abstractmethod
    def on_lock_granted(self, site: "DvPSite", ts: int,
                        items: Collection[str]) -> None:
        """Bookkeeping once the locks are actually taken."""

    def may_honor(self, site: "DvPSite", ts: int, item: str) -> bool:
        """May this site honor a remote request with timestamp *ts*?"""
        raise NotImplementedError

    def stamp_for_rds(self, site: "DvPSite", request_ts: int,
                      item: str) -> int:
        """Timestamp recorded when a remote request is honored."""
        return request_ts


class Conc1(ConcurrencyControl):
    """Timestamp-ordering scheme of Section 6.1."""

    name = "conc1"
    waits_for_locks = False
    broadcast_at_init = False

    def may_lock_local(self, site: "DvPSite", ts: int,
                       items: Collection[str]) -> bool:
        for item in items:
            if ts <= site.fragments.timestamp(item):
                return False
        return True

    def on_lock_granted(self, site: "DvPSite", ts: int,
                        items: Collection[str]) -> None:
        for item in items:
            site.fragments.stamp(item, ts)

    def may_honor(self, site: "DvPSite", ts: int, item: str) -> bool:
        return ts > site.fragments.timestamp(item)


class Conc2(ConcurrencyControl):
    """Strict-2PL scheme of Section 6.2 (synchronous network required)."""

    name = "conc2"
    waits_for_locks = True
    broadcast_at_init = True

    def on_lock_granted(self, site: "DvPSite", ts: int,
                        items: Collection[str]) -> None:
        # Keep fragment stamps monotone for observability; Conc2's
        # correctness does not depend on them (its hypothetical
        # timestamps are the partial order induced by the broadcasts).
        for item in items:
            site.fragments.stamp_if_newer(item, ts)


def make_cc(name: str) -> ConcurrencyControl:
    """Factory: 'conc1' or 'conc2'."""
    schemes = {"conc1": Conc1, "conc2": Conc2}
    if name not in schemes:
        raise ValueError(f"unknown concurrency control {name!r}; "
                         f"expected one of {sorted(schemes)}")
    return schemes[name]()
