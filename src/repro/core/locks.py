"""Exclusive lock table with atomic multi-item acquisition.

Section 5 step 1: a transaction's local locks "are obtained
atomically". Conc1 never waits (a lock that cannot be granted
immediately fails the request); Conc2 uses strict two-phase locking, so
the table also supports FIFO waiting on the whole lock *set* — a waiter
is granted only when every item it wants is free, in arrival order,
which cannot deadlock locally because no waiter ever holds a partial
set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable


@dataclass
class _Waiter:
    owner: str
    items: frozenset[str]
    on_granted: Callable[[], None]
    cancelled: bool = False


@dataclass
class LockTable:
    """Per-site exclusive locks keyed by item name."""

    holders: dict[str, str] = field(default_factory=dict)
    #: The same locks by owner, so a release never scans ``holders``.
    _owned: dict[str, list[str]] = field(default_factory=dict)
    _waiters: list[_Waiter] = field(default_factory=list)

    def holder(self, item: str) -> str | None:
        return self.holders.get(item)

    def held_by(self, owner: str) -> set[str]:
        return set(self._owned.get(owner, ()))

    def is_free(self, item: str) -> bool:
        return item not in self.holders

    def try_acquire_all(self, owner: str, items: Collection[str]) -> bool:
        """Atomically lock *items* for *owner*; all-or-nothing, no wait."""
        holders = self.holders
        for item in items:
            if item in holders:
                return False
        self._grant(owner, items)
        return True

    def _grant(self, owner: str, items: Iterable[str]) -> None:
        owned = self._owned.setdefault(owner, [])
        for item in items:
            self.holders[item] = owner
            owned.append(item)

    def acquire_all_or_wait(self, owner: str, items: Collection[str],
                            on_granted: Callable[[], None]) -> bool:
        """Lock *items* now if possible, else join the FIFO wait queue.

        Returns True if granted immediately. ``on_granted`` is invoked
        (synchronously, from a later release) when a queued request is
        eventually granted. FIFO fairness: a request never overtakes an
        earlier-queued request that it conflicts with.
        """
        wanted = frozenset(items)
        if self._conflicts_with_queue(wanted) is False and \
                self.try_acquire_all(owner, items):
            return True
        self._waiters.append(_Waiter(owner, wanted, on_granted))
        return False

    def cancel_waiter(self, owner: str) -> None:
        """Withdraw all queued requests by *owner* (e.g. txn timed out)."""
        for waiter in self._waiters:
            if waiter.owner == owner:
                waiter.cancelled = True

    def release_all(self, owner: str) -> list[str]:
        """Release every lock held by *owner*, then promote waiters."""
        released = self._owned.pop(owner, [])
        for item in released:
            del self.holders[item]
        if self._waiters:
            self._promote()
        return released

    def clear(self) -> None:
        """Drop all locks and waiters (crash: lock state is volatile)."""
        self.holders.clear()
        self._owned.clear()
        self._waiters.clear()

    def _conflicts_with_queue(self, items: frozenset[str]) -> bool:
        """Would granting *items* now overtake a queued conflicting waiter?"""
        for waiter in self._waiters:
            if not waiter.cancelled and waiter.items & items:
                return True
        return False

    def _promote(self) -> None:
        """Grant queued requests whose full set is now free, in order."""
        granted: list[_Waiter] = []
        still_blocked_items: set[str] = set()
        remaining: list[_Waiter] = []
        for waiter in self._waiters:
            if waiter.cancelled:
                continue
            can_grant = (
                not (waiter.items & still_blocked_items)
                and all(item not in self.holders for item in waiter.items))
            if can_grant:
                self._grant(waiter.owner, waiter.items)
                granted.append(waiter)
            else:
                remaining.append(waiter)
                still_blocked_items |= waiter.items
        self._waiters = remaining
        for waiter in granted:
            waiter.on_granted()
