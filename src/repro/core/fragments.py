"""Per-site fragment store.

A fragment is the local element of Π⁻¹(d): the stable page holds its
value (see :mod:`repro.storage.pages`); this store adds the volatile
metadata — the fragment timestamp TS(d_i) used by Conc1 — and the
domain registry mapping each item to its (Γ, Π).

An optional ``observer`` (the conservation auditor's incremental
accounting) is told about every stable-value change — registration,
write, and effective redo — with the old and new values, which is all
the information needed to keep global Σ-fragment totals in O(1).
"""

from __future__ import annotations

from typing import Any, Iterator, Protocol

from repro.core.domain import Domain
from repro.storage.pages import Page, PageStore

#: Test-only fault injection, used by the chaos engine's own validation
#: (see docs/CHAOS.md): a deliberately planted conservation bug that
#: the explorer must catch and the shrinker must minimize. Never set in
#: production code paths.
#:
#: ``"write"`` — every stable write of a positive integer fragment
#: silently loses one unit (value destroyed on the hot path; any
#: committing workload violates conservation, no faults required).
#: ``"crash"`` — each crash burns one unit of the first non-zero
#: integer fragment (``FragmentStore.tear``: a torn page the redo guard
#: can never restore; only plans containing a crash violate
#: conservation).
#: ``"duplicate-grant"`` — a redistribution wave names an item once per
#: transfer op drawing on it, and the responder grants every naming
#: from one read of its fragment (read by ``Transaction`` and
#: ``DvPSite``; only multi-op waves that draw an item twice create
#: value).
#: ``"run-first-seq"`` — recovery restores an accept record's first
#: sequence number instead of its last (read by ``recover_site``), so
#: the rest of the run is absorbed again when retransmitted.
_TEST_LEAK: str | None = None

_LEAK_MODES = (None, "write", "crash", "duplicate-grant", "run-first-seq")


def set_test_leak(mode: str | None) -> None:
    """Arm/disarm the planted conservation bug (test harnesses only)."""
    global _TEST_LEAK
    if mode not in _LEAK_MODES:
        raise ValueError(f"unknown leak mode {mode!r}; try {_LEAK_MODES}")
    _TEST_LEAK = mode


def test_leak() -> str | None:
    return _TEST_LEAK


class FragmentObserver(Protocol):
    """What the auditor hooks into a fragment store."""

    def on_fragment_register(self, site: str, item: str, domain: Domain,
                             value: Any) -> None: ...

    def on_fragment_write(self, site: str, item: str, old: Any,
                          new: Any) -> None: ...


class FragmentStore:
    """Domain-aware view over a site's stable pages."""

    def __init__(self, site: str, pages: PageStore,
                 observer: FragmentObserver | None = None) -> None:
        self.site = site
        self.pages = pages
        self.observer = observer
        #: Item → its domain; one lookup answers both "is *item* here?"
        #: and "which (Γ, Π)?". Read-only outside this class.
        self.domains: dict[str, Domain] = {}
        #: The page store's own Page objects: a value read is one lookup.
        self._pages: dict[str, Page] = {}
        self._timestamps: dict[str, int] = {}

    # -- registration -----------------------------------------------------

    def register(self, item: str, domain: Domain, initial: Any) -> None:
        """Install *item*'s local fragment with its *initial* quota."""
        domain.validate(initial)
        self.pages.create(item, initial)
        self.adopt(item, domain)
        if self.observer is not None:
            self.observer.on_fragment_register(self.site, item, domain,
                                               initial)

    def adopt(self, item: str, domain: Domain) -> None:
        """Take over *item*'s page as it stands — after a crash, the
        surviving one: no value is written and the observer, which
        already counts it, hears nothing. Its stamp starts at 0
        (recovery rebuilds it from the log)."""
        self.domains[item] = domain
        self._pages[item] = self.pages.page(item)
        self._timestamps[item] = 0

    def knows(self, item: str) -> bool:
        return item in self.domains

    def items(self) -> Iterator[str]:
        yield from self.domains

    def domain(self, item: str) -> Domain:
        return self.domains[item]

    # -- values (stable) ----------------------------------------------------

    def value(self, item: str) -> Any:
        return self._pages[item].value

    def write(self, item: str, value: Any, lsn: int, ts: int = 0) -> None:
        """Write *value* through to the stable page at *lsn*, and stamp
        the fragment with *ts* if it is newer (0 never is)."""
        if _TEST_LEAK == "write" and isinstance(value, int) and value > 0:
            value -= 1  # planted bug: one unit silently destroyed
        self.domains[item].validate(value)
        if self.observer is not None:
            old = self._pages[item].value
            self.pages.write(item, value, lsn)
            self.observer.on_fragment_write(self.site, item, old, value)
        else:
            self.pages.write(item, value, lsn)
        if ts > self._timestamps[item]:
            self._timestamps[item] = ts

    def redo_write(self, item: str, value: Any, lsn: int) -> bool:
        """Idempotent redo (guarded by the page LSN)."""
        old = self._pages[item].value if self.observer is not None else None
        written = self.pages.write_if_newer(item, value, lsn)
        if written and self.observer is not None:
            self.observer.on_fragment_write(self.site, item, old, value)
        return written

    # -- timestamps (volatile, log-reconstructed) ---------------------------

    def timestamp(self, item: str) -> int:
        return self._timestamps[item]

    def stamp(self, item: str, ts: int) -> None:
        self._timestamps[item] = ts

    def stamp_if_newer(self, item: str, ts: int) -> None:
        if ts > self._timestamps[item]:
            self._timestamps[item] = ts

    def tear(self) -> None:
        """The planted ``"crash"`` bug, run by ``DvPSystem.crash``: burn
        one unit of the first non-zero integer fragment at its page's
        own LSN, a torn page redo can never restore."""
        for item in sorted(self.domains):
            value = self._pages[item].value
            if isinstance(value, int) and value > 0:
                self.write(item, value - 1, self.pages.page_lsn(item))
                return

    def non_zero_items(self) -> list[str]:
        """Items whose local fragment currently carries value — what a
        decommission drain (repro.core.migration) still has to move."""
        return [item for item, domain in self.domains.items()
                if not domain.is_zero(self._pages[item].value)]

    def snapshot(self) -> dict[str, Any]:
        """Item → value view, used by audits and checkpoints."""
        return {item: page.value for item, page in self._pages.items()}
