"""Stable page store: the site's local database.

Each fragment lives on a "page" stamped with the LSN of the log record
whose actions it last absorbed. The stamp is the idempotence guard for
redo: recovery re-applies a record only to pages whose stamp is older.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(slots=True)
class Page:
    value: Any
    page_lsn: int = -1


class PageStore:
    """Crash-surviving map item -> (value, page_lsn)."""

    def __init__(self, site: str) -> None:
        self.site = site
        self._pages: dict[str, Page] = {}
        self.writes = 0

    def __contains__(self, item: str) -> bool:
        return item in self._pages

    def items(self) -> Iterator[tuple[str, Any]]:
        for name, page in self._pages.items():
            yield name, page.value

    def create(self, item: str, value: Any) -> Page:
        """Initialize a page (loading the initial quota); the page is
        never replaced, so callers may keep it and read it directly."""
        if item in self._pages:
            raise ValueError(f"page for {item!r} already exists")
        page = self._pages[item] = Page(value)
        return page

    def page(self, item: str) -> Page:
        """*item*'s page, for a store built over surviving pages."""
        return self._pages[item]

    def read(self, item: str) -> Any:
        return self._pages[item].value

    def page_lsn(self, item: str) -> int:
        return self._pages[item].page_lsn

    def write(self, item: str, value: Any, lsn: int) -> None:
        """Apply a logged action to the page, stamping it with *lsn*."""
        page = self._pages[item]
        page.value = value
        page.page_lsn = lsn
        self.writes += 1

    def write_if_newer(self, item: str, value: Any, lsn: int) -> bool:
        """Redo-apply: write only if the page hasn't absorbed *lsn* yet."""
        page = self._pages[item]
        if page.page_lsn >= lsn:
            return False
        page.value = value
        page.page_lsn = lsn
        self.writes += 1
        return True
