"""Bounded-staleness Π(b) read views and the cache hierarchy.

See docs/READS.md. Public surface:

* :class:`ViewConfig` — knobs, passed as ``SystemConfig.views``;
* :class:`ViewService` / :class:`SiteViewCache` — the refresh and
  per-site cache tiers (the authority tier is the auditor's books);
* :class:`ViewEntry` / :class:`ViewRefresh` /
  :class:`ViewCertificate` — the wire/value types;
* ``set_view_leak`` — the chaos engine's planted certificate bug.
"""

from repro.reads.messages import ViewCertificate, ViewEntry, ViewRefresh
from repro.reads.views import (
    VIEW_LEAK_MODES,
    SiteViewCache,
    ViewConfig,
    ViewService,
    set_view_leak,
    view_leak,
)

__all__ = [
    "ViewCertificate", "ViewEntry", "ViewRefresh",
    "ViewConfig", "ViewService", "SiteViewCache",
    "VIEW_LEAK_MODES", "set_view_leak", "view_leak",
]
