"""Filtering and aligned-timeline rendering of trace events.

Backs the ``repro trace`` CLI subcommand: a trace (from a live run or
an imported JSONL) is narrowed with :class:`TraceFilter` and rendered
as a fixed-width timeline, one line per event, with time / site /
kind / detail columns aligned for scanning. Rendering depends only on
the event fields, so the same trace always renders to the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.obs.events import TraceEvent


@dataclass(frozen=True)
class TraceFilter:
    """Keep events mentioning a site / item / transaction / kind prefix.

    Each criterion is conjunctive when set; ``site`` matches any
    site-valued field (``site``, ``src``, ``dst``) so a filter on S1
    shows both directions of S1's traffic.
    """

    site: str | None = None
    item: str | None = None
    txn: str | None = None
    kind: str | None = None

    def matches(self, event: TraceEvent) -> bool:
        data = event.to_dict()
        if self.kind is not None and \
                not data["kind"].startswith(self.kind):
            return False
        if self.site is not None and self.site not in (
                data.get("site"), data.get("src"), data.get("dst")):
            return False
        if self.item is not None and data.get("item") != self.item:
            return False
        if self.txn is not None and self.txn not in (
                data.get("txn"), data.get("label")):
            return False
        return True

    def apply(self, events: Iterable[TraceEvent]) -> Iterator[TraceEvent]:
        return (event for event in events if self.matches(event))


def _actor(event: TraceEvent) -> tuple[str, str]:
    """(site the line is attributed to, field it was taken from)."""
    data = event.to_dict()
    if data.get("site"):
        return data["site"], "site"
    if data.get("src"):
        return data["src"], "src"
    return "-", ""


def _detail(event: TraceEvent, actor_field: str) -> str:
    """Every remaining field, as stable key=value pairs.

    Only ``t`` and the field already shown in the site column are
    dropped — e.g. a ``vm.accept`` attributed to its ``site`` still
    shows ``src=...`` so the channel direction survives in the line.
    """
    return " ".join(f"{name}={value}" for name, value in event.fields()
                    if name != actor_field and value not in ("", None))


def render_timeline(events: Iterable[TraceEvent], title: str = "trace"
                    ) -> str:
    """Aligned fixed-width timeline, one event per line."""
    rows = []
    for event in events:
        actor, actor_field = _actor(event)
        rows.append((f"{event.t:.3f}", actor, event.kind,
                     _detail(event, actor_field)))
    if not rows:
        return f"{title}\n(no events)"
    widths = [max(len(row[column]) for row in rows) for column in range(3)]
    lines = [title,
             f"{'time'.rjust(widths[0])}  {'site'.ljust(widths[1])}  "
             f"{'event'.ljust(widths[2])}  detail"]
    for time, actor, kind, detail in rows:
        lines.append(f"{time.rjust(widths[0])}  {actor.ljust(widths[1])}  "
                     f"{kind.ljust(widths[2])}  {detail}".rstrip())
    lines.append(f"({len(rows)} events)")
    return "\n".join(lines)


__all__ = ["TraceFilter", "render_timeline"]
