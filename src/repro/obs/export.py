"""Canonical JSON lines for trace events.

One event per line, ``sort_keys=True`` and no whitespace so the same
event stream always serializes to the same bytes — `repro trace
--jsonl` output and the trace tails embedded in chaos repro artifacts
are diffable across replays.
"""

from __future__ import annotations

import json

from repro.obs.events import TraceEvent


def event_to_json(event: TraceEvent) -> str:
    """Canonical single-line JSON for one event."""
    return json.dumps(event.to_dict(), sort_keys=True,
                      separators=(",", ":"), default=str)


__all__ = ["event_to_json"]
