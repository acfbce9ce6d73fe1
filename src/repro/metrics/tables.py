"""Fixed-width table rendering for experiment output.

Every experiment returns a :class:`Table`: ``python -m repro run``
prints it (the report EXPERIMENTS.md records) and hands it to the
experiment's own ``claims``, which read it back by column name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if math.isinf(value):
            # int(inf) raises OverflowError; render it symbolically.
            return "inf" if value > 0 else "-inf"
        if value == int(value) and abs(value) < 1e12:
            return f"{int(value)}"
        return f"{value:.2f}"
    return str(value)


@dataclass
class Table:
    """A titled grid of rows under named columns."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def records(self) -> list[dict[str, Any]]:
        """Each row as a column-name -> value mapping."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def render(self) -> str:
        cells = [[_format_cell(value) for value in row] for row in self.rows]
        widths = [len(column) for column in self.columns]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(name.ljust(width)
                           for name, width in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
