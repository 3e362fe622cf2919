"""Result tables for the benchmark harness: formatting and persistence."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence

__all__ = ["Table", "format_number", "results_dir"]


def results_dir() -> str:
    """Directory benchmark tables are written to (created on demand)."""
    root = os.environ.get("REPRO_RESULTS_DIR",
                          os.path.join(os.getcwd(), "bench_results"))
    os.makedirs(root, exist_ok=True)
    return root


def format_number(value: Any) -> str:
    """Human-friendly rendering of table cells."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        if abs(value) >= 0.01:
            return f"{value:.3f}"
        return f"{value:.2e}"
    return str(value)


@dataclass
class Table:
    """An ordered collection of result rows (dicts) with a title.

    Mirrors one table/figure of the paper; ``to_text`` renders the same rows
    the paper plots, ``save`` archives them under ``bench_results/``.
    """

    title: str
    columns: Sequence[str]
    rows: List[dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria) -> "Table":
        """Sub-table with the rows matching all given column values."""
        subset = [row for row in self.rows
                  if all(row.get(key) == value for key, value in criteria.items())]
        return Table(title=self.title, columns=self.columns, rows=subset,
                     notes=list(self.notes))

    def lookup(self, value_column: str, **criteria) -> Optional[Any]:
        """Value of ``value_column`` in the unique row matching ``criteria``.

        ``None`` when no row matches; ``LookupError`` when several do (the
        criteria leave out a column the table varies).
        """
        matches = self.filter(**criteria).rows
        if not matches:
            return None
        if len(matches) > 1:
            raise LookupError(f"{criteria} matches {len(matches)} rows of "
                              f"{self.title!r}, not one")
        return matches[0].get(value_column)

    # ------------------------------------------------------------- rendering

    def to_text(self) -> str:
        columns = list(self.columns)
        rendered = [[format_number(row.get(col)) for col in columns]
                    for row in self.rows]
        widths = [max(len(col), *(len(r[i]) for r in rendered)) if rendered else len(col)
                  for i, col in enumerate(columns)]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in rendered:
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "title": self.title,
            "columns": list(self.columns),
            "rows": self.rows,
            "notes": self.notes,
        }, indent=2, default=str)

    def save(self, name: str) -> str:
        """Write text and JSON renderings under ``bench_results/``; returns path."""
        directory = results_dir()
        text_path = os.path.join(directory, f"{name}.txt")
        with open(text_path, "w") as handle:
            handle.write(self.to_text() + "\n")
        with open(os.path.join(directory, f"{name}.json"), "w") as handle:
            handle.write(self.to_json() + "\n")
        return text_path

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
