"""Plain-text tables, and a paper-shaped table as a view over rows.

Every table this repo prints — a sweep's metrics table, a results-book
digest, E1–E12 — is a :class:`View` applied to flat row dicts and
rendered by :meth:`Table.render`; no external dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

#: What fills one column: a row key (missing reads ``-``), or row -> value.
Pick = Union[str, Callable[[Dict[str, Any]], Any]]


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def union_columns(rows: Sequence[dict]) -> List[str]:
    """The union of row keys in first-seen order — the one column-order
    rule for every artifact surface (tables, CSV, the results book)."""
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def project(row: Dict[str, Any], columns: Mapping[str, Pick]) -> Dict[str, Any]:
    """``{header: value}`` for one row under an ordered ``{header: pick}``."""
    return {header: row.get(pick, "-") if isinstance(pick, str) else pick(row)
            for header, pick in columns.items()}


@dataclass(frozen=True)
class View:
    """A titled table over a sweep's rows: ``select`` says which rows it
    shows (or digests them into others), ``columns`` what it shows of
    each — ``{header: row key | row -> value}`` in column order, None
    for every key the rows carry.  ``lead`` is the sentence the results
    book prints above it."""

    title: str
    columns: Optional[Mapping[str, Pick]] = None
    select: Callable[[Sequence[dict]], List[dict]] = list
    lead: str = ""

    def table(self, rows: Sequence[dict]) -> "Table":
        shown = self.select(rows)
        if self.columns is not None:
            shown = [project(row, self.columns) for row in shown]
        table = Table(self.title, self.columns or union_columns(shown))
        for row in shown:
            table.add_row(*(row.get(column, "-") for column in table.columns))
        return table


def rows_to_table(title: str, rows: Sequence[dict]) -> "Table":
    """The view that shows everything: columns from
    :func:`union_columns`, missing values as ``-``.  Both
    ``SweepResult.to_table`` and the results book
    (``harness/report.py``) build their tables here, so a book rendered
    from stored rows matches the live sweep table exactly.
    """
    return View(title).table(rows)


class Table:
    """An aligned fixed-column table with a title.  ``rows`` keeps the
    values as given; they become text when rendered."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[Any]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(values)}")
        self.rows.append(list(values))

    def render(self) -> str:
        cells = [[_format_cell(value) for value in row] for row in self.rows]
        widths = [len(column) for column in self.columns]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        header = "  ".join(column.ljust(widths[index])
                           for index, column in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[index])
                                   for index, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
