"""Plain-text result tables for the experiment harness.

Every benchmark prints its rows through :class:`Table`, so the bench
outputs share one format and the paper-vs-measured comparison is
copy-pasteable.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["Table", "format_row"]


def _render_cell(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_row(cells: Sequence[object], widths: Sequence[int]) -> str:
    rendered = [
        _render_cell(cell).rjust(width) if index else _render_cell(cell).ljust(width)
        for index, (cell, width) in enumerate(zip(cells, widths))
    ]
    return "  ".join(rendered)


class Table:
    """An ASCII table with a title, headers, and typed cells.

    >>> t = Table("demo", ["name", "value"])
    >>> t.add("alpha", 1)
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[object]] = []

    def add(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(f"row has {len(cells)} cells, table has {len(self.headers)} columns")
        self.rows.append(list(cells))

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(_render_cell(cell)))
        lines = [self.title, "=" * len(self.title)]
        lines.append(format_row(self.headers, widths))
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(format_row(row, widths))
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())
        print()
