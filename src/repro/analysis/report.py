"""Plain-text tables for the benchmark harnesses.

Every benchmark prints its experiment as one of these tables, so the
rows EXPERIMENTS.md quotes come from the same code paths the tests
check.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


#: Floats are rounded to this many decimals before they are printed, so
#: floating-point round-off (which varies with the BLAS kernels and the
#: numpy build) never reaches a printed digit: 1.6e-13 prints as 0, and
#: 0.84375 + 1.6e-13 rounds like 0.84375 itself.
ROUNDOFF_DECIMALS = 12


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        value = round(value, ROUNDOFF_DECIMALS)
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


class Table:
    """A fixed-column text table with a title and optional notes."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []
        self.notes: List[str] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append([_fmt(v) for v in values])

    def add_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.add_row(*row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())
        print()
