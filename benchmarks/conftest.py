"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the SOTER paper's
evaluation (Section V) on a scaled-down workload and prints the rows it
measured next to the values the paper reports, so the qualitative shape
can be compared at a glance (run with ``pytest -s`` to see the tables).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print a small aligned table to stdout."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(column) for column in header]
    for row in rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    line = "  ".join(name.ljust(width) for name, width in zip(header, widths))
    lines = [f"\n=== {title} ===", line, "-" * len(line)]
    lines.extend(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows
    )
    print("\n".join(lines))


@pytest.fixture
def table_printer():
    """Fixture handing benchmarks the table printer."""
    return print_table
