"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the SOTER paper's
evaluation (Section V) on a scaled-down workload and prints the rows it
measured next to the values the paper reports, so the qualitative shape
can be compared at a glance.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Sequence

import pytest


import pathlib

#: Every table a benchmark prints is also appended here, so the regenerated
#: rows survive pytest's output capturing.
TABLE_LOG = pathlib.Path(__file__).resolve().parent.parent / "benchmark_tables.txt"

#: Per-benchmark reference wall times (seconds), stored next to the table
#: log.  ``gate_benchmark`` compares fresh measurements against these and
#: fails the benchmark run on a >2x slowdown — the benchmark CI gate.
REFERENCE_PATH = TABLE_LOG.parent / "benchmark_reference.json"

#: A measurement this many times slower than its reference fails the run.
REGRESSION_FACTOR = 2.0


def _load_references() -> dict:
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return {}


def gate_benchmark(name: str, seconds: float) -> None:
    """Record or check one benchmark measurement against the stored reference.

    * No stored reference for ``name`` (or ``BENCH_UPDATE_REFERENCE=1`` in
      the environment): the measurement becomes the new reference.
    * Otherwise the run fails when the measurement exceeds the reference
      by more than :data:`REGRESSION_FACTOR` — so a hot path that silently
      doubled its cost turns the benchmark suite red instead of quietly
      appending a worse table.
    """
    references = _load_references()
    reference = references.get(name)
    if reference is None or os.environ.get("BENCH_UPDATE_REFERENCE") == "1":
        references[name] = round(float(seconds), 4)
        REFERENCE_PATH.write_text(
            json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return
    if seconds > REGRESSION_FACTOR * reference:
        pytest.fail(
            f"benchmark {name!r} regressed: {seconds:.3f}s measured vs "
            f"{reference:.3f}s reference (>{REGRESSION_FACTOR:.0f}x slowdown); "
            "rerun with BENCH_UPDATE_REFERENCE=1 if the change is intentional"
        )


@pytest.fixture
def benchmark_gate():
    """Fixture handing benchmarks the regression gate."""
    return gate_benchmark


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print a small aligned table and append it to ``benchmark_tables.txt``."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(column) for column in header]
    for row in rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    line = "  ".join(name.ljust(width) for name, width in zip(header, widths))
    lines = [f"\n=== {title} ===", line, "-" * len(line)]
    lines.extend(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows
    )
    text = "\n".join(lines)
    print(text)
    with TABLE_LOG.open("a", encoding="utf-8") as handle:
        handle.write(text + "\n")


@pytest.fixture
def table_printer():
    """Fixture handing benchmarks the table printer."""
    return print_table
