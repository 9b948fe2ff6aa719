"""The benchmarks under benchmarks/ need nothing beyond pytest itself.

``bench_*.py`` does not match pytest's ``test_*.py`` pattern, so the
files are passed explicitly.  ``--setup-only`` collects every benchmark
and sets up its fixtures without running it: an unregistered mark or a
fixture from a plugin that is not installed fails the run.
"""

import os
import pathlib
import subprocess
import sys

_REPO = pathlib.Path(__file__).resolve().parents[2]


def test_benchmarks_collect_and_set_up_with_plain_pytest():
    files = sorted(str(path) for path in (_REPO / "benchmarks").glob("bench_*.py"))
    assert files
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:benchmark",
         "-W", "error::pytest.PytestUnknownMarkWarning", "--setup-only", *files],
        cwd=_REPO,
        env={**os.environ, "PYTHONPATH": str(_REPO / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-4000:]
