"""Small, dependency-free helpers shared by the benchmark and its self-tests.

* :func:`tail` — the highest percentile with at least ten samples beyond it;
* :func:`digest` — a stable hash of simulated statistics;
* :func:`derive_seed` — per-operation seeds threaded from the workload seed;
* :func:`peak_rss_mb` — the process's peak resident set size;
* :func:`reference_s` — the host's speed right now, as the time of a fixed loop.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import sys
import time
from typing import Any, List, Optional, Sequence, Tuple

#: A tail percentile is only reported when at least this many samples lie
#: beyond it, so one outlier can never be "the p99".
TAIL_BEYOND = 10
#: Latency samples per tail group: the run's samples are cut into groups of
#: at most this many, so the tail of a group is about p99.  Over a whole
#: run of ~25000 samples the rule would reach p99.96, which is set by a few
#: host stalls and collector pauses instead of by the program's slow steps.
TAIL_GROUP = 1000
#: What :func:`reference_s` takes on an unloaded Intel Xeon vCPU at 2.1 GHz
#: (8-13 ms there); timings are reported at this reference speed.
REFERENCE_NOMINAL_S = 0.010


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def quartiles(samples: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile (one sample: itself thrice)."""
    if len(samples) < 2:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4)


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(value, percentile)`` of the highest percentile with ≥10 samples beyond.

    With ``n`` samples sorted ascending, the sample at 0-based rank
    ``n - 11`` has exactly ten samples beyond it; its percentile is the
    share of samples at or below it.  Returns ``None`` when there are
    fewer than eleven samples (no percentile qualifies).
    """
    n = len(samples)
    rank = n - TAIL_BEYOND - 1
    if rank < 0:
        return None
    ordered = sorted(samples)
    return ordered[rank], 100.0 * (rank + 1) / n


def tail_of_groups(samples: Sequence[float]) -> Tuple[float, float]:
    """Median over groups of the group tails, and the lowest percentile used.

    The samples, in timed order, are cut into ``ceil(n / TAIL_GROUP)``
    consecutive groups of near-equal size; each gives its :func:`tail`.
    """
    count = -(-len(samples) // TAIL_GROUP)
    size = len(samples) / count if count else 0
    tails = [tail(samples[round(i * size):round((i + 1) * size)]) for i in range(count)]
    if not tails or any(t is None for t in tails):
        raise ValueError(f"{len(samples)} samples are too few for a tail")
    return median([value for value, _ in tails]), min(percentile for _, percentile in tails)


def digest(values: Any) -> str:
    """Stable 16-hex-digit digest of JSON-able values (floats by ``repr``)."""

    def canonical(value: Any) -> Any:
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, dict):
            return {str(key): canonical(item) for key, item in sorted(value.items())}
        if isinstance(value, (list, tuple)):
            return [canonical(item) for item in value]
        return value

    text = json.dumps(canonical(values), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def derive_seed(seed: int, tag: str, index: int) -> int:
    """Deterministic sub-seed for operation ``index`` of stream ``tag``.

    Distinct workload seeds give unrelated operation seeds, and the
    program under test only ever sees these derived integers.
    """
    raw = hashlib.sha256(f"{seed}:{tag}:{index}".encode("utf-8")).digest()
    return int.from_bytes(raw[:4], "big") % 100_000


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def moved(self, d: float) -> "_Point":
        return _Point(self.x + d, self.y * 0.5 + d)


_RANDOM = random.Random(0)
_UNSORTED = [_RANDOM.random() for _ in range(5000)]


def reference_s() -> float:
    """Host seconds of one pass of a fixed pure-Python loop mix.

    Float arithmetic, small objects, sorting and dict/str work, like the
    interpreter-bound program.  The benchmark's host is shared: for
    stretches of seconds to minutes every operation runs 30-80% slower.
    Timed right before each measured window, this loop gauges how fast the
    host is at that moment; the loop never changes, so a change to the
    program does not move it.
    """
    started = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc = acc * 0.999 + i * 1e-6
    point = _Point(0.0, 1.0)
    kept = []
    for i in range(8000):
        point = point.moved(0.1)
        if i % 7 == 0:
            kept.append((point.x, {"y": point.y}))
    sorted(_UNSORTED)
    sorted(_UNSORTED, key=lambda value: -value)
    table = {}
    for i in range(10000):
        table[i % 1000] = [i, str(i)]
    return time.perf_counter() - started
