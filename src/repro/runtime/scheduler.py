"""Scheduling policies: how close the runtime keeps to the nominal calendar.

The paper's generated C runtime drives the periodic nodes with OS timers
and observes (Section V-D) that all 34 crashes in the 104-hour campaign
happened because the safe controller "was not scheduled in time" after the
decision module switched — a scheduling effect, not a logic error — and
that running on a real-time OS would remove them.  These policies let the
reproduction span that spectrum:

* :class:`PerfectScheduler` — an idealised real-time OS: every firing is
  released exactly on time (the engine's default policy, defined in
  :mod:`repro.core.semantics`);
* :class:`JitteryOSScheduler` — OS timers under load: release jitter and
  occasional dropped activations;
* :class:`OverloadScheduler` — a pathological policy that starves selected
  nodes, used in fault-injection tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.errors import SchedulingError
from ..core.node import Node
from ..core.semantics import PerfectScheduler  # noqa: F401  (the engine's default, re-exported)


@dataclass
class JitteryOSScheduler:
    """Best-effort OS-timer scheduling with bounded jitter and rare drops.

    ``max_jitter`` bounds the release delay of every firing; ``drop_rate``
    is the probability that a given activation is missed entirely (e.g.
    because the process was preempted past the next activation).  Both
    default to values small enough that the system usually behaves well —
    matching the paper's observation that crashes were rare (34 over 104
    hours) but real.
    """

    max_jitter: float = 0.02
    drop_rate: float = 0.002
    seed: int = 0
    only_nodes: Optional[Sequence[str]] = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_jitter < 0.0:
            raise SchedulingError("max_jitter must be non-negative")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise SchedulingError("drop_rate must be a probability")
        self._rng = random.Random(self.seed)

    def reset(self) -> None:
        """Re-seed the jitter/drop stream from the construction seed (Resettable)."""
        self._rng = random.Random(self.seed)

    def _affects(self, node: Node) -> bool:
        return self.only_nodes is None or node.name in self.only_nodes

    def release_jitter(self, node: Node, nominal_time: float) -> float:
        if not self._affects(node):
            return 0.0
        return self._rng.uniform(0.0, self.max_jitter)

    def drops_execution(self, node: Node, nominal_time: float) -> bool:
        if not self._affects(node):
            return False
        return self._rng.random() < self.drop_rate


@dataclass
class OverloadScheduler:
    """Starves the listed nodes inside a time window (for fault-injection tests)."""

    starved_nodes: Sequence[str]
    start_time: float = 0.0
    end_time: float = float("inf")

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise SchedulingError("the overload window must have end_time >= start_time")

    def release_jitter(self, node: Node, nominal_time: float) -> float:
        return 0.0

    def drops_execution(self, node: Node, nominal_time: float) -> bool:
        if node.name not in self.starved_nodes:
            return False
        return self.start_time <= nominal_time <= self.end_time
