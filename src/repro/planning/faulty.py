"""Bug-injected planners (Section V-C of the paper).

"We injected bugs into the implementation of RRT* such that in some cases
the generated motion plan can collide with obstacles."  The wrappers here
do the same to any planner with a ``plan(start, goal, created_at)``
method, in three representative ways:

* **corner cutting** — replace the plan by the straight start→goal
  segment, ignoring obstacles (a classic shortcutting bug);
* **waypoint corruption** — perturb a random intermediate waypoint so the
  path clips an obstacle;
* **clearance loss** — re-plan with a (near-)zero clearance margin so the
  path hugs obstacle faces.

The fault fires with a configurable probability per planning query, so the
planner "usually works" — which is what makes runtime assurance, rather
than rejection at design time, the right tool.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional, Protocol

from ..geometry import Vec3
from .plan import Plan, straight_line_plan


class Planner(Protocol):
    """Anything that can produce a plan between two points (and reset and snapshot)."""

    name: str

    def plan(self, start: Vec3, goal: Vec3, created_at: float = 0.0) -> Optional[Plan]:
        ...

    def reset(self) -> None: ...
    def capture_delta_state(self) -> object: ...
    def restore_delta_state(self, state: object) -> None: ...


class PlannerBug(enum.Enum):
    """The injected bug classes."""

    CORNER_CUTTING = "corner-cutting"
    WAYPOINT_CORRUPTION = "waypoint-corruption"
    CLEARANCE_LOSS = "clearance-loss"


@dataclass
class FaultyPlanner:
    """Wraps a planner and injects plan-level bugs with a given probability."""

    inner: Planner
    bug: PlannerBug = PlannerBug.CORNER_CUTTING
    probability: float = 0.3
    corruption_magnitude: float = 4.0
    seed: int = 0
    name: str = ""
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("fault probability must be in [0, 1]")
        if not self.name:
            self.name = f"{self.inner.name}+{self.bug.value}"
        self._rng = random.Random(self.seed)
        self.injected_faults = 0

    def reset(self) -> None:
        self._rng.seed(self.seed)
        self.injected_faults = 0
        self.inner.reset()

    # Delta-snapshot hooks (see repro.core.resettable).
    def capture_delta_state(self) -> tuple:
        return (self._rng.getstate(), self.injected_faults, self.inner.capture_delta_state())

    def restore_delta_state(self, state: tuple) -> None:
        rng_state, self.injected_faults, inner_state = state
        self._rng.setstate(rng_state)
        self.inner.restore_delta_state(inner_state)

    def plan(self, start: Vec3, goal: Vec3, created_at: float = 0.0) -> Optional[Plan]:
        """Plan with the inner planner, then possibly corrupt the result."""
        nominal = self.inner.plan(start, goal, created_at=created_at)
        if self._rng.random() >= self.probability:
            return nominal
        self.injected_faults += 1
        if self.bug is PlannerBug.CORNER_CUTTING:
            return straight_line_plan(start, goal, planner=self.name, created_at=created_at)
        if nominal is None:
            return None
        if self.bug is PlannerBug.WAYPOINT_CORRUPTION:
            return self._corrupt_waypoint(nominal, created_at)
        if self.bug is PlannerBug.CLEARANCE_LOSS:
            return self._hug_obstacles(nominal, created_at)
        raise ValueError(f"unsupported planner bug {self.bug}")

    def _corrupt_waypoint(self, plan: Plan, created_at: float) -> Plan:
        waypoints = list(plan.waypoints)
        if len(waypoints) <= 2:
            # Nothing intermediate to corrupt; degrade to corner cutting.
            return straight_line_plan(waypoints[0], plan.goal, planner=self.name, created_at=created_at)
        index = self._rng.randrange(1, len(waypoints) - 1)
        offset = Vec3(
            self._rng.uniform(-self.corruption_magnitude, self.corruption_magnitude),
            self._rng.uniform(-self.corruption_magnitude, self.corruption_magnitude),
            0.0,
        )
        waypoints[index] = waypoints[index] + offset
        return Plan(
            waypoints=tuple(waypoints),
            goal=plan.goal,
            planner=self.name,
            created_at=created_at,
        )

    def _hug_obstacles(self, plan: Plan, created_at: float) -> Plan:
        """Pull every intermediate waypoint halfway toward the straight line."""
        waypoints = list(plan.waypoints)
        if len(waypoints) <= 2:
            return plan
        start, goal = waypoints[0], waypoints[-1]
        squeezed = [start]
        for index, waypoint in enumerate(waypoints[1:-1], start=1):
            alpha = index / (len(waypoints) - 1)
            straight_point = start.lerp(goal, alpha)
            squeezed.append(waypoint.lerp(straight_point, 0.6))
        squeezed.append(goal)
        return Plan(
            waypoints=tuple(squeezed),
            goal=plan.goal,
            planner=self.name,
            created_at=created_at,
        )
