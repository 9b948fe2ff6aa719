"""RRT* sampling-based motion planner (OMPL substitute).

The paper implements its surveillance motion planner with the RRT*
algorithm [29] from the third-party OMPL library and treats it as an
untrusted advanced component.  This is a from-scratch RRT* with the usual
ingredients — uniform sampling with goal bias, steering with a bounded
step, nearest/near queries, cost-based rewiring — planning in the (x, y)
plane at a fixed flight altitude (the case-study workspace has
ground-mounted obstacles, so planning altitude is constant).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..geometry import Vec3, Workspace
from .plan import Plan


@dataclass
class _TreeNode:
    position: Vec3
    parent: Optional[int]
    cost: float


@dataclass
class RRTStarPlanner:
    """Sampling-based asymptotically-optimal planner (the untrusted planner AC)."""

    workspace: Workspace
    clearance: float = 1.0
    altitude: float = 2.0
    max_iterations: int = 600
    step_size: float = 3.0
    neighbor_radius: float = 5.0
    goal_bias: float = 0.15
    goal_tolerance: float = 1.0
    seed: int = 0
    name: str = "rrt-star"
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.step_size <= 0.0 or self.neighbor_radius <= 0.0:
            raise ValueError("step_size and neighbor_radius must be positive")
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")
        self._rng = random.Random(self.seed)

    # Reset and delta-snapshot hooks (see repro.core.resettable): the
    # sampler is the planner's only per-execution state.
    def reset(self) -> None:
        self._rng.seed(self.seed)

    def capture_delta_state(self) -> tuple:
        return self._rng.getstate()

    def restore_delta_state(self, state: tuple) -> None:
        self._rng.setstate(state)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def plan(self, start: Vec3, goal: Vec3, created_at: float = 0.0) -> Optional[Plan]:
        """Plan from ``start`` to ``goal``; returns None if no path was found."""
        start = start.with_z(self.altitude)
        goal = goal.with_z(self.altitude)
        nodes: List[_TreeNode] = [_TreeNode(position=start, parent=None, cost=0.0)]
        best_goal_index: Optional[int] = None
        best_goal_cost = math.inf
        for _ in range(self.max_iterations):
            sample = self._sample(goal)
            nearest_index = self._nearest(nodes, sample)
            new_position = self._steer(nodes[nearest_index].position, sample)
            if not self._segment_free(nodes[nearest_index].position, new_position):
                continue
            near_indices = self._near(nodes, new_position)
            parent_index, cost = self._choose_parent(nodes, near_indices, nearest_index, new_position)
            nodes.append(_TreeNode(position=new_position, parent=parent_index, cost=cost))
            new_index = len(nodes) - 1
            self._rewire(nodes, near_indices, new_index)
            # Track the cheapest node that can connect straight to the goal.
            if new_position.distance_to(goal) <= self.goal_tolerance or self._segment_free(
                new_position, goal
            ):
                goal_cost = cost + new_position.distance_to(goal)
                if goal_cost < best_goal_cost:
                    best_goal_cost = goal_cost
                    best_goal_index = new_index
        if best_goal_index is None:
            return None
        waypoints = self._extract_path(nodes, best_goal_index, goal)
        return Plan(waypoints=tuple(waypoints), goal=goal, planner=self.name, created_at=created_at)

    # ------------------------------------------------------------------ #
    # RRT* internals
    # ------------------------------------------------------------------ #
    def _sample(self, goal: Vec3) -> Vec3:
        if self._rng.random() < self.goal_bias:
            return goal
        bounds = self.workspace.bounds
        return Vec3(
            self._rng.uniform(bounds.lo.x, bounds.hi.x),
            self._rng.uniform(bounds.lo.y, bounds.hi.y),
            self.altitude,
        )

    @staticmethod
    def _nearest(nodes: List[_TreeNode], sample: Vec3) -> int:
        best_index = 0
        best_dist = math.inf
        for index, node in enumerate(nodes):
            dist = node.position.distance_to(sample)
            if dist < best_dist:
                best_dist = dist
                best_index = index
        return best_index

    def _near(self, nodes: List[_TreeNode], position: Vec3) -> List[int]:
        return [
            index
            for index, node in enumerate(nodes)
            if node.position.distance_to(position) <= self.neighbor_radius
        ]

    def _steer(self, origin: Vec3, sample: Vec3) -> Vec3:
        direction = sample - origin
        distance = direction.norm()
        if distance <= self.step_size:
            return sample.with_z(self.altitude)
        return (origin + direction.unit() * self.step_size).with_z(self.altitude)

    def _segment_free(self, a: Vec3, b: Vec3) -> bool:
        return self.workspace.segment_is_free(a, b, margin=self.clearance)

    def _choose_parent(
        self, nodes: List[_TreeNode], near: List[int], fallback: int, position: Vec3
    ) -> tuple[int, float]:
        best_index = fallback
        best_cost = nodes[fallback].cost + nodes[fallback].position.distance_to(position)
        for index in near:
            candidate_cost = nodes[index].cost + nodes[index].position.distance_to(position)
            if candidate_cost < best_cost and self._segment_free(nodes[index].position, position):
                best_cost = candidate_cost
                best_index = index
        return best_index, best_cost

    def _rewire(self, nodes: List[_TreeNode], near: List[int], new_index: int) -> None:
        new_node = nodes[new_index]
        for index in near:
            if index == new_node.parent:
                continue
            candidate_cost = new_node.cost + new_node.position.distance_to(nodes[index].position)
            if candidate_cost < nodes[index].cost and self._segment_free(
                new_node.position, nodes[index].position
            ):
                nodes[index].parent = new_index
                nodes[index].cost = candidate_cost

    def _extract_path(self, nodes: List[_TreeNode], goal_index: int, goal: Vec3) -> List[Vec3]:
        path: List[Vec3] = [goal]
        index: Optional[int] = goal_index
        while index is not None:
            path.append(nodes[index].position)
            index = nodes[index].parent
        path.reverse()
        return self._simplify(path)

    def _simplify(self, waypoints: List[Vec3]) -> List[Vec3]:
        """Drop intermediate waypoints when a safe straight shortcut exists."""
        if len(waypoints) <= 2:
            return waypoints
        result = [waypoints[0]]
        index = 0
        while index < len(waypoints) - 1:
            next_index = index + 1
            for candidate in range(len(waypoints) - 1, index, -1):
                if self._segment_free(waypoints[index], waypoints[candidate]):
                    next_index = candidate
                    break
            result.append(waypoints[next_index])
            index = next_index
        return result
