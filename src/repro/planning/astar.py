"""Grid A* planner: the certified motion planner (SC of the planner RTA module).

Section V-C of the paper wraps the (buggy) third-party RRT* planner in an
RTA module; the safe counterpart must be a planner that is simple enough
to certify.  A deterministic A* search over an inflated occupancy grid,
followed by plan validation, is that counterpart here: it always returns a
plan whose every segment keeps the configured clearance, or reports that
no such plan exists.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.resettable import StatelessSnapshot
from ..geometry import OccupancyGrid, Vec3, Workspace
from ..geometry.occupancy import STEPS
from .plan import Plan

Cell = Tuple[int, int]


@dataclass
class GridAStarPlanner(StatelessSnapshot):
    """Deterministic A* over a 2-D occupancy grid at a fixed flight altitude."""

    workspace: Workspace
    resolution: float = 0.5
    clearance: float = 1.0
    altitude: float = 2.0
    name: str = "grid-astar"

    def __post_init__(self) -> None:
        if self.resolution <= 0.0:
            raise ValueError("resolution must be positive")
        if self.clearance < 0.0:
            raise ValueError("clearance must be non-negative")
        self.grid = OccupancyGrid.from_workspace(
            self.workspace, resolution=self.resolution, inflate=self.clearance, altitude=self.altitude
        )
        # The search runs on integer cell ids ``i*ny + j`` over one flat
        # occupancy buffer (1 = occupied), and on the 8 grid steps in
        # neighbour order with their step costs.
        self._nx, self._ny = self.grid.shape
        self._occupied = self.grid.occupied.tobytes()
        self._moves = tuple(
            (di, dj, math.hypot(-di, -dj) * self.resolution) for di, dj in STEPS
        )

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(self, start: Vec3, goal: Vec3, created_at: float = 0.0) -> Optional[Plan]:
        """Plan from ``start`` to ``goal``; returns None when no safe path exists."""
        start_cell = self._nearest_free_cell(self.grid.world_to_cell(start))
        goal_cell = self._nearest_free_cell(self.grid.world_to_cell(goal))
        if start_cell is None or goal_cell is None:
            return None
        cells = self._search(start_cell, goal_cell)
        if cells is None:
            return None
        waypoints = self._cells_to_waypoints(start, goal, cells)
        return Plan(waypoints=tuple(waypoints), goal=goal, planner=self.name, created_at=created_at)

    def _search(self, start: Cell, goal: Cell) -> Optional[List[Cell]]:
        """A* from ``start`` to ``goal``; the cell path, or None if unreachable.

        Heap entries are ``(priority, id)``; as ``0 <= j < ny`` they pop in
        the order ``(priority, (i, j))`` would, so ties break as before.
        """
        nx, ny, occupied, res = self._nx, self._ny, self._occupied, self.resolution
        gi, gj = goal
        start_id, goal_id = start[0] * ny + start[1], gi * ny + gj
        g_score = [math.inf] * (nx * ny)
        came_from = [-1] * (nx * ny)
        closed = bytearray(nx * ny)
        g_score[start_id] = 0.0
        open_heap: List[Tuple[float, int]] = [(0.0, start_id)]
        hypot, heappush, heappop = math.hypot, heapq.heappush, heapq.heappop
        while open_heap:
            current = heappop(open_heap)[1]
            if closed[current]:
                continue
            if current == goal_id:
                path = [current]
                while came_from[current] >= 0:
                    current = came_from[current]
                    path.append(current)
                return [divmod(cell, ny) for cell in reversed(path)]
            closed[current] = 1
            i, j = divmod(current, ny)
            base = g_score[current]
            for di, dj, step in self._moves:
                ni, nj = i + di, j + dj
                if not (0 <= ni < nx and 0 <= nj < ny):
                    continue
                neighbor = ni * ny + nj
                if occupied[neighbor] or closed[neighbor]:
                    continue
                tentative = base + step
                if tentative < g_score[neighbor]:
                    g_score[neighbor] = tentative
                    came_from[neighbor] = current
                    heappush(open_heap, (tentative + hypot(ni - gi, nj - gj) * res, neighbor))
        return None

    def _nearest_free_cell(self, cell: Cell, max_radius: int = 6) -> Optional[Cell]:
        """The cell itself if free, otherwise the closest free cell nearby."""
        nx, ny, occupied = self._nx, self._ny, self._occupied
        ci, cj = cell
        if 0 <= ci < nx and 0 <= cj < ny and not occupied[ci * ny + cj]:
            return cell
        best: Optional[Cell] = None
        best_dist = math.inf
        for di in range(-max_radius, max_radius + 1):
            i = ci + di
            for dj in range(-max_radius, max_radius + 1):
                j = cj + dj
                if not (0 <= i < nx and 0 <= j < ny) or occupied[i * ny + j]:
                    continue
                dist = math.hypot(di, dj)
                if dist < best_dist:
                    best_dist = dist
                    best = (i, j)
        return best

    # ------------------------------------------------------------------ #
    # path post-processing
    # ------------------------------------------------------------------ #
    def _cells_to_waypoints(self, start: Vec3, goal: Vec3, cells: List[Cell]) -> List[Vec3]:
        raw = [start.with_z(self.altitude)]
        raw.extend(self.grid.cell_to_world(cell, altitude=self.altitude) for cell in cells)
        raw.append(goal.with_z(self.altitude))
        return self._shortcut(raw)

    def _shortcut(self, waypoints: List[Vec3]) -> List[Vec3]:
        """Greedy line-of-sight shortcutting that preserves the clearance margin."""
        if len(waypoints) <= 2:
            return waypoints
        result = [waypoints[0]]
        index = 0
        while index < len(waypoints) - 1:
            # Find the furthest waypoint reachable in a straight, safe segment.
            next_index = index + 1
            for candidate in range(len(waypoints) - 1, index, -1):
                if self.workspace.segment_is_free(
                    waypoints[index], waypoints[candidate], margin=self.clearance * 0.9
                ):
                    next_index = candidate
                    break
            result.append(waypoints[next_index])
            index = next_index
        return result
