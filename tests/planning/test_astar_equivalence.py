"""The flat-grid A* plans exactly what a tuple-keyed search plans.

``GridAStarPlanner._search`` and ``_nearest_free_cell`` run on integer
cell ids over a flat occupancy buffer.  The oracle below is the plain
search, keyed by ``(i, j)`` tuples and going through ``OccupancyGrid``'s
``in_grid``/``neighbors``/``is_occupied_cell``; the cell lists, the
recovered start/goal cells and the final waypoint tuples must be
identical on seeded start/goal pairs over the city (clearances 0.5, 1.0
and the stack default 2.9) and the corridor, including starts inside an
inflated building and goals that cannot be reached.
"""

import heapq
import math
import random

import pytest

from repro.geometry import AABB, Vec3, corridor_workspace, empty_workspace, grid_city_workspace
from repro.planning import GridAStarPlanner


# --------------------------------------------------------------------- #
# oracle: the tuple-keyed search
# --------------------------------------------------------------------- #
def oracle_distance(planner, a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1]) * planner.resolution


def oracle_search(planner, start, goal):
    grid = planner.grid
    open_heap = [(0.0, start)]
    came_from = {}
    g_score = {start: 0.0}
    closed = set()
    while open_heap:
        _, current = heapq.heappop(open_heap)
        if current in closed:
            continue
        if current == goal:
            path = [current]
            while current in came_from:
                current = came_from[current]
                path.append(current)
            path.reverse()
            return path
        closed.add(current)
        for neighbor in grid.neighbors(current, diagonal=True):
            if grid.is_occupied_cell(neighbor) or neighbor in closed:
                continue
            tentative = g_score[current] + oracle_distance(planner, current, neighbor)
            if tentative < g_score.get(neighbor, math.inf):
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                priority = tentative + oracle_distance(planner, neighbor, goal)
                heapq.heappush(open_heap, (priority, neighbor))
    return None


def oracle_nearest_free_cell(planner, cell, max_radius=6):
    grid = planner.grid
    if grid.in_grid(cell) and not grid.is_occupied_cell(cell):
        return cell
    best = None
    best_dist = math.inf
    ci, cj = cell
    for di in range(-max_radius, max_radius + 1):
        for dj in range(-max_radius, max_radius + 1):
            candidate = (ci + di, cj + dj)
            if not grid.in_grid(candidate) or grid.is_occupied_cell(candidate):
                continue
            dist = math.hypot(di, dj)
            if dist < best_dist:
                best_dist = dist
                best = candidate
    return best


def oracle_plan(planner, start, goal):
    """``(start_cell, goal_cell, cells, waypoints)`` of the tuple-keyed planner."""
    start_cell = oracle_nearest_free_cell(planner, planner.grid.world_to_cell(start))
    goal_cell = oracle_nearest_free_cell(planner, planner.grid.world_to_cell(goal))
    if start_cell is None or goal_cell is None:
        return start_cell, goal_cell, None, None
    cells = oracle_search(planner, start_cell, goal_cell)
    if cells is None:
        return start_cell, goal_cell, None, None
    waypoints = planner._cells_to_waypoints(start, goal, cells)
    return start_cell, goal_cell, cells, tuple(w.as_tuple() for w in waypoints)


def assert_same_plan(planner, start, goal):
    start_cell, goal_cell, cells, waypoints = oracle_plan(planner, start, goal)
    assert planner._nearest_free_cell(planner.grid.world_to_cell(start)) == start_cell
    assert planner._nearest_free_cell(planner.grid.world_to_cell(goal)) == goal_cell
    if start_cell is not None and goal_cell is not None:
        assert planner._search(start_cell, goal_cell) == cells
    plan = planner.plan(start, goal)
    got = None if plan is None else tuple(w.as_tuple() for w in plan.waypoints)
    assert got == waypoints, (start, goal)
    return waypoints


def random_pairs(workspace, seed, count, altitude=2.0):
    rng = random.Random(seed)
    bounds = workspace.bounds

    def endpoint():
        # Some endpoints lie just outside the bounds: their cells are
        # off-grid and must be recovered like occupied ones.
        x = rng.uniform(bounds.lo.x - 1.0, bounds.hi.x + 1.0)
        y = rng.uniform(bounds.lo.y - 1.0, bounds.hi.y + 1.0)
        return Vec3(x, y, altitude)

    return [(endpoint(), endpoint()) for _ in range(count)]


CITY = grid_city_workspace()


@pytest.mark.parametrize("clearance", [0.5, 1.0, 2.9])
def test_city_plans_are_identical(clearance):
    planner = GridAStarPlanner(CITY, clearance=clearance)
    pairs = random_pairs(CITY, seed=int(clearance * 10), count=80)
    planned = [assert_same_plan(planner, start, goal) for start, goal in pairs]
    assert sum(plan is not None for plan in planned) > len(planned) // 2


def test_corridor_plans_are_identical():
    corridor = corridor_workspace()
    planner = GridAStarPlanner(corridor, clearance=1.0)
    pairs = random_pairs(corridor, seed=3, count=80)
    planned = [assert_same_plan(planner, start, goal) for start, goal in pairs]
    assert sum(plan is not None for plan in planned) > len(planned) // 2


@pytest.mark.parametrize("clearance", [0.5, 1.0, 2.9])
def test_starts_inside_an_inflated_building(clearance):
    planner = GridAStarPlanner(CITY, clearance=clearance)
    building = CITY.obstacles[4]
    goal = Vec3(3.0, 3.0, 2.0)
    recovered = 0
    for inset in (-0.5 * clearance, 0.1, 0.4, 1.0, 3.0):
        # ``inset`` metres inside the west face (negative: in the margin only).
        start = Vec3(building.lo.x + inset, building.center.y, 2.0)
        assert planner.grid.is_occupied(start)
        recovered += assert_same_plan(planner, start, goal) is not None
    # Shallow starts are pulled out to a free cell; the deepest is not.
    assert 0 < recovered < 5


def test_unreachable_goal_returns_none():
    walled = empty_workspace(side=20.0, ceiling=10.0)
    walled.add_obstacle(AABB.from_footprint(9.0, 0.0, 2.0, 20.0, 10.0))
    planner = GridAStarPlanner(walled, clearance=0.5)
    start, goal = Vec3(2.0, 10.0, 2.0), Vec3(18.0, 10.0, 2.0)
    assert assert_same_plan(planner, start, goal) is None
    start_cell = planner._nearest_free_cell(planner.grid.world_to_cell(start))
    goal_cell = planner._nearest_free_cell(planner.grid.world_to_cell(goal))
    assert start_cell is not None and goal_cell is not None
    assert planner._search(start_cell, goal_cell) is None
    for start, goal in random_pairs(walled, seed=5, count=20):
        assert_same_plan(planner, start, goal)
