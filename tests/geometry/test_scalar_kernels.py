"""The scalar workspace kernels against their ``AABB`` oracles.

``Workspace.clearance``, ``distance_to_nearest_obstacle``, ``in_obstacle``
and ``segment_is_free`` loop over cached per-box float rows instead of the
``AABB`` objects.  The ``AABB`` methods stay the definition: these tests
rebuild each query from ``min_distance_to_boxes`` (one
``AABB.distance_to_point`` per box) and loops over ``AABB.contains`` and
``AABB.segment_intersects``, and require the kernels
to return the same answers with ``==`` (both NaN counts as equal) — or to
raise the same error — on seeded probes.  The probes cover box faces,
edges and corners one ulp either side, points outside the bounds, NaN and
inf coordinates (a NaN coordinate answers NaN), segments with a zero (or sub-1e-12) delta on each axis,
and margins 0, 0.05, 0.9, ``2.9 * 0.9`` and negative ones.  Every run
calls ``add_obstacle`` between queries, so the row cache must refresh.
"""

import math
import random

import pytest

from repro.geometry import (
    AABB,
    Vec3,
    corridor_workspace,
    empty_workspace,
    grid_city_workspace,
    min_distance_to_boxes,
)

WORLDS = {"city": grid_city_workspace, "corridor": corridor_workspace, "empty": empty_workspace}
MARGINS = (0.0, 0.05, 0.9, 2.9 * 0.9, -0.5)
CASES = 2000
#: ``add_obstacle`` is called after every this many cases.
GROW_EVERY = 500


# --------------------------------------------------------------------- #
# oracles: one AABB method call per box
# --------------------------------------------------------------------- #
def oracle_distance(workspace, point):
    return min_distance_to_boxes(point, workspace.obstacles)


def oracle_clearance(workspace, point):
    # NaN if either distance is NaN: a point of unknown position is not clear.
    distance = oracle_distance(workspace, point)
    boundary = workspace.distance_to_boundary(point)
    if math.isnan(distance) or math.isnan(boundary):
        return math.nan
    return min(distance, boundary)


def oracle_in_obstacle(workspace, point, margin):
    return any(box.contains(point, margin=margin) for box in workspace.obstacles)


def oracle_segment_is_free(workspace, a, b, margin):
    if not (workspace.in_bounds(a) and workspace.in_bounds(b)):
        return False
    return not any(box.segment_intersects(a, b, margin=margin) for box in workspace.obstacles)


def outcome(query, *args):
    """The answer of ``query(*args)``, or the error it raised."""
    try:
        return query(*args)
    except ValueError as error:
        return ("ValueError", str(error))


def same(got, expected):
    if isinstance(got, float) and isinstance(expected, float):
        return got == expected or (math.isnan(got) and math.isnan(expected))
    return got == expected


# --------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------- #
def _near(value, rng):
    """``value`` itself or one ulp to either side."""
    return rng.choice((value, value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)))


def probe_point(workspace, rng):
    kind = rng.random()
    if kind < 0.4 and workspace.obstacles:
        # On a face, edge or corner of a box, optionally at an inflated face.
        box = rng.choice(workspace.obstacles)
        margin = rng.choice((0.0, 0.0, *MARGINS))
        coords = []
        for lo, hi in ((box.lo.x, box.hi.x), (box.lo.y, box.hi.y), (box.lo.z, box.hi.z)):
            coords.append(_near(rng.choice((lo - margin, hi + margin, rng.uniform(lo, hi))), rng))
        return Vec3(*coords)
    if kind < 0.5:
        special = (math.nan, math.inf, -math.inf)
        coords = [rng.uniform(-5.0, 55.0) for _ in range(3)]
        coords[rng.randrange(3)] = rng.choice(special)
        return Vec3(*coords)
    bounds = workspace.bounds
    if kind < 0.6:
        # On a wall, the ground or the ceiling.
        coords = [
            rng.choice((bounds.lo.x, bounds.hi.x, rng.uniform(bounds.lo.x, bounds.hi.x))),
            rng.choice((bounds.lo.y, bounds.hi.y, rng.uniform(bounds.lo.y, bounds.hi.y))),
            rng.choice((bounds.lo.z, bounds.hi.z, rng.uniform(bounds.lo.z, bounds.hi.z))),
        ]
        return Vec3(*(_near(c, rng) for c in coords))
    # Anywhere, outside the bounds included.
    return Vec3(
        rng.uniform(bounds.lo.x - 5.0, bounds.hi.x + 5.0),
        rng.uniform(bounds.lo.y - 5.0, bounds.hi.y + 5.0),
        rng.uniform(bounds.lo.z - 2.0, bounds.hi.z + 2.0),
    )


def probe_segment(workspace, rng):
    a = probe_point(workspace, rng) if rng.random() < 0.3 else workspace.bounds.random_point(rng)
    b = workspace.bounds.random_point(rng) if rng.random() < 0.7 else probe_point(workspace, rng)
    kind = rng.random()
    if kind < 0.45:
        # Zero (or below the 1e-12 cut-off) delta on one or two axes.
        coords = [b.x, b.y, b.z]
        for axis in rng.sample(range(3), rng.choice((1, 2))):
            coords[axis] = (a.x, a.y, a.z)[axis] + rng.choice((0.0, 0.0, 5e-13, -5e-13, 2e-12))
        b = Vec3(*coords)
    elif kind < 0.5:
        b = a
    return a, b


def grow(workspace, rng):
    """Add a random box overlapping the bounds (the supported mutation)."""
    bounds = workspace.bounds
    x = rng.uniform(bounds.lo.x, bounds.hi.x - 1.0)
    y = rng.uniform(bounds.lo.y, bounds.hi.y - 1.0)
    workspace.add_obstacle(
        AABB.from_footprint(x, y, rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), rng.uniform(1.0, bounds.hi.z))
    )


def run_cases(name, seed, check):
    workspace = WORLDS[name]()
    rng = random.Random(seed)
    for case in range(CASES):
        if case and case % GROW_EVERY == 0:
            grow(workspace, rng)
        check(workspace, rng)
    return workspace


# --------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(WORLDS))
class TestPointKernels:
    def test_clearance_and_distance_equal_the_aabb_loop(self, name):
        def check(workspace, rng):
            point = probe_point(workspace, rng)
            distance = workspace.distance_to_nearest_obstacle(point)
            assert same(distance, oracle_distance(workspace, point)), point
            assert same(workspace.clearance(point), oracle_clearance(workspace, point)), point

        workspace = run_cases(name, 11, check)
        assert len(workspace.obstacles) == len(WORLDS[name]().obstacles) + 3

    def test_in_obstacle_equals_aabb_contains(self, name):
        def check(workspace, rng):
            point = probe_point(workspace, rng)
            for margin in MARGINS:
                expected = oracle_in_obstacle(workspace, point, margin)
                assert workspace.in_obstacle(point, margin) == expected, (point, margin)

        run_cases(name, 12, check)


@pytest.mark.parametrize("name", sorted(WORLDS))
class TestSegmentKernel:
    def test_segment_is_free_equals_the_slab_loop(self, name):
        def check(workspace, rng):
            a, b = probe_segment(workspace, rng)
            for margin in MARGINS:
                got = outcome(workspace.segment_is_free, a, b, margin)
                assert same(got, outcome(oracle_segment_is_free, workspace, a, b, margin)), (a, b, margin)

        run_cases(name, 13, check)

    def test_collapsing_negative_margin_raises_like_inflate(self, name):
        workspace = WORLDS[name]()
        rng = random.Random(14)
        if not workspace.obstacles:
            grow(workspace, rng)
        raised = 0
        for _ in range(200):
            a, b = probe_segment(workspace, rng)
            got = outcome(workspace.segment_is_free, a, b, -5.0)
            expected = outcome(oracle_segment_is_free, workspace, a, b, -5.0)
            assert got == expected, (a, b)
            raised += isinstance(expected, tuple)
        assert raised > 0, "no probe reached a collapsing box"
        with pytest.raises(ValueError, match="collapsed the box"):
            workspace.segment_is_free(workspace.bounds.lo, workspace.bounds.hi, margin=-5.0)


class TestRowCache:
    def test_kernels_see_an_obstacle_added_between_queries(self):
        workspace = empty_workspace()
        inside = Vec3(5.0, 5.0, 1.0)
        a, b = Vec3(1.0, 5.0, 1.0), Vec3(9.0, 5.0, 1.0)
        assert workspace.distance_to_nearest_obstacle(inside) == math.inf
        assert not workspace.in_obstacle(inside)
        assert workspace.segment_is_free(a, b)
        workspace.add_obstacle(AABB.from_footprint(4.0, 4.0, 2.0, 2.0, 3.0))
        assert workspace.distance_to_nearest_obstacle(inside) == 0.0
        assert workspace.clearance(inside) == 0.0
        assert workspace.in_obstacle(inside)
        assert not workspace.segment_is_free(a, b)
