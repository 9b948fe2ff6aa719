"""Property-style equivalence tests for the batched safety-query plane.

The batching contract (see :mod:`repro.geometry.shapes`) promises that
every ``*_batch`` query evaluates the same floating-point expressions as
its scalar counterpart, so answers must match *bit-for-bit* — not just
within a tolerance.  These tests check that on randomized workspaces, and
check the conservativeness invariant of the :class:`ClearanceField` memo.
Hostile points (NaN, ±inf and ±0.0 coordinates, box faces and corners
one ulp either side) are compared bit for bit too: NaN equal to NaN and
the sign of every zero matched.
"""

import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from repro.geometry import (
    AABB,
    ClearanceField,
    OccupancyGrid,
    Vec3,
    empty_workspace,
    grid_city_workspace,
    min_distance_to_boxes,
    points_as_array,
)
from repro.simulation.world import surveillance_city


def random_workspace(seed: int, obstacles: int = 6):
    rng = random.Random(seed)
    workspace = empty_workspace(side=30.0, ceiling=10.0, name=f"random-{seed}")
    for _ in range(obstacles):
        workspace.add_obstacle(
            AABB.from_footprint(
                x=rng.uniform(0.0, 24.0),
                y=rng.uniform(0.0, 24.0),
                width=rng.uniform(0.5, 5.0),
                depth=rng.uniform(0.5, 5.0),
                height=rng.uniform(2.0, 9.0),
            )
        )
    return workspace


def random_points(workspace, seed: int, count: int = 400):
    rng = random.Random(seed + 1)
    # Include points inside obstacles, outside the bounds, and on the floor.
    pts = [workspace.bounds.random_point(rng) for _ in range(count)]
    pts += [Vec3(-1.0, 5.0, 2.0), Vec3(50.0, 50.0, 50.0), Vec3(3.0, 3.0, 0.0)]
    for obstacle in workspace.obstacles[:3]:
        pts.append(obstacle.center)
    return pts


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestBatchScalarBitEquality:
    def test_clearance_batch_matches_scalar(self, seed):
        workspace = random_workspace(seed)
        pts = random_points(workspace, seed)
        scalar = np.array([workspace.clearance(p) for p in pts])
        batch = workspace.clearance_batch(points_as_array(pts))
        assert (scalar == batch).all(), "clearance_batch must be bit-identical"

    def test_membership_batches_match_scalar(self, seed):
        workspace = random_workspace(seed)
        pts = random_points(workspace, seed)
        arr = points_as_array(pts)
        for margin in (0.0, 0.35):
            assert (
                np.array([workspace.in_bounds(p, margin=margin) for p in pts])
                == workspace.in_bounds_batch(arr, margin=margin)
            ).all()
            assert (
                np.array([workspace.in_obstacle(p, margin=margin) for p in pts])
                == workspace.in_obstacle_batch(arr, margin=margin)
            ).all()
            assert (
                np.array([workspace.is_free(p, margin=margin) for p in pts])
                == workspace.is_free_batch(arr, margin=margin)
            ).all()

    def test_obstacle_batch_matches_scalar_on_inflated_faces(self, seed):
        workspace = random_workspace(seed)
        for margin in (0.0, 0.05, 0.35):
            pts = []
            for box in workspace.obstacles:
                center = box.center.as_tuple()
                for axis in range(3):
                    lo_face = box.lo.as_tuple()[axis] - margin
                    hi_face = box.hi.as_tuple()[axis] + margin
                    # Exactly on each inflated face, and one ulp outside it.
                    for value in (
                        lo_face,
                        math.nextafter(lo_face, -math.inf),
                        hi_face,
                        math.nextafter(hi_face, math.inf),
                    ):
                        coords = list(center)
                        coords[axis] = value
                        pts.append(Vec3(*coords))
            scalar = np.array([workspace.in_obstacle(p, margin=margin) for p in pts])
            assert scalar.any() and not scalar.all()
            batch = workspace.in_obstacle_batch(points_as_array(pts), margin=margin)
            assert (scalar == batch).all()

    def test_distance_batches_match_scalar(self, seed):
        workspace = random_workspace(seed)
        pts = random_points(workspace, seed, count=150)
        arr = points_as_array(pts)
        scalar = np.array([workspace.distance_to_nearest_obstacle(p) for p in pts])
        assert (scalar == workspace.distance_to_nearest_obstacle_batch(arr)).all()
        for include_floor in (False, True):
            scalar = np.array(
                [workspace.distance_to_boundary(p, include_floor=include_floor) for p in pts]
            )
            batch = workspace.distance_to_boundary_batch(arr, include_floor=include_floor)
            assert (scalar == batch).all()
        # No obstacles: every point is infinitely far from one.
        assert np.isinf(empty_workspace().distance_to_nearest_obstacle_batch(arr)).all()

    def test_segment_batch_matches_scalar(self, seed):
        workspace = random_workspace(seed)
        pts = random_points(workspace, seed, count=120)
        arr = points_as_array(pts)
        for margin in (0.0, 0.4):
            scalar = np.array(
                [
                    workspace.segment_is_free(a, b, margin=margin)
                    for a, b in zip(pts[:-1], pts[1:])
                ]
            )
            batch = workspace.segments_free_batch(arr[:-1], arr[1:], margin=margin)
            assert (scalar == batch).all()

    def test_occupancy_build_matches_scalar(self, seed):
        workspace = random_workspace(seed)
        batch = OccupancyGrid.from_workspace(workspace, resolution=0.5, inflate=0.3)
        scalar = OccupancyGrid._from_workspace_scalar(workspace, resolution=0.5, inflate=0.3)
        assert batch.shape == scalar.shape
        assert (batch.occupied == scalar.occupied).all(), (
            "vectorised rasterisation must mark exactly the scalar loop's cells"
        )

    def test_distance_transform_matches_dijkstra(self, seed):
        workspace = random_workspace(seed)
        grid = OccupancyGrid.from_workspace(workspace, resolution=0.5)
        chamfer = grid.distance_to_occupied()
        dijkstra = grid._distance_to_occupied_dijkstra()
        # Same metric, different summation order: equal up to fp rounding.
        assert np.allclose(chamfer, dijkstra, rtol=1e-9, atol=1e-9)

    def test_clearance_field_is_conservative(self, seed):
        workspace = random_workspace(seed)
        field = ClearanceField(workspace, resolution=0.5)
        for p in random_points(workspace, seed, count=200):
            assert field.lower_bound(p) <= workspace.clearance(p), (
                "cached bounds must never exceed the true clearance"
            )

    def test_clearance_field_threshold_queries_are_exact(self, seed):
        workspace = random_workspace(seed)
        field = ClearanceField(workspace, resolution=0.5)
        rng = random.Random(seed + 2)
        for p in random_points(workspace, seed, count=200):
            threshold = rng.uniform(-1.0, 8.0)
            clearance = workspace.clearance(p)
            assert field.exceeds(p, threshold) == (clearance > threshold)
            assert field.exceeds(p, threshold, strict=False) == (clearance >= threshold)
            assert field.at_most(p, threshold) == (clearance <= threshold)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestDenseClearanceGrid:
    """The densified whole-workspace grid must stay bit-identical to the lazy memo."""

    def test_dense_threshold_decisions_bit_identical_to_lazy(self, seed):
        workspace = random_workspace(seed)
        dense = ClearanceField(workspace, resolution=0.5)
        lazy = ClearanceField(workspace, resolution=0.5)
        assert dense.densify() == dense.dense_cells > 0
        rng = random.Random(seed + 3)
        for p in random_points(workspace, seed, count=200):
            threshold = rng.uniform(-1.0, 8.0)
            assert dense.lower_bound(p) == lazy.lower_bound(p)
            assert dense.exceeds(p, threshold) == lazy.exceeds(p, threshold)
            assert dense.exceeds(p, threshold, strict=False) == lazy.exceeds(
                p, threshold, strict=False
            )
            assert dense.at_most(p, threshold) == lazy.at_most(p, threshold)
            for margin in (0.0, 0.3):
                decided = dense.decides_above(p, threshold, margin=margin)
                assert decided == lazy.decides_above(p, threshold, margin=margin)
                if decided:  # a True answer is a sound one-sided proof
                    assert workspace.clearance(p) - margin > threshold
        assert dense.stats.dense_hits > 0
        assert lazy.stats.dense_hits == 0

    def test_dense_cells_hold_the_lazy_cell_bounds(self, seed):
        # densify fills the grid through clearance_batch, the lazy memo
        # through scalar clearance: every cell, the padded rim included,
        # must hold the lazy bound bit for bit.
        workspace = random_workspace(seed)
        dense = ClearanceField(workspace, resolution=0.5)
        lazy = ClearanceField(workspace, resolution=0.5)
        dense.densify(padding=1.0)
        nx, ny, nz = dense._dense_shape
        oi, oj, ok = dense._dense_origin
        rng = random.Random(seed + 4)
        cells = [(i, j, k) for i in (0, nx - 1) for j in (0, ny - 1) for k in (0, nz - 1)]
        cells += [(rng.randrange(nx), rng.randrange(ny), rng.randrange(nz)) for _ in range(300)]
        for i, j, k in cells:
            center = Vec3((oi + i + 0.5) * 0.5, (oj + j + 0.5) * 0.5, (ok + k + 0.5) * 0.5)
            assert dense.lower_bound(center) == lazy.lower_bound(center)
        assert dense.stats.dense_hits == len(cells)
        # random_points includes points outside the padded grid, which
        # fall back to the lazy path: a mixed batch of queries.
        pts = random_points(workspace, seed, count=150)
        before = dense.stats.dense_hits
        assert [dense.lower_bound(p) for p in pts] == [lazy.lower_bound(p) for p in pts]
        assert 0 < dense.stats.dense_hits - before < len(pts)

    def test_off_grid_points_fall_back_to_the_lazy_path(self, seed):
        workspace = random_workspace(seed)
        field = ClearanceField(workspace, resolution=0.5)
        field.densify(padding=0.0)
        outside = Vec3(200.0, 200.0, 200.0)
        before = field.stats.dense_hits
        assert field.lower_bound(outside) <= workspace.clearance(outside)
        assert field.stats.dense_hits == before  # served from the lazy dict
        assert len(field) == 1  # the off-grid cell was memoised lazily

    def test_add_obstacle_drops_the_dense_grid(self, seed):
        workspace = random_workspace(seed)
        field = ClearanceField(workspace, resolution=0.5)
        field.densify()
        assert field.dense_cells > 0
        inside = Vec3(15.0, 15.0, 2.0)
        field.exceeds(inside, 0.0)  # warm the grid path
        workspace.add_obstacle(AABB.from_footprint(14.0, 14.0, 2.0, 2.0, 5.0))
        # The stale grid must not answer for the mutated workspace.
        assert field.exceeds(inside, 0.0) == (workspace.clearance(inside) > 0.0)
        assert not field.exceeds(inside, 0.0)
        assert field.dense_cells == 0  # dropped, not silently reused

    def test_densify_validates_its_inputs(self, seed):
        field = ClearanceField(random_workspace(seed), resolution=0.5)
        with pytest.raises(ValueError):
            field.densify(padding=-1.0)
        with pytest.raises(ValueError, match="dense clearance grid"):
            field.densify(max_cells=10)


class TestClearanceFieldBookkeeping:
    def test_decisive_queries_skip_exact_computation(self):
        workspace = grid_city_workspace()
        field = ClearanceField(workspace, resolution=0.5)
        center = Vec3(25.0, 3.0, 2.0)  # mid-street, metres of clearance
        assert field.exceeds(center, 0.05)
        assert field.stats.decisive == 1
        assert field.stats.exact_fallbacks == 0
        # Right next to a building the bound cannot decide: exact fallback.
        wall = workspace.obstacles[0].center.with_z(2.0)
        field.exceeds(wall, 0.05)
        assert field.stats.exact_fallbacks == 1

    def test_workspace_caches_and_invalidates_field(self):
        workspace = empty_workspace(side=10.0)
        field = workspace.clearance_field()
        assert workspace.clearance_field() is field
        workspace.add_obstacle(AABB.from_footprint(4.0, 4.0, 1.0, 1.0, 5.0))
        rebuilt = workspace.clearance_field()
        assert rebuilt is not field
        point = Vec3(4.2, 4.2, 2.0)
        assert rebuilt.at_most(point, 0.0) == (workspace.clearance(point) <= 0.0)

    def test_field_resolution_validated(self):
        with pytest.raises(ValueError):
            ClearanceField(empty_workspace(), resolution=0.0)

    def test_stale_field_reference_stays_sound_after_add_obstacle(self):
        # Callers capture the field into closures at build time; a later
        # add_obstacle must invalidate those cached bounds too, or the
        # monitors would silently declare points inside the new obstacle
        # clear.
        workspace = empty_workspace(side=10.0)
        field = workspace.clearance_field()
        inside = Vec3(5.0, 5.0, 2.0)
        assert field.exceeds(inside, 0.0)  # warms the cell, clearly free
        workspace.add_obstacle(AABB.from_footprint(4.0, 4.0, 2.0, 2.0, 5.0))
        assert field.lower_bound(inside) <= workspace.clearance(inside)
        assert field.exceeds(inside, 0.0) == (workspace.clearance(inside) > 0.0)
        assert not field.exceeds(inside, 0.0)  # it is inside the new box


# --------------------------------------------------------------------- #
# hostile points: NaN, ±inf, ±0.0, faces and corners one ulp either side
# --------------------------------------------------------------------- #
SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0)


def touching_workspace():
    """A box flush with the x = 0 wall: a ±0.0 distance/boundary tie."""
    workspace = empty_workspace(side=20.0, ceiling=10.0, name="touching")
    workspace.add_obstacle(AABB(Vec3(0.0, 2.0, 0.0), Vec3(3.0, 5.0, 4.0)))
    workspace.add_obstacle(AABB(Vec3(8.0, 8.0, 0.0), Vec3(12.0, 12.0, 6.0)))
    return workspace


def pair_workspace():
    """Two equal boxes 4 m apart on dyadic coordinates: exact two-box ties."""
    workspace = empty_workspace(side=20.0, ceiling=10.0, name="pair")
    workspace.add_obstacle(AABB(Vec3(4.0, 4.0, 0.0), Vec3(8.0, 8.0, 5.0)))
    workspace.add_obstacle(AABB(Vec3(12.0, 4.0, 0.0), Vec3(16.0, 8.0, 5.0)))
    return workspace


HOSTILE_WORLDS = {
    "city": lambda: surveillance_city().workspace,
    "touching": touching_workspace,
    "pair": pair_workspace,
    "empty": empty_workspace,
}


def _ulps(value):
    return (math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf))


def hostile_points(workspace):
    bounds = workspace.bounds
    bases = [bounds.center, bounds.lo, bounds.hi, Vec3(1.5, 3.0, 2.0)]
    bases += [box.center for box in workspace.obstacles]
    points = []
    for base in bases:
        coords = base.as_tuple()
        for axis in range(3):
            for value in SPECIALS:
                changed = list(coords)
                changed[axis] = value
                points.append(changed)
        # Two special axes at once (NaN with inf, -0.0 with 0.0, ...).
        for a in SPECIALS:
            for b in SPECIALS:
                points.append([a, b, coords[2]])
                points.append([coords[0], a, b])
    for i, box in enumerate(workspace.obstacles):
        # Midway between two boxes' centres: equally near both when they
        # match (the pair world's is an exact tie).
        for other in workspace.obstacles[i + 1:]:
            points.append(box.center.lerp(other.center, 0.5).as_tuple())
    for box in [*workspace.obstacles, bounds]:
        # Every corner, edge midpoint and face centre, one ulp either side
        # on each axis.
        choices = list(zip(box.lo.as_tuple(), box.hi.as_tuple(), box.center.as_tuple()))
        for corner in itertools.product(*choices):
            for axis in range(3):
                for value in _ulps(corner[axis]):
                    moved = list(corner)
                    moved[axis] = value
                    points.append(moved)
    return np.array(points, dtype=float)


def assert_bit_equal(got, expected):
    """``==`` elementwise, NaN equal to NaN, and every zero's sign matched."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    both_nan = np.isnan(got) & np.isnan(expected)
    assert ((got == expected) | both_nan).all(), np.flatnonzero(~((got == expected) | both_nan))
    assert (np.signbit(got) == np.signbit(expected))[~both_nan].all()


def _scalar_map(query, points):
    return np.array([query(Vec3(*p)) for p in points], dtype=float)


@pytest.mark.parametrize("name", sorted(HOSTILE_WORLDS))
class TestHostilePointDifferential:
    def test_batch_queries_equal_the_scalar_ones(self, name):
        workspace = HOSTILE_WORLDS[name]()
        points = hostile_points(workspace)
        assert_bit_equal(
            workspace.distance_to_nearest_obstacle_batch(points),
            _scalar_map(workspace.distance_to_nearest_obstacle, points),
        )
        assert_bit_equal(workspace.clearance_batch(points), _scalar_map(workspace.clearance, points))
        for include_floor in (False, True):
            assert_bit_equal(
                workspace.distance_to_boundary_batch(points, include_floor=include_floor),
                _scalar_map(
                    lambda p: workspace.distance_to_boundary(p, include_floor=include_floor), points
                ),
            )

    def test_nearest_obstacle_kernels_agree(self, name):
        """Scalar and batched kernels against a first-minimum ``AABB`` loop.

        The oracle picks the first box with the least
        :meth:`AABB.distance_to_point` (the sqrt domain); the kernels must
        name the same box, with that distance's exact square.  A NaN or
        ±inf coordinate names no box: ``(-1, inf)``.
        """
        workspace = HOSTILE_WORLDS[name]()
        points = hostile_points(workspace)
        indices, squares = workspace.nearest_obstacle_batch(points)
        for coords, index, square in zip(points, indices, squares):
            point = Vec3(*coords)
            expected, nearest = -1, math.inf
            for candidate, box in enumerate(workspace.obstacles):
                distance = box.distance_to_point(point)
                if distance < nearest:
                    expected, nearest = candidate, distance
            assert (index, math.sqrt(square)) == (expected, nearest)
            assert workspace.nearest_obstacle(point) == (index, square)
            if not np.isfinite(coords).all():
                assert (index, square) == (-1, math.inf)
        indices, squares = workspace.nearest_obstacle_batch(np.empty((0, 3)))
        assert indices.shape == squares.shape == (0,)

    def test_single_point_and_empty_batches(self, name):
        workspace = HOSTILE_WORLDS[name]()
        points = hostile_points(workspace)
        for point in points[::7]:
            scalar = workspace.clearance(Vec3(*point))
            assert_bit_equal(workspace.clearance_batch(point.reshape(1, 3)), [scalar])
            assert_bit_equal(
                workspace.distance_to_nearest_obstacle_batch(point.reshape(1, 3)),
                [workspace.distance_to_nearest_obstacle(Vec3(*point))],
            )
        none = np.empty((0, 3))
        for query in (workspace.clearance_batch, workspace.distance_to_nearest_obstacle_batch):
            answer = query(none)
            assert answer.shape == (0,) and answer.dtype == np.float64

    def test_nan_points_are_not_clear(self, name):
        workspace = HOSTILE_WORLDS[name]()
        for axis in range(3):
            coords = [5.0, 5.0, 1.0]
            coords[axis] = math.nan
            point = Vec3(*coords)
            assert math.isnan(workspace.clearance(point))
            assert math.isnan(workspace.distance_to_boundary(point))
            distance = workspace.distance_to_nearest_obstacle(point)
            if workspace.obstacles:
                assert math.isnan(distance)
                assert math.isnan(min_distance_to_boxes(point, workspace.obstacles))
            else:
                assert distance == math.inf


# --------------------------------------------------------------------- #
# the surveillance-city dense grid: golden values, bounded transient
# --------------------------------------------------------------------- #
#: sha256 of the little-endian float64 cells of ``surveillance_city()``'s
#: dense grid at 0.5 m: a change of distance kernel must not move one bit.
CITY_GRID_SHA256 = "74ec104239ecf7b76611622809acc3c4321ee26abd830be85c70c9ebc7a4beba"


class TestCityDenseGrid:
    def test_grid_matches_its_golden_digest(self):
        field = ClearanceField(surveillance_city().workspace, resolution=0.5)
        assert field.densify() == 101 * 101 * 25
        cells = np.frombuffer(field._dense_values).astype("<f8").tobytes()
        assert hashlib.sha256(cells).hexdigest() == CITY_GRID_SHA256

    def test_densify_transient_is_bounded_by_the_chunk(self):
        field = ClearanceField(surveillance_city().workspace, resolution=0.5)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            field.densify()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        # The grid itself is 2.0 MB; a whole-grid (cells, 3) array of
        # centres or an (M, N, 3) temporary would be tens of MB.
        assert peak < 8_000_000, f"densify() peaked at {peak / 1e6:.1f} MB"
