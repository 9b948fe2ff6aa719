"""Property-style equivalence tests for the batched safety-query plane.

The batching contract (see :mod:`repro.geometry.shapes`) promises that
every ``*_batch`` query evaluates the same floating-point expressions as
its scalar counterpart, so answers must match *bit-for-bit* — not just
within a tolerance.  These tests check that on randomized workspaces, and
check the conservativeness invariant of the :class:`ClearanceField` memo.
"""

import math
import random

import numpy as np
import pytest

from repro.geometry import (
    AABB,
    ClearanceField,
    OccupancyGrid,
    Vec3,
    empty_workspace,
    grid_city_workspace,
    points_as_array,
)


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
