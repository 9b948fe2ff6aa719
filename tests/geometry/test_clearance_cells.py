"""``ClearanceField.lower_bound`` reads the dense grid through a flat index.

At every dense cell the scalar bound must equal the numpy grid's entry
and the lazy (never densified) field's bound; off-grid points must fall
back to the lazy path.  ``stats.dense_hits`` counts exactly the in-grid
calls.  A densified world must survive ``pickle`` and ``copy.deepcopy``
with identical bounds, since the population tester snapshots both ways.
"""

import copy
import pickle

import pytest

from repro.geometry import AABB, ClearanceField, Vec3, corridor_workspace, grid_city_workspace
from repro.simulation import surveillance_city


def cell_point(field, i, j, k, frac=0.5):
    """A point inside grid cell ``(i, j, k)`` of the dense grid."""
    oi, oj, ok = field._dense_origin
    res = field.resolution
    return Vec3((oi + i + frac) * res, (oj + j + frac) * res, (ok + k + frac) * res)


@pytest.mark.parametrize(
    "workspace, resolution",
    [(corridor_workspace(), 0.5), (grid_city_workspace(), 1.0)],
    ids=["corridor-0.5", "city-1.0"],
)
def test_every_dense_cell_equals_the_grid_and_the_lazy_bound(workspace, resolution):
    dense = ClearanceField(workspace, resolution=resolution)
    lazy = ClearanceField(workspace, resolution=resolution)
    cells = dense.densify()
    grid = dense._dense
    nx, ny, nz = grid.shape
    assert nx * ny * nz == cells == dense.dense_cells
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                point = cell_point(dense, i, j, k, frac=0.25 if (i + j + k) % 2 else 0.5)
                bound = dense.lower_bound(point)
                assert bound == float(grid[i, j, k]) == lazy.lower_bound(point), (i, j, k)
    assert dense.stats.dense_hits == cells
    assert lazy.stats.dense_hits == 0


def test_off_grid_points_take_the_lazy_path():
    workspace = grid_city_workspace()
    dense = workspace.clearance_field()
    dense.densify()
    lazy = ClearanceField(workspace)
    nx, ny, nz = dense._dense.shape
    off_grid = [
        cell_point(dense, -1, 0, 0),
        cell_point(dense, nx, 3, 2),
        cell_point(dense, 3, -2, 2),
        cell_point(dense, 3, ny, 2),
        cell_point(dense, 3, 3, -1),
        cell_point(dense, 3, 3, nz + 4),
        Vec3(-30.0, 80.0, -5.0),
    ]
    for point in off_grid:
        before = dense.stats.dense_hits
        assert dense.lower_bound(point) == lazy.lower_bound(point)
        assert dense.stats.dense_hits == before
    on_grid = [cell_point(dense, 0, 0, 0), cell_point(dense, nx - 1, ny - 1, nz - 1, frac=0.999)]
    for point in on_grid:
        before = dense.stats.dense_hits
        assert dense.lower_bound(point) == lazy.lower_bound(point)
        assert dense.stats.dense_hits == before + 1


def test_add_obstacle_drops_the_flat_grid():
    workspace = grid_city_workspace()
    field = workspace.clearance_field()
    field.densify()
    point = Vec3(2.0, 2.0, 2.0)
    before = field.lower_bound(point)
    workspace.add_obstacle(AABB.from_footprint(1.0, 1.0, 2.0, 2.0, 5.0))
    assert field.lower_bound(point) < before
    assert field._dense is None and field.dense_cells == 0
    assert field.lower_bound(point) == ClearanceField(workspace).lower_bound(point)


@pytest.mark.parametrize(
    "clone", [lambda w: pickle.loads(pickle.dumps(w)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_densified_world_survives_pickle_and_deepcopy(clone):
    world = surveillance_city()
    field = world.workspace.clearance_field()
    field.densify()
    copied = clone(world)
    copied_field = copied.workspace.clearance_field()
    assert copied_field is not field
    assert copied_field.workspace is copied.workspace
    assert copied_field.dense_cells == field.dense_cells
    nx, ny, nz = field._dense.shape
    for i in range(0, nx, 7):
        for j in range(0, ny, 5):
            for k in range(0, nz, 3):
                point = cell_point(field, i, j, k)
                assert copied_field.lower_bound(point) == field.lower_bound(point)
    assert copied_field.stats.dense_hits == field.stats.dense_hits
