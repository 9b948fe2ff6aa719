"""2-D occupancy grids over a workspace.

The SOTER paper uses the Level-Set Toolbox to compute backward reachable
sets over the workspace (Section V-A, Figure 12b).  Our substitute
(:mod:`repro.reachability.levelset`) works on a discretised occupancy grid
of the workspace, which this module provides.  The grid is 2-D (x, y): the
city's obstacles are buildings that extend from the ground, so at flight
altitude the (x, y) projection is what matters, exactly like the 2-D
obstacle map in Figure 2 (right) of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .vec import Vec3
from .workspace import Workspace

Cell = Tuple[int, int]

#: The grid steps ``(di, dj)`` in neighbour order: the 4-connected ones,
#: then the diagonals.  Search tie-breaking follows this order.
STEPS: Tuple[Cell, ...] = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


@dataclass
class OccupancyGrid:
    """A uniform 2-D grid marking which cells are occupied by obstacles."""

    origin_x: float
    origin_y: float
    resolution: float
    occupied: np.ndarray  # bool array of shape (nx, ny)

    def __post_init__(self) -> None:
        if self.resolution <= 0.0:
            raise ValueError("grid resolution must be positive")
        if self.occupied.ndim != 2:
            raise ValueError("occupancy array must be 2-D")
        self.occupied = self.occupied.astype(bool)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_workspace(
        workspace: Workspace,
        resolution: float = 0.5,
        inflate: float = 0.0,
        altitude: float = 2.0,
    ) -> "OccupancyGrid":
        """Rasterise a workspace at a given flight ``altitude``.

        ``inflate`` grows every obstacle before rasterisation, which is how
        the planners account for the drone's physical extent.  The
        rasterisation is one batched ``in_obstacle`` query over all cell
        centers; it marks exactly the cells the per-cell scalar loop would
        (see :meth:`_from_workspace_scalar`, kept as the test reference).
        """
        if resolution <= 0.0:
            raise ValueError("grid resolution must be positive")
        lo, hi = workspace.bounds.lo, workspace.bounds.hi
        nx = max(1, int(math.ceil((hi.x - lo.x) / resolution)))
        ny = max(1, int(math.ceil((hi.y - lo.y) / resolution)))
        xs = lo.x + (np.arange(nx) + 0.5) * resolution
        ys = lo.y + (np.arange(ny) + 0.5) * resolution
        grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
        centers = np.column_stack(
            [grid_x.ravel(), grid_y.ravel(), np.full(nx * ny, float(altitude))]
        )
        occupied = workspace.in_obstacle_batch(centers, margin=inflate).reshape(nx, ny)
        return OccupancyGrid(origin_x=lo.x, origin_y=lo.y, resolution=resolution, occupied=occupied)

    @staticmethod
    def _from_workspace_scalar(
        workspace: Workspace,
        resolution: float = 0.5,
        inflate: float = 0.0,
        altitude: float = 2.0,
    ) -> "OccupancyGrid":
        """The original per-cell rasterisation loop (reference implementation).

        Kept so the equivalence tests can assert the batched build marks the
        same cells bit-for-bit; benchmarks use it to report the speedup.
        """
        if resolution <= 0.0:
            raise ValueError("grid resolution must be positive")
        lo, hi = workspace.bounds.lo, workspace.bounds.hi
        nx = max(1, int(math.ceil((hi.x - lo.x) / resolution)))
        ny = max(1, int(math.ceil((hi.y - lo.y) / resolution)))
        occupied = np.zeros((nx, ny), dtype=bool)
        for i in range(nx):
            for j in range(ny):
                x = lo.x + (i + 0.5) * resolution
                y = lo.y + (j + 0.5) * resolution
                point = Vec3(x, y, altitude)
                if workspace.in_obstacle(point, margin=inflate):
                    occupied[i, j] = True
        return OccupancyGrid(origin_x=lo.x, origin_y=lo.y, resolution=resolution, occupied=occupied)

    # ------------------------------------------------------------------ #
    # shape and indexing
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        return tuple(self.occupied.shape)  # type: ignore[return-value]

    def world_to_cell(self, point: Vec3) -> Cell:
        """Map a world position to a grid cell (may be out of range)."""
        i = int(math.floor((point.x - self.origin_x) / self.resolution))
        j = int(math.floor((point.y - self.origin_y) / self.resolution))
        return (i, j)

    def cell_to_world(self, cell: Cell, altitude: float = 0.0) -> Vec3:
        """Map a cell to the world coordinates of its center."""
        i, j = cell
        x = self.origin_x + (i + 0.5) * self.resolution
        y = self.origin_y + (j + 0.5) * self.resolution
        return Vec3(x, y, altitude)

    def in_grid(self, cell: Cell) -> bool:
        """True if the cell index lies within the grid."""
        i, j = cell
        nx, ny = self.shape
        return 0 <= i < nx and 0 <= j < ny

    def is_occupied_cell(self, cell: Cell) -> bool:
        """True if the cell is occupied; out-of-grid cells count as occupied."""
        if not self.in_grid(cell):
            return True
        return bool(self.occupied[cell])

    def is_occupied(self, point: Vec3) -> bool:
        """True if the world position falls in an occupied (or out-of-grid) cell."""
        return self.is_occupied_cell(self.world_to_cell(point))

    def free_cells(self) -> Iterator[Cell]:
        """Iterate over all free cells."""
        nx, ny = self.shape
        for i in range(nx):
            for j in range(ny):
                if not self.occupied[i, j]:
                    yield (i, j)

    def neighbors(self, cell: Cell, diagonal: bool = True) -> List[Cell]:
        """In-grid neighbours of a cell (4- or 8-connected)."""
        i, j = cell
        result = []
        for di, dj in STEPS if diagonal else STEPS[:4]:
            candidate = (i + di, j + dj)
            if self.in_grid(candidate):
                result.append(candidate)
        return result

    # ------------------------------------------------------------------ #
    # distance transform
    # ------------------------------------------------------------------ #
    def distance_to_occupied(self) -> np.ndarray:
        """Metric distance from every cell to the nearest occupied cell.

        Octile-metric (8-connected, straight step = resolution, diagonal
        step = √2·resolution) distance transform — the discrete stand-in
        for the signed distance function a level-set toolbox would provide.

        Computed with a vectorised two-pass chamfer sweep: for a 3×3
        neighbourhood the forward (left/up-left/up/up-right) and backward
        (right/down-right/down/down-left) raster passes yield exactly the
        multi-source shortest-path distance the brushfire Dijkstra computes
        (Borgefors' sequential transform), up to floating-point rounding of
        equal path sums.  The Dijkstra version is kept as
        :meth:`_distance_to_occupied_dijkstra` for the equivalence tests.
        """
        dist = np.where(self.occupied, 0.0, np.inf)
        if not self.occupied.any():
            return dist
        straight = self.resolution
        diag = math.sqrt(2.0) * self.resolution
        self._chamfer_pass(dist, straight, diag, forward=True)
        self._chamfer_pass(dist, straight, diag, forward=False)
        return dist

    @staticmethod
    def _chamfer_pass(dist: np.ndarray, straight: float, diag: float, forward: bool) -> None:
        """One raster pass of the chamfer transform, vectorised along rows.

        The within-row relaxation ``d[j] = min(d[j], d[j-1] + straight)``
        is a running minimum of ``d[k] + (j-k)·straight``; subtracting the
        linear ramp ``j·straight`` turns it into a plain prefix minimum,
        which ``np.minimum.accumulate`` computes without a Python loop.
        """
        nx, ny = dist.shape
        ramp = np.arange(ny) * straight
        rows = range(nx) if forward else range(nx - 1, -1, -1)
        previous_index = -1 if forward else 1
        for i in rows:
            row = dist[i]
            pi = i + previous_index
            if 0 <= pi < nx:
                prev = dist[pi]
                np.minimum(row, prev + straight, out=row)
                np.minimum(row[1:], prev[:-1] + diag, out=row[1:])
                np.minimum(row[:-1], prev[1:] + diag, out=row[:-1])
            if forward:
                shifted = row - ramp
                np.minimum.accumulate(shifted, out=shifted)
                np.minimum(row, shifted + ramp, out=row)
            else:
                shifted = (row + ramp)[::-1]
                np.minimum.accumulate(shifted, out=shifted)
                np.minimum(row, shifted[::-1] - ramp, out=row)

    def _distance_to_occupied_dijkstra(self) -> np.ndarray:
        """Reference brushfire (multi-source Dijkstra) distance transform.

        The original scalar implementation, kept for the batch/scalar
        equivalence tests and the benchmark comparison.
        """
        nx, ny = self.shape
        inf = float("inf")
        dist = np.full((nx, ny), inf, dtype=float)
        import heapq

        heap: List[Tuple[float, int, int]] = []
        for i in range(nx):
            for j in range(ny):
                if self.occupied[i, j]:
                    dist[i, j] = 0.0
                    heapq.heappush(heap, (0.0, i, j))
        if not heap:
            return dist
        diag = math.sqrt(2.0) * self.resolution
        straight = self.resolution
        while heap:
            d, i, j = heapq.heappop(heap)
            if d > dist[i, j]:
                continue
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)):
                ni, nj = i + di, j + dj
                if not (0 <= ni < nx and 0 <= nj < ny):
                    continue
                step = diag if di != 0 and dj != 0 else straight
                nd = d + step
                if nd < dist[ni, nj]:
                    dist[ni, nj] = nd
                    heapq.heappush(heap, (nd, ni, nj))
        return dist

    def inflated(self, radius: float) -> "OccupancyGrid":
        """Return a copy where every cell within ``radius`` of an obstacle is occupied."""
        if radius < 0.0:
            raise ValueError("inflation radius must be non-negative")
        dist = self.distance_to_occupied()
        occupied = dist <= radius + 1e-9
        return OccupancyGrid(
            origin_x=self.origin_x,
            origin_y=self.origin_y,
            resolution=self.resolution,
            occupied=occupied,
        )

    def occupancy_fraction(self) -> float:
        """Fraction of cells that are occupied."""
        nx, ny = self.shape
        return float(self.occupied.sum()) / float(nx * ny)
