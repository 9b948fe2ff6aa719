"""Workspaces: bounded regions with static obstacles.

A :class:`Workspace` is the geometric model of the environment the drone
operates in (the "city" of Figure 2 in the SOTER paper).  It provides the
collision queries every other layer relies on: the safety predicate
``φ_obs`` of the motion-primitive RTA module, plan validation for the
motion-planner RTA module, and the backward-reachable-set computation used
to derive ``ttf_2Δ`` and ``φ_safer``.

Batching contract
-----------------
Every scalar query has a ``*_batch`` counterpart over ``(N, 3)`` point
arrays that evaluates the same floating-point expressions in the same
order, so scalar and batched answers are bit-for-bit identical (see
:mod:`repro.geometry.shapes`).  :meth:`Workspace.clearance_field` hands
out a lazily built, per-instance :class:`~repro.geometry.clearance.ClearanceField`
memo — the cached scalar fast path of the safety-query plane.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .shapes import AABB, points_as_array
from .vec import Vec3

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .clearance import ClearanceField

#: One obstacle as ``(lo.x, lo.y, lo.z, hi.x, hi.y, hi.z)``.
Row = Tuple[float, float, float, float, float, float]


@dataclass
class Workspace:
    """A bounded 3-D region containing static axis-aligned obstacles.

    The obstacle set must only be mutated through :meth:`add_obstacle`
    (which invalidates the query-plane caches); replacing entries of
    ``obstacles`` in place is unsupported and would desynchronise the
    cached obstacle arrays and clearance bounds.
    """

    bounds: AABB
    obstacles: List[AABB] = field(default_factory=list)
    name: str = "workspace"

    def __post_init__(self) -> None:
        for obstacle in self.obstacles:
            self._check_obstacle(obstacle)
        # Per-instance caches of the safety-query plane.  Both are keyed on
        # the obstacle count so direct ``add_obstacle`` calls invalidate
        # them; they must never be shared between workspaces.
        self._obstacle_cache: Optional[Tuple[int, np.ndarray, np.ndarray, Tuple[Row, ...]]] = None
        self._clearance_field_cache: Optional[Tuple[int, float, "ClearanceField"]] = None

    def _check_obstacle(self, obstacle: AABB) -> None:
        if not self.bounds.intersects(obstacle):
            raise ValueError(f"obstacle {obstacle} lies entirely outside the workspace bounds")

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def add_obstacle(self, obstacle: AABB) -> None:
        """Add a static obstacle, validating that it overlaps the bounds."""
        self._check_obstacle(obstacle)
        self.obstacles.append(obstacle)

    def _obstacles(self) -> Tuple[int, np.ndarray, np.ndarray, Tuple[Row, ...]]:
        """The obstacle cache: count, ``(M, 3)`` corner arrays and float rows."""
        cache = self._obstacle_cache
        if cache is None or cache[0] != len(self.obstacles):
            rows = tuple((*o.lo.as_tuple(), *o.hi.as_tuple()) for o in self.obstacles)
            corners = np.array(rows, dtype=float).reshape(-1, 6)
            cache = (len(rows), corners[:, :3].copy(), corners[:, 3:].copy(), rows)
            self._obstacle_cache = cache
        return cache

    def obstacle_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(M, 3)`` lower/upper corner arrays of all obstacles (cached)."""
        _, lo, hi, _ = self._obstacles()
        return lo, hi

    def _obstacle_rows(self) -> Tuple[Row, ...]:
        """Per-obstacle ``(lo.x, lo.y, lo.z, hi.x, hi.y, hi.z)`` float rows (cached).

        The scalar kernels below loop over these instead of the :class:`AABB`
        objects, so a query allocates no :class:`Vec3`.
        """
        cache = self._obstacle_cache
        if cache is None or cache[0] != len(self.obstacles):
            cache = self._obstacles()
        return cache[3]

    def clearance_field(self, resolution: float = 0.5) -> "ClearanceField":
        """The lazily built, cached :class:`ClearanceField` of this workspace.

        The field memoises conservative per-cell clearance lower bounds; it
        is (re)built whenever the obstacle set or requested resolution
        changes, and is shared by every caller holding the same workspace
        instance — which is what lets worker processes reuse one warm cache
        across many explored executions.
        """
        from .clearance import ClearanceField

        cache = self._clearance_field_cache
        if cache is None or cache[0] != len(self.obstacles) or cache[1] != resolution:
            field_obj = ClearanceField(self, resolution=resolution)
            cache = (len(self.obstacles), resolution, field_obj)
            self._clearance_field_cache = cache
        return cache[2]

    def with_margin(self, margin: float) -> "Workspace":
        """Copy of the workspace with every obstacle inflated by ``margin``."""
        inflated = [obstacle.inflate(margin) for obstacle in self.obstacles]
        return Workspace(bounds=self.bounds, obstacles=inflated, name=f"{self.name}+{margin:.2f}m")

    # ------------------------------------------------------------------ #
    # collision queries
    # ------------------------------------------------------------------ #
    def in_bounds(self, point: Vec3, margin: float = 0.0) -> bool:
        """True if ``point`` lies inside the workspace bounds shrunk by ``margin``."""
        return (
            self.bounds.lo.x + margin <= point.x <= self.bounds.hi.x - margin
            and self.bounds.lo.y + margin <= point.y <= self.bounds.hi.y - margin
            and self.bounds.lo.z + margin <= point.z <= self.bounds.hi.z - margin
        )

    def in_obstacle(self, point: Vec3, margin: float = 0.0) -> bool:
        """True if ``point`` is inside (or within ``margin`` of) any obstacle.

        The comparisons of :meth:`AABB.contains`, over the cached rows.
        """
        x, y, z = point.x, point.y, point.z
        for lx, ly, lz, hx, hy, hz in self._obstacle_rows():
            if (
                lx - margin <= x <= hx + margin
                and ly - margin <= y <= hy + margin
                and lz - margin <= z <= hz + margin
            ):
                return True
        return False

    def is_free(self, point: Vec3, margin: float = 0.0) -> bool:
        """True if ``point`` is inside bounds and not within ``margin`` of an obstacle."""
        return self.in_bounds(point) and not self.in_obstacle(point, margin=margin)

    def segment_is_free(self, seg_a: Vec3, seg_b: Vec3, margin: float = 0.0) -> bool:
        """True if the straight segment between the endpoints avoids all obstacles.

        Box by box, the arithmetic of ``AABB.inflate(margin)`` (skipped at
        zero margin, raising when a negative margin collapses the box) and
        the slab test of :meth:`AABB.segment_intersects`, over the cached
        rows.
        """
        if not (self.in_bounds(seg_a) and self.in_bounds(seg_b)):
            return False
        origin = (seg_a.x, seg_a.y, seg_a.z)
        delta = (seg_b.x - seg_a.x, seg_b.y - seg_a.y, seg_b.z - seg_a.z)
        for row in self._obstacle_rows():
            if margin != 0.0:
                row = (
                    row[0] - margin, row[1] - margin, row[2] - margin,
                    row[3] + margin, row[4] + margin, row[5] + margin,
                )
                if row[0] > row[3] or row[1] > row[4] or row[2] > row[5]:
                    raise ValueError("inflate with a negative margin collapsed the box")
            t_min, t_max = 0.0, 1.0
            for axis in (0, 1, 2):
                o, d, lo, hi = origin[axis], delta[axis], row[axis], row[axis + 3]
                if abs(d) < 1e-12:
                    if o < lo or o > hi:
                        break
                    continue
                t1 = (lo - o) / d
                t2 = (hi - o) / d
                if t1 > t2:
                    t1, t2 = t2, t1
                if t1 > t_min:  # max(t_min, t1)
                    t_min = t1
                if t2 < t_max:  # min(t_max, t2)
                    t_max = t2
                if t_min > t_max:
                    break
            else:
                return False
        return True

    def nearest_obstacle(self, point: Vec3) -> Tuple[int, float]:
        """Index of the nearest obstacle and its squared distance to ``point``.

        Per axis the gap is the magnitude of ``x - min(max(x, lo), hi)``,
        squared and summed in :meth:`Vec3.dot` order; a strict ``<`` keeps
        the first of equally near boxes.  ``(-1, inf)`` when no box is at a
        finite square: no obstacles, or a NaN or ±inf coordinate.
        """
        x, y, z = point.x, point.y, point.z
        index, best = -1, math.inf
        for i, (lx, ly, lz, hx, hy, hz) in enumerate(self._obstacle_rows()):
            dx = (0.0 if x <= hx else x - hx) if x >= lx else lx - x
            dy = (0.0 if y <= hy else y - hy) if y >= ly else ly - y
            dz = (0.0 if z <= hz else z - hz) if z >= lz else lz - z
            d2 = dx * dx + dy * dy + dz * dz
            if d2 < best:
                index, best = i, d2
        return index, best

    def distance_to_nearest_obstacle(self, point: Vec3) -> float:
        """Distance to the nearest obstacle surface (inf if there are none).

        Equal to :func:`min_distance_to_boxes`: ``sqrt`` is correctly
        rounded and monotone, so the root of the :meth:`nearest_obstacle`
        square is the smallest root.  A NaN coordinate gives NaN when there
        is a box to be near, as the batch kernel does: a point of unknown
        position must not read as clear.
        """
        index, best = self.nearest_obstacle(point)
        x, y, z = point.x, point.y, point.z
        if index < 0 and self.obstacles and (x != x or y != y or z != z):
            return math.nan
        return math.sqrt(best)

    def distance_to_boundary(self, point: Vec3, include_floor: bool = False) -> float:
        """Distance from ``point`` to the workspace boundary (negative if outside).

        By default the lower z face (the ground plane) is excluded: the
        drone is supposed to fly close to — and land on — the ground, so
        only the lateral walls and the ceiling count as hazards.  A NaN
        coordinate gives NaN.
        """
        x, y, z = point.x, point.y, point.z
        if y != y or z != z:  # a NaN x already propagates through min
            return math.nan
        dx = min(x - self.bounds.lo.x, self.bounds.hi.x - x)
        dy = min(y - self.bounds.lo.y, self.bounds.hi.y - y)
        dz = self.bounds.hi.z - z
        if include_floor:
            dz = min(dz, z - self.bounds.lo.z)
        return min(dx, dy, dz)

    def clearance(self, point: Vec3) -> float:
        """Minimum of obstacle distance and (floor-less) boundary distance.

        This is the quantity the motion-primitive safety predicate and the
        level-set substitute reason about: the drone is in ``φ_safe`` as
        long as its clearance is positive.  A NaN coordinate gives NaN.
        """
        lo, hi = self.bounds.lo, self.bounds.hi
        x, y, z = point.x, point.y, point.z
        index, best = self.nearest_obstacle(point)
        # A NaN coordinate names no box, and ``min`` would skip a NaN
        # boundary term: answer NaN, not a clear distance.
        if index < 0 and (x != x or y != y or z != z):
            return math.nan
        return min(
            math.sqrt(best),
            min(min(x - lo.x, hi.x - x), min(y - lo.y, hi.y - y), hi.z - z),
        )

    # ------------------------------------------------------------------ #
    # batched collision queries (bit-identical to the scalar versions)
    # ------------------------------------------------------------------ #
    def in_bounds_batch(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Vectorised :meth:`in_bounds` over an ``(N, 3)`` point array."""
        pts = points_as_array(points)
        lo, hi = self.bounds.lo, self.bounds.hi
        return (
            (pts[:, 0] >= lo.x + margin)
            & (pts[:, 0] <= hi.x - margin)
            & (pts[:, 1] >= lo.y + margin)
            & (pts[:, 1] <= hi.y - margin)
            & (pts[:, 2] >= lo.z + margin)
            & (pts[:, 2] <= hi.z - margin)
        )

    def in_obstacle_batch(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Vectorised :meth:`in_obstacle` over an ``(N, 3)`` point array.

        One ``(M, N)`` slab comparison per axis against the cached obstacle
        corners, inflated by ``margin`` with the same float subtraction and
        addition as :meth:`AABB.contains`, so answers are identical.
        """
        pts = points_as_array(points)
        if not self.obstacles:
            return np.zeros(pts.shape[0], dtype=bool)
        lo, hi = self.obstacle_arrays()  # (M, 3)
        lo = (lo - margin)[:, :, None]  # (M, 3, 1)
        hi = (hi + margin)[:, :, None]
        x, y, z = pts.T
        inside = (x >= lo[:, 0]) & (x <= hi[:, 0])  # (M, N)
        inside &= (y >= lo[:, 1]) & (y <= hi[:, 1])
        inside &= (z >= lo[:, 2]) & (z <= hi[:, 2])
        return inside.any(axis=0)

    def is_free_batch(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Vectorised :meth:`is_free` over an ``(N, 3)`` point array."""
        return self.in_bounds_batch(points) & ~self.in_obstacle_batch(points, margin=margin)

    def distance_to_nearest_obstacle_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`distance_to_nearest_obstacle` (inf with no obstacles).

        A running minimum of the squared distance, one cached obstacle row
        at a time: per axis the gap ``x - min(max(x, lo), hi)`` (the scalar
        gap up to a sign that squaring drops), the squared norm in
        ``(dx*dx + dy*dy) + dz*dz`` order, and one ``sqrt`` at the end —
        ``sqrt`` is correctly rounded and monotone, so the answers are the
        scalar ones bit for bit.  Every temporary is an ``(N,)`` column,
        so memory is ``O(N)`` whatever the box count.  ``np.minimum``
        carries a NaN coordinate through to a NaN distance, as the scalar
        kernel answers.
        """
        pts = points_as_array(points)
        rows = self._obstacle_rows()
        best = np.full(pts.shape[0], np.inf)
        if not rows:
            return best
        x, y, z = (np.ascontiguousarray(pts[:, axis]) for axis in range(3))
        d2 = np.empty_like(best)
        gap = np.empty_like(best)
        for lx, ly, lz, hx, hy, hz in rows:
            _squared_gap(x, lx, hx, d2)
            d2 += _squared_gap(y, ly, hy, gap)
            d2 += _squared_gap(z, lz, hz, gap)
            np.minimum(best, d2, out=best)
        return np.sqrt(best, out=best)

    def nearest_obstacle_batch(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`nearest_obstacle`: ``(N,)`` indices and squares.

        Squares of the clamp gap ``x - min(max(x, lo), hi)`` in ``(dx*dx +
        dy*dy) + dz*dz`` order are the scalar ones bit for bit; ``argmin``
        keeps the first minimum.  One ``(3, M, N)`` block over contiguous
        rows, not a loop over boxes: the callers' batches are small, so
        per-call overhead dominates.
        """
        pts = points_as_array(points)
        count = pts.shape[0]
        if not self.obstacles:
            return np.full(count, -1), np.full(count, np.inf)
        lo, hi = self.obstacle_arrays()  # (M, 3)
        coords = np.ascontiguousarray(pts.T)[:, None, :]  # (3, 1, N)
        gap = coords - np.minimum(np.maximum(coords, lo.T[:, :, None]), hi.T[:, :, None])
        gap *= gap
        d2 = gap[0] + gap[1] + gap[2]  # (M, N)
        index = d2.argmin(axis=0)
        best = d2[index, np.arange(count)]
        found = best < np.inf
        return np.where(found, index, -1), np.where(found, best, np.inf)

    def distance_to_boundary_batch(self, points: np.ndarray, include_floor: bool = False) -> np.ndarray:
        """Vectorised :meth:`distance_to_boundary` over an ``(N, 3)`` point array.

        ``np.minimum(b, a)`` returns ``b`` only when ``b < a``, as Python's
        ``min(a, b)`` does, so a ``±0.0`` tie keeps the scalar's sign.
        """
        pts = points_as_array(points)
        lo, hi = self.bounds.lo, self.bounds.hi
        dx = np.minimum(hi.x - pts[:, 0], pts[:, 0] - lo.x)
        dy = np.minimum(hi.y - pts[:, 1], pts[:, 1] - lo.y)
        dz = hi.z - pts[:, 2]
        if include_floor:
            dz = np.minimum(pts[:, 2] - lo.z, dz)
        return np.minimum(dz, np.minimum(dy, dx))

    def clearance_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`clearance`: one call answers N safety queries.

        This is the workhorse of the batched safety-query plane — monitors,
        decision modules, the dense clearance grid and the
        backward-reachable-set build all reduce to it.  Bit-for-bit
        identical to mapping :meth:`clearance` over the points, NaN and
        ``±0.0`` answers included.
        """
        pts = points_as_array(points)
        return np.minimum(
            self.distance_to_boundary_batch(pts), self.distance_to_nearest_obstacle_batch(pts)
        )

    def segments_free_batch(
        self, starts: np.ndarray, ends: np.ndarray, margin: float = 0.0
    ) -> np.ndarray:
        """Vectorised :meth:`segment_is_free` over ``(N, 3)`` endpoint arrays.

        Evaluates the same slab tests as the scalar version for every
        (segment, obstacle) pair at once; used by plan validation to check a
        whole waypoint path with one query.
        """
        a = points_as_array(starts)
        b = points_as_array(ends)
        if a.shape != b.shape:
            raise ValueError("start and end point arrays must have the same shape")
        free = self.in_bounds_batch(a) & self.in_bounds_batch(b)
        if not self.obstacles:
            return free
        direction = b - a  # (N, 3)
        parallel = np.abs(direction) < 1e-12  # (N, 3)
        lo_arr, hi_arr = self.obstacle_arrays()  # (M, 3)
        lo_arr = lo_arr[:, None, :] - margin  # (M, 1, 3) inflated boxes
        hi_arr = hi_arr[:, None, :] + margin
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo_arr - a[None, :, :]) / direction[None, :, :]  # (M, N, 3)
            t2 = (hi_arr - a[None, :, :]) / direction[None, :, :]
        t_lo = np.minimum(t1, t2)
        t_hi = np.maximum(t1, t2)
        # Parallel axes contribute no t-interval but require the origin to
        # lie inside the slab (exactly the scalar early-out).
        par = parallel[None, :, :]
        origin_ok = (a[None, :, :] >= lo_arr) & (a[None, :, :] <= hi_arr)
        t_lo = np.where(par, -np.inf, t_lo)
        t_hi = np.where(par, np.inf, t_hi)
        t_min = np.maximum(t_lo.max(axis=2), 0.0)  # (M, N)
        t_max = np.minimum(t_hi.min(axis=2), 1.0)
        axis_ok = np.where(par, origin_ok, True).all(axis=2)
        hit = axis_ok & (t_min <= t_max)  # segment n intersects box m
        return free & ~hit.any(axis=0)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def random_free_point(
        self,
        rng: random.Random,
        margin: float = 0.0,
        altitude_range: Optional[Tuple[float, float]] = None,
        max_tries: int = 1000,
    ) -> Vec3:
        """Sample a collision-free point uniformly from the workspace.

        ``margin`` is enforced as a *clearance* requirement — distance to
        both obstacles and the lateral walls/ceiling — so sampled goals are
        places a drone can actually be sent to.  ``altitude_range``
        restricts the z component, which is how the surveillance
        application keeps goals at flying altitude.
        """
        for _ in range(max_tries):
            point = self.bounds.random_point(rng)
            if altitude_range is not None:
                point = point.with_z(rng.uniform(*altitude_range))
            if self.is_free(point) and self.clearance(point) >= margin:
                return point
        raise RuntimeError(
            f"could not sample a free point in workspace {self.name!r} after {max_tries} tries"
        )

    def clamp(self, point: Vec3) -> Vec3:
        """Clamp ``point`` into the workspace bounds."""
        return self.bounds.clamp(point)


def _squared_gap(coord: np.ndarray, lo: float, hi: float, out: np.ndarray) -> np.ndarray:
    """``(coord - min(max(coord, lo), hi))**2`` written into ``out``."""
    np.maximum(coord, lo, out=out)
    np.minimum(out, hi, out=out)
    np.subtract(coord, out, out=out)
    return np.multiply(out, out, out=out)


def grid_city_workspace(
    width: float = 50.0,
    depth: float = 50.0,
    ceiling: float = 12.0,
    building_rows: int = 3,
    building_cols: int = 3,
    building_size: float = 6.0,
    building_height: float = 8.0,
    street_margin: float = 6.0,
    name: str = "city",
) -> Workspace:
    """Build a regular city-block workspace like the Gazebo city of Figure 2.

    Buildings are laid out on a regular grid with streets between them; the
    drone flies below the ceiling and between the buildings.  All parameters
    are in metres.
    """
    if building_rows < 1 or building_cols < 1:
        raise ValueError("the city must have at least one building row and column")
    bounds = AABB(Vec3(0.0, 0.0, 0.0), Vec3(width, depth, ceiling))
    workspace = Workspace(bounds=bounds, obstacles=[], name=name)
    usable_w = width - 2 * street_margin
    usable_d = depth - 2 * street_margin
    step_x = usable_w / building_cols
    step_y = usable_d / building_rows
    if building_size >= min(step_x, step_y):
        raise ValueError("buildings are too large for the requested grid spacing")
    for row in range(building_rows):
        for col in range(building_cols):
            cx = street_margin + (col + 0.5) * step_x
            cy = street_margin + (row + 0.5) * step_y
            footprint_x = cx - building_size / 2.0
            footprint_y = cy - building_size / 2.0
            workspace.add_obstacle(
                AABB.from_footprint(footprint_x, footprint_y, building_size, building_size, building_height)
            )
    return workspace


def corridor_workspace(
    length: float = 40.0,
    width: float = 10.0,
    ceiling: float = 8.0,
    pillar_positions: Sequence[float] = (12.0, 24.0),
    pillar_size: float = 2.5,
    pillar_height: float = 6.0,
    name: str = "corridor",
) -> Workspace:
    """A long corridor with pillars; used for the g1..g4 square-mission experiments."""
    bounds = AABB(Vec3(0.0, 0.0, 0.0), Vec3(length, width, ceiling))
    workspace = Workspace(bounds=bounds, obstacles=[], name=name)
    for x in pillar_positions:
        footprint_x = x - pillar_size / 2.0
        footprint_y = width / 2.0 - pillar_size / 2.0
        workspace.add_obstacle(
            AABB.from_footprint(footprint_x, footprint_y, pillar_size, pillar_size, pillar_height)
        )
    return workspace


def empty_workspace(side: float = 20.0, ceiling: float = 10.0, name: str = "empty") -> Workspace:
    """An obstacle-free box, useful for unit tests and the quickstart example."""
    return Workspace(bounds=AABB(Vec3(0.0, 0.0, 0.0), Vec3(side, side, ceiling)), obstacles=[], name=name)


def min_clearance_along(points: Iterable[Vec3], workspace: Workspace) -> float:
    """Minimum clearance of a sequence of points with respect to ``workspace``."""
    best = math.inf
    for point in points:
        best = min(best, workspace.clearance(point))
    return best
