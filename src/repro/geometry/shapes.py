"""Geometric shapes (axis-aligned boxes and spheres) for obstacle maps.

The SOTER drone case study (Section II-A of the paper) assumes static,
known obstacles; buildings are modelled as axis-aligned boxes, which is
also what the obstacle map in Figure 2 (right) shows.

Batching contract
-----------------
Every scalar point query has a ``*_batch`` counterpart operating on an
``(N, 3)`` float array of points and returning an ``(N,)`` array.  The
batched versions evaluate *the same floating-point expressions in the
same order* as their scalar counterparts, so their answers are bit-for-bit
identical — callers may mix scalar and batched queries freely without
changing any safety decision.  :func:`points_as_array` converts an
iterable of :class:`Vec3` (or anything array-like) into the batch layout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .vec import Vec3


def points_as_array(points: Sequence[Vec3] | np.ndarray) -> np.ndarray:
    """Convert points into the ``(N, 3)`` float64 batch layout.

    Accepts a sequence of :class:`Vec3` (or 3-tuples) or an already-shaped
    numpy array; always returns a 2-D ``(N, 3)`` float64 array.
    """
    if isinstance(points, np.ndarray):
        array = np.asarray(points, dtype=float)
    else:
        array = np.array([(p.x, p.y, p.z) if isinstance(p, Vec3) else tuple(p) for p in points], dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, 3) if array.size == 3 else array.reshape(-1, 3)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point array, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class AABB:
    """Axis-aligned bounding box defined by two corner points."""

    lo: Vec3
    hi: Vec3

    def __post_init__(self) -> None:
        if self.lo.x > self.hi.x or self.lo.y > self.hi.y or self.lo.z > self.hi.z:
            raise ValueError(f"AABB lower corner must not exceed upper corner: {self.lo} vs {self.hi}")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_center_size(center: Vec3, size: Vec3) -> "AABB":
        """Build a box from its center point and full edge lengths."""
        half = size * 0.5
        return AABB(center - half, center + half)

    @staticmethod
    def from_footprint(x: float, y: float, width: float, depth: float, height: float) -> "AABB":
        """Build a building-like box from a ground footprint and a height."""
        lo = Vec3(x, y, 0.0)
        hi = Vec3(x + width, y + depth, height)
        return AABB(lo, hi)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def center(self) -> Vec3:
        return (self.lo + self.hi) * 0.5

    @property
    def size(self) -> Vec3:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        s = self.size
        return s.x * s.y * s.z

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def contains(self, point: Vec3, margin: float = 0.0) -> bool:
        """True if ``point`` lies inside the box inflated by ``margin``."""
        return (
            self.lo.x - margin <= point.x <= self.hi.x + margin
            and self.lo.y - margin <= point.y <= self.hi.y + margin
            and self.lo.z - margin <= point.z <= self.hi.z + margin
        )

    def contains_batch(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Vectorised :meth:`contains` over an ``(N, 3)`` point array."""
        pts = points_as_array(points)
        lo = (self.lo.x - margin, self.lo.y - margin, self.lo.z - margin)
        hi = (self.hi.x + margin, self.hi.y + margin, self.hi.z + margin)
        inside = np.ones(pts.shape[0], dtype=bool)
        for axis in range(3):
            inside &= (pts[:, axis] >= lo[axis]) & (pts[:, axis] <= hi[axis])
        return inside

    def inflate(self, margin: float) -> "AABB":
        """Return a copy grown by ``margin`` on every face (may shrink if negative)."""
        grow = Vec3(margin, margin, margin)
        lo = self.lo - grow
        hi = self.hi + grow
        if lo.x > hi.x or lo.y > hi.y or lo.z > hi.z:
            raise ValueError("inflate with a negative margin collapsed the box")
        return AABB(lo, hi)

    def intersects(self, other: "AABB") -> bool:
        """True if this box and ``other`` overlap (closed intervals)."""
        return (
            self.lo.x <= other.hi.x
            and self.hi.x >= other.lo.x
            and self.lo.y <= other.hi.y
            and self.hi.y >= other.lo.y
            and self.lo.z <= other.hi.z
            and self.hi.z >= other.lo.z
        )

    def closest_point(self, point: Vec3) -> Vec3:
        """Closest point of the box to ``point``."""
        return Vec3(
            min(max(point.x, self.lo.x), self.hi.x),
            min(max(point.y, self.lo.y), self.hi.y),
            min(max(point.z, self.lo.z), self.hi.z),
        )

    def distance_to_point(self, point: Vec3) -> float:
        """Euclidean distance from ``point`` to the box (zero if inside)."""
        return point.distance_to(self.closest_point(point))

    def clamp(self, point: Vec3) -> Vec3:
        """Clamp ``point`` inside the box."""
        return self.closest_point(point)

    def segment_intersects(self, seg_a: Vec3, seg_b: Vec3, margin: float = 0.0) -> bool:
        """True if the segment ``[seg_a, seg_b]`` passes through the inflated box.

        Uses the slab method, which is exact for axis-aligned boxes.
        """
        box = self.inflate(margin) if margin != 0.0 else self
        direction = seg_b - seg_a
        t_min, t_max = 0.0, 1.0
        for axis in range(3):
            origin = seg_a.as_tuple()[axis]
            delta = direction.as_tuple()[axis]
            lo = box.lo.as_tuple()[axis]
            hi = box.hi.as_tuple()[axis]
            if abs(delta) < 1e-12:
                if origin < lo or origin > hi:
                    return False
                continue
            t1 = (lo - origin) / delta
            t2 = (hi - origin) / delta
            if t1 > t2:
                t1, t2 = t2, t1
            t_min = max(t_min, t1)
            t_max = min(t_max, t2)
            if t_min > t_max:
                return False
        return True

    def random_point(self, rng: random.Random) -> Vec3:
        """Uniformly sample a point inside the box."""
        return Vec3(
            rng.uniform(self.lo.x, self.hi.x),
            rng.uniform(self.lo.y, self.hi.y),
            rng.uniform(self.lo.z, self.hi.z),
        )

    def corners(self) -> Tuple[Vec3, ...]:
        """The eight corner points."""
        xs = (self.lo.x, self.hi.x)
        ys = (self.lo.y, self.hi.y)
        zs = (self.lo.z, self.hi.z)
        return tuple(Vec3(x, y, z) for x in xs for y in ys for z in zs)

    def union(self, other: "AABB") -> "AABB":
        """Smallest box containing both boxes."""
        return AABB(
            Vec3(min(self.lo.x, other.lo.x), min(self.lo.y, other.lo.y), min(self.lo.z, other.lo.z)),
            Vec3(max(self.hi.x, other.hi.x), max(self.hi.y, other.hi.y), max(self.hi.z, other.hi.z)),
        )


@dataclass(frozen=True)
class Sphere:
    """A sphere, used for spherical keep-out zones and goal regions."""

    center: Vec3
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("sphere radius must be non-negative")

    def contains(self, point: Vec3, margin: float = 0.0) -> bool:
        """True if ``point`` is within ``radius + margin`` of the center."""
        return self.center.distance_to(point) <= self.radius + margin

    def contains_batch(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Vectorised :meth:`contains` over an ``(N, 3)`` point array."""
        return self._center_distances(points) <= self.radius + margin

    def distance_to_point(self, point: Vec3) -> float:
        """Distance from ``point`` to the sphere surface (zero if inside)."""
        return max(0.0, self.center.distance_to(point) - self.radius)

    def _center_distances(self, points: np.ndarray) -> np.ndarray:
        pts = points_as_array(points)
        dx = self.center.x - pts[:, 0]
        dy = self.center.y - pts[:, 1]
        dz = self.center.z - pts[:, 2]
        return np.sqrt(dx * dx + dy * dy + dz * dz)

    def bounding_box(self) -> AABB:
        """Axis-aligned bounding box of the sphere."""
        r = Vec3(self.radius, self.radius, self.radius)
        return AABB(self.center - r, self.center + r)


def min_distance_to_boxes(point: Vec3, boxes: Iterable[AABB]) -> float:
    """Distance from ``point`` to the nearest box in ``boxes`` (inf if empty).

    NaN for a point with a NaN coordinate when ``boxes`` is not empty:
    ``min`` would skip the NaN distances and read such a point as clear.
    """
    best = math.inf
    for box in boxes:
        distance = box.distance_to_point(point)
        if distance != distance:
            return distance
        best = min(best, distance)
    return best


def first_box_containing(point: Vec3, boxes: Iterable[AABB], margin: float = 0.0) -> Optional[AABB]:
    """Return the first box containing ``point`` (inflated by ``margin``), if any."""
    for box in boxes:
        if box.contains(point, margin=margin):
            return box
    return None
