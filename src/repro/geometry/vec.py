"""3-D vector primitives used throughout the SOTER reproduction.

The drone case study works in a small 3-D workspace, so a tiny immutable
vector type is sufficient and keeps the rest of the code free of raw
``numpy`` arrays for positions/velocities (arrays are still used in the
numeric kernels where they pay off).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .values import Value


class Vec3(Value):
    """An immutable 3-D vector with the usual arithmetic operations."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zero() -> "Vec3":
        """Return the zero vector."""
        return _ZERO

    @staticmethod
    def from_iterable(values: Iterable[float]) -> "Vec3":
        """Build a vector from any iterable of three numbers."""
        items = list(values)
        if len(items) != 3:
            raise ValueError(f"expected 3 components, got {len(items)}")
        return Vec3(float(items[0]), float(items[1]), float(items[2]))

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    # The three hottest constructors skip ``type.__call__`` and write the
    # slots directly (the helpers are bound below the class).
    def __add__(self, other: "Vec3") -> "Vec3":
        vec = _new(Vec3)
        _set_x(vec, self.x + other.x)
        _set_y(vec, self.y + other.y)
        _set_z(vec, self.z + other.z)
        return vec

    def __sub__(self, other: "Vec3") -> "Vec3":
        vec = _new(Vec3)
        _set_x(vec, self.x - other.x)
        _set_y(vec, self.y - other.y)
        _set_z(vec, self.z - other.z)
        return vec

    def __mul__(self, scalar: float) -> "Vec3":
        vec = _new(Vec3)
        _set_x(vec, self.x * scalar)
        _set_y(vec, self.y * scalar)
        _set_z(vec, self.z * scalar)
        return vec

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        if scalar == 0.0:
            raise ZeroDivisionError("division of Vec3 by zero")
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def dot(self, other: "Vec3") -> float:
        """Dot product with ``other``."""
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        """Cross product with ``other``."""
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """Euclidean length."""
        return math.sqrt(self.dot(self))

    def norm_sq(self) -> float:
        """Squared Euclidean length (avoids the sqrt)."""
        return self.dot(self)

    def distance_to(self, other: "Vec3") -> float:
        """Euclidean distance to ``other``."""
        return (self - other).norm()

    def horizontal_distance_to(self, other: "Vec3") -> float:
        """Distance ignoring the z (altitude) component."""
        dx = self.x - other.x
        dy = self.y - other.y
        return math.hypot(dx, dy)

    def unit(self) -> "Vec3":
        """Unit vector in the same direction; zero vector maps to zero."""
        n = self.norm()
        if n == 0.0:
            return Vec3.zero()
        return self / n

    def clamp_norm(self, max_norm: float) -> "Vec3":
        """Scale the vector down so its norm does not exceed ``max_norm``."""
        if max_norm < 0.0:
            raise ValueError("max_norm must be non-negative")
        n = self.norm()
        if n <= max_norm or n == 0.0:
            return self
        return self * (max_norm / n)

    def with_z(self, z: float) -> "Vec3":
        """Copy of this vector with the z component replaced."""
        return Vec3(self.x, self.y, float(z))

    def lerp(self, other: "Vec3", alpha: float) -> "Vec3":
        """Linear interpolation: ``self`` at alpha=0, ``other`` at alpha=1."""
        return self + (other - self) * alpha

    def is_finite(self) -> bool:
        """True if all components are finite numbers."""
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)

    def almost_equal(self, other: "Vec3", tol: float = 1e-9) -> bool:
        """Component-wise comparison within ``tol``."""
        return (
            abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(self.z - other.z) <= tol
        )

    def as_tuple(self) -> Tuple[float, float, float]:
        """Return ``(x, y, z)``."""
        return (self.x, self.y, self.z)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vec3({self.x:.3f}, {self.y:.3f}, {self.z:.3f})"


_new = object.__new__
_set_x = Vec3.x.__set__
_set_y = Vec3.y.__set__
_set_z = Vec3.z.__set__
_ZERO = Vec3(0.0, 0.0, 0.0)


# --------------------------------------------------------------------- #
# structure-of-arrays row helpers (bit-identical to the Vec3 methods)
# --------------------------------------------------------------------- #
# The batched kernels (vectorised dynamics steps, batched controller laws)
# operate on (N, 3) float64 arrays.  Each helper evaluates exactly the
# floating-point expressions of the corresponding Vec3 method, in the same
# order, so a row-wise result equals the scalar result bit for bit.


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean length of every row: ``sqrt((x*x + y*y) + z*z)`` like :meth:`Vec3.norm`."""
    x, y, z = rows[:, 0], rows[:, 1], rows[:, 2]
    return np.sqrt(x * x + y * y + z * z)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, with :meth:`Vec3.dot`'s summation order."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`Vec3.unit`: zero rows map to zero, others to ``row / norm``."""
    norms = row_norms(rows)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return np.where(zero[:, None], 0.0, rows / safe[:, None])


def clamp_norm_rows(rows: np.ndarray, max_norm: float) -> np.ndarray:
    """Row-wise :meth:`Vec3.clamp_norm`: scale rows whose norm exceeds ``max_norm``."""
    if max_norm < 0.0:
        raise ValueError("max_norm must be non-negative")
    norms = row_norms(rows)
    # The scalar method returns the vector unchanged when n <= max or n == 0;
    # n > max_norm >= 0 already implies n != 0.
    needs_scaling = norms > max_norm
    if not needs_scaling.any():
        return rows.astype(float)
    scale = np.divide(
        max_norm, norms, out=np.ones_like(norms), where=needs_scaling
    )
    return np.where(needs_scaling[:, None], rows * scale[:, None], rows)


def pairwise_index_pairs(count: int) -> List[Tuple[int, int]]:
    """The ``(i, j)`` index pairs with ``i < j``, in lexicographic order.

    This is the canonical condensed-matrix ordering shared by the scalar
    pairwise-separation oracle and its batched counterpart: entry ``k`` of
    either result refers to ``pairwise_index_pairs(n)[k]``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return [(i, j) for i in range(count) for j in range(i + 1, count)]


def pairwise_separations(points: np.ndarray) -> np.ndarray:
    """Condensed pairwise distances over the second-to-last (vehicle) axis.

    ``points`` is ``(..., N, 3)``; the result is ``(..., N*(N-1)/2)`` in
    :func:`pairwise_index_pairs` order.  One call answers a whole window of
    N² separation queries — ``(S, N, 3)`` in, ``(S, P)`` out — and each
    entry evaluates exactly :meth:`Vec3.distance_to`'s expression
    (``sqrt((dx*dx + dy*dy) + dz*dz)``), so batched separations are
    bit-for-bit identical to the scalar pair loop.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != 3:
        raise ValueError(f"expected a (..., N, 3) point array, got shape {pts.shape}")
    count = pts.shape[-2]
    pairs = pairwise_index_pairs(count)
    if not pairs:
        return np.zeros(pts.shape[:-2] + (0,))
    first = np.array([i for i, _ in pairs])
    second = np.array([j for _, j in pairs])
    delta = pts[..., first, :] - pts[..., second, :]
    x, y, z = delta[..., 0], delta[..., 1], delta[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def min_pairwise_separation(positions: Sequence[Vec3]) -> Tuple[float, Tuple[int, int]]:
    """The smallest pairwise distance and its ``(i, j)`` pair (scalar oracle).

    Scans pairs in :func:`pairwise_index_pairs` order with a strict ``<``
    comparison, so ties resolve to the first minimal pair — exactly what
    ``np.argmin`` over :func:`pairwise_separations` returns.
    """
    if len(positions) < 2:
        raise ValueError("pairwise separation needs at least two positions")
    best = math.inf
    best_pair = (0, 1)
    for i, j in pairwise_index_pairs(len(positions)):
        distance = positions[i].distance_to(positions[j])
        if distance < best:
            best = distance
            best_pair = (i, j)
    return best, best_pair


def distance_point_to_segment(point: Vec3, seg_a: Vec3, seg_b: Vec3) -> float:
    """Distance from ``point`` to the segment ``[seg_a, seg_b]``."""
    closest = closest_point_on_segment(point, seg_a, seg_b)
    return point.distance_to(closest)


def closest_point_on_segment(point: Vec3, seg_a: Vec3, seg_b: Vec3) -> Vec3:
    """Closest point on the segment ``[seg_a, seg_b]`` to ``point``."""
    direction = seg_b - seg_a
    length_sq = direction.norm_sq()
    if length_sq == 0.0:
        return seg_a
    t = (point - seg_a).dot(direction) / length_sq
    t = max(0.0, min(1.0, t))
    return seg_a + direction * t


def distance_point_to_polyline(point: Vec3, waypoints: Iterable[Vec3]) -> float:
    """Distance from ``point`` to the polyline through ``waypoints``."""
    pts = list(waypoints)
    if not pts:
        raise ValueError("polyline must have at least one waypoint")
    if len(pts) == 1:
        return point.distance_to(pts[0])
    best = math.inf
    for a, b in zip(pts[:-1], pts[1:]):
        best = min(best, distance_point_to_segment(point, a, b))
    return best
