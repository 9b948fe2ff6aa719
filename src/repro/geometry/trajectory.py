"""Trajectories, reference trajectories, and safety tubes.

The motion planner emits a *motion plan* (sequence of waypoints); the
reference trajectory is the piecewise-straight path through them, and the
motion-primitive RTA module reasons about how far the actual drone
trajectory strays from it (the tubes of Figure 6 and Figure 12a in the
paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .values import Value
from .vec import Vec3, closest_point_on_segment, distance_point_to_polyline
from .workspace import Workspace


class TrajectorySample(Value):
    """A single timestamped sample of the drone's state along a trajectory."""

    time: float
    position: Vec3
    velocity: Vec3 = Vec3()


@dataclass
class Trajectory:
    """A recorded trajectory: a time-ordered list of samples."""

    samples: List[TrajectorySample] = field(default_factory=list)

    def append(self, time: float, position: Vec3, velocity: Vec3 = Vec3()) -> None:
        """Append a sample; times must be non-decreasing."""
        if self.samples and time < self.samples[-1].time:
            raise ValueError("trajectory samples must be appended in time order")
        self.samples.append(TrajectorySample(time=time, position=position, velocity=velocity))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Elapsed time between first and last sample."""
        if len(self.samples) < 2:
            return 0.0
        return self.samples[-1].time - self.samples[0].time

    def path_length(self) -> float:
        """Total distance travelled."""
        total = 0.0
        for a, b in zip(self.samples[:-1], self.samples[1:]):
            total += a.position.distance_to(b.position)
        return total

    def positions(self) -> List[Vec3]:
        """The list of sampled positions."""
        return [sample.position for sample in self.samples]

    def position_at(self, time: float) -> Vec3:
        """Linearly interpolated position at ``time`` (clamped to the range)."""
        if not self.samples:
            raise ValueError("cannot interpolate an empty trajectory")
        if time <= self.samples[0].time:
            return self.samples[0].position
        if time >= self.samples[-1].time:
            return self.samples[-1].position
        for a, b in zip(self.samples[:-1], self.samples[1:]):
            if a.time <= time <= b.time:
                span = b.time - a.time
                alpha = 0.0 if span == 0.0 else (time - a.time) / span
                return a.position.lerp(b.position, alpha)
        return self.samples[-1].position

    def min_clearance(self, workspace: Workspace) -> float:
        """Smallest clearance to obstacles/boundary along the trajectory."""
        best = math.inf
        for sample in self.samples:
            best = min(best, workspace.clearance(sample.position))
        return best

    def max_deviation_from(self, reference: "ReferenceTrajectory") -> float:
        """Largest distance of any sample from the reference polyline."""
        best = 0.0
        for sample in self.samples:
            best = max(best, reference.distance_to(sample.position))
        return best


@dataclass(frozen=True)
class ReferenceTrajectory:
    """A piecewise-straight reference path through an ordered set of waypoints."""

    waypoints: Tuple[Vec3, ...]

    def __post_init__(self) -> None:
        if len(self.waypoints) < 1:
            raise ValueError("a reference trajectory needs at least one waypoint")
        # The path is immutable, so its length and one float row per
        # segment -- start, direction ``b - a``, squared length and length
        # -- are computed once here rather than on every carrot query
        # (``advance_from``).
        total = 0.0
        rows = []
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            direction = b - a
            length = a.distance_to(b)
            rows.append(
                (a.x, a.y, a.z, direction.x, direction.y, direction.z, direction.norm_sq(), length)
            )
            total += length
        object.__setattr__(self, "_length", total)
        object.__setattr__(self, "_segments", tuple(rows))

    @staticmethod
    def from_waypoints(waypoints: Sequence[Vec3]) -> "ReferenceTrajectory":
        return ReferenceTrajectory(tuple(waypoints))

    def length(self) -> float:
        """Total polyline length."""
        return self._length

    def distance_to(self, point: Vec3) -> float:
        """Distance from ``point`` to the reference polyline."""
        return distance_point_to_polyline(point, self.waypoints)

    def closest_point(self, point: Vec3) -> Vec3:
        """Closest point on the polyline to ``point``."""
        if len(self.waypoints) == 1:
            return self.waypoints[0]
        best_point = self.waypoints[0]
        best_dist = math.inf
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            candidate = closest_point_on_segment(point, a, b)
            dist = candidate.distance_to(point)
            if dist < best_dist:
                best_dist = dist
                best_point = candidate
        return best_point

    def arc_length_of_closest_point(self, point: Vec3) -> float:
        """Arc length along the polyline of the point closest to ``point``.

        Per segment ``[a, b]`` this is ``closest_point_on_segment(point, a,
        b)``, its ``distance_to(point)`` and ``a.distance_to(candidate)``,
        written out on the cached float rows with the same operations in
        the same order, so the answer is bit-for-bit the ``Vec3`` one.
        """
        if len(self.waypoints) == 1:
            return 0.0
        px, py, pz = point.x, point.y, point.z
        best_len = 0.0
        best_dist = math.inf
        travelled = 0.0
        for ax, ay, az, dx, dy, dz, length_sq, length in self._segments:
            if length_sq == 0.0:
                cx, cy, cz = ax, ay, az
            else:
                t = ((px - ax) * dx + (py - ay) * dy + (pz - az) * dz) / length_sq
                # ``max(0.0, min(1.0, t))``, NaN and signed zeros included.
                t = t if t < 1.0 else 1.0
                t = t if t > 0.0 else 0.0
                cx, cy, cz = ax + dx * t, ay + dy * t, az + dz * t
            ex, ey, ez = cx - px, cy - py, cz - pz
            dist = math.sqrt((ex * ex + ey * ey) + ez * ez)
            if dist < best_dist:
                best_dist = dist
                ex, ey, ez = ax - cx, ay - cy, az - cz
                best_len = travelled + math.sqrt((ex * ex + ey * ey) + ez * ez)
            travelled += length
        return best_len

    def point_at_arc_length(self, arc_length: float) -> Vec3:
        """Point at a given arc length along the polyline (clamped to the ends)."""
        total = self.length()
        if total == 0.0:
            return self.waypoints[0]
        return self.point_at_fraction(arc_length / total)

    def advance_from(self, point: Vec3, lookahead: float) -> Vec3:
        """Carrot point: project ``point`` onto the polyline, advance ``lookahead`` metres.

        Used by the certified safe tracker to follow the collision-free
        reference trajectory instead of chasing a possibly occluded
        waypoint.
        """
        if lookahead < 0.0:
            raise ValueError("lookahead must be non-negative")
        start = self.arc_length_of_closest_point(point)
        return self.point_at_arc_length(start + lookahead)

    def point_at_fraction(self, fraction: float) -> Vec3:
        """Point at a given arc-length fraction in [0, 1] along the polyline.

        Walks the cached segment rows; the point is ``a.lerp(b, alpha)``
        written out on floats, bit-for-bit the ``Vec3`` expression.
        """
        fraction = max(0.0, min(1.0, fraction))
        total = self.length()
        if total == 0.0 or len(self.waypoints) == 1:
            return self.waypoints[0]
        target = fraction * total
        travelled = 0.0
        for ax, ay, az, dx, dy, dz, _, seg in self._segments:
            if travelled + seg >= target:
                alpha = 0.0 if seg == 0.0 else (target - travelled) / seg
                return Vec3(ax + dx * alpha, ay + dy * alpha, az + dz * alpha)
            travelled += seg
        return self.waypoints[-1]

    def is_collision_free(self, workspace: Workspace, margin: float = 0.0) -> bool:
        """True if every segment avoids every obstacle by ``margin``."""
        if len(self.waypoints) == 1:
            return workspace.is_free(self.waypoints[0], margin=margin)
        return all(
            workspace.segment_is_free(a, b, margin=margin)
            for a, b in zip(self.waypoints[:-1], self.waypoints[1:])
        )


@dataclass(frozen=True)
class Tube:
    """A tube around a reference trajectory (the φ_safe / φ_safer tubes of Figure 6)."""

    reference: ReferenceTrajectory
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("tube radius must be non-negative")

    def contains(self, point: Vec3) -> bool:
        """True if ``point`` lies within ``radius`` of the reference polyline."""
        return self.reference.distance_to(point) <= self.radius

    def shrink(self, amount: float) -> "Tube":
        """A concentric tube with a smaller radius (the φ_safer tube)."""
        if amount < 0.0 or amount > self.radius:
            raise ValueError("shrink amount must be between 0 and the tube radius")
        return Tube(reference=self.reference, radius=self.radius - amount)

    def clearance(self, point: Vec3) -> float:
        """Distance from the tube boundary; positive inside, negative outside."""
        return self.radius - self.reference.distance_to(point)


def mission_waypoint_square(
    center: Vec3, side: float, altitude: float
) -> Tuple[Vec3, Vec3, Vec3, Vec3]:
    """The four corners g1..g4 of the square mission used in Figure 5 / 12a."""
    half = side / 2.0
    return (
        Vec3(center.x - half, center.y - half, altitude),
        Vec3(center.x + half, center.y - half, altitude),
        Vec3(center.x + half, center.y + half, altitude),
        Vec3(center.x - half, center.y + half, altitude),
    )


def figure_eight(center: Vec3, radius: float, altitude: float, points: int = 16) -> List[Vec3]:
    """Waypoints approximating the figure-eight loop of Figure 5 (left)."""
    if points < 4:
        raise ValueError("a figure eight needs at least 4 points")
    waypoints: List[Vec3] = []
    for k in range(points):
        theta = 2.0 * math.pi * k / points
        x = center.x + radius * math.sin(theta)
        y = center.y + radius * math.sin(theta) * math.cos(theta)
        waypoints.append(Vec3(x, y, altitude))
    waypoints.append(waypoints[0])
    return waypoints
