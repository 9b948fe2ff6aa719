"""Tests for trajectories, reference trajectories, and tubes."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    AABB,
    ReferenceTrajectory,
    Trajectory,
    Tube,
    Vec3,
    empty_workspace,
    figure_eight,
    mission_waypoint_square,
)


class TestTrajectory:
    def test_append_requires_time_order(self):
        trajectory = Trajectory()
        trajectory.append(0.0, Vec3(0, 0, 0))
        trajectory.append(1.0, Vec3(1, 0, 0))
        with pytest.raises(ValueError):
            trajectory.append(0.5, Vec3(2, 0, 0))

    def test_duration_and_length(self):
        trajectory = Trajectory()
        trajectory.append(0.0, Vec3(0, 0, 0))
        trajectory.append(1.0, Vec3(3, 4, 0))
        assert trajectory.duration == pytest.approx(1.0)
        assert trajectory.path_length() == pytest.approx(5.0)
        assert len(trajectory) == 2

    def test_position_interpolation(self):
        trajectory = Trajectory()
        trajectory.append(0.0, Vec3(0, 0, 0))
        trajectory.append(2.0, Vec3(2, 0, 0))
        assert trajectory.position_at(1.0) == Vec3(1, 0, 0)
        assert trajectory.position_at(-1.0) == Vec3(0, 0, 0)
        assert trajectory.position_at(5.0) == Vec3(2, 0, 0)

    def test_position_of_empty_trajectory_raises(self):
        with pytest.raises(ValueError):
            Trajectory().position_at(0.0)

    def test_min_clearance(self):
        workspace = empty_workspace(side=10.0, ceiling=8.0)
        workspace.add_obstacle(AABB.from_footprint(4.0, 4.0, 2.0, 2.0, 6.0))
        trajectory = Trajectory()
        trajectory.append(0.0, Vec3(1, 5, 2))
        trajectory.append(1.0, Vec3(3.5, 5, 2))
        assert trajectory.min_clearance(workspace) == pytest.approx(0.5)

    def test_max_deviation_from_reference(self):
        reference = ReferenceTrajectory((Vec3(0, 0, 0), Vec3(10, 0, 0)))
        trajectory = Trajectory()
        trajectory.append(0.0, Vec3(0, 0, 0))
        trajectory.append(1.0, Vec3(5, 2, 0))
        assert trajectory.max_deviation_from(reference) == pytest.approx(2.0)


class TestReferenceTrajectory:
    def test_requires_waypoints(self):
        with pytest.raises(ValueError):
            ReferenceTrajectory(())

    def test_length(self):
        reference = ReferenceTrajectory((Vec3(0, 0, 0), Vec3(3, 0, 0), Vec3(3, 4, 0)))
        assert reference.length() == pytest.approx(7.0)

    def test_cached_length_is_the_polyline_sum_bit_for_bit(self):
        waypoints = tuple(figure_eight(Vec3(5, 5, 0), 3.7, 2.0, points=11))
        reference = ReferenceTrajectory(waypoints)
        total = 0.0
        for a, b in zip(waypoints[:-1], waypoints[1:]):
            total += a.distance_to(b)
        assert reference.length() == total
        # The cache rides along with copies and never enters equality.
        assert pickle.loads(pickle.dumps(reference)).length() == total
        assert copy.deepcopy(reference).length() == total
        assert reference == ReferenceTrajectory(waypoints)
        assert "_length" not in repr(reference)
        shorter = dataclasses.replace(reference, waypoints=waypoints[:2])
        assert shorter.length() == waypoints[0].distance_to(waypoints[1])

    def test_distance_and_closest_point(self):
        reference = ReferenceTrajectory((Vec3(0, 0, 0), Vec3(10, 0, 0)))
        assert reference.distance_to(Vec3(5, 3, 0)) == pytest.approx(3.0)
        assert reference.closest_point(Vec3(5, 3, 0)) == Vec3(5, 0, 0)

    def test_point_at_fraction(self):
        reference = ReferenceTrajectory((Vec3(0, 0, 0), Vec3(10, 0, 0)))
        assert reference.point_at_fraction(0.5) == Vec3(5, 0, 0)
        assert reference.point_at_fraction(-1.0) == Vec3(0, 0, 0)
        assert reference.point_at_fraction(2.0) == Vec3(10, 0, 0)

    def test_advance_from(self):
        reference = ReferenceTrajectory((Vec3(0, 0, 0), Vec3(10, 0, 0), Vec3(10, 10, 0)))
        carrot = reference.advance_from(Vec3(4, 1, 0), 3.0)
        assert carrot == Vec3(7, 0, 0)
        # Advancing past the end clamps to the final waypoint.
        assert reference.advance_from(Vec3(10, 9.5, 0), 5.0) == Vec3(10, 10, 0)
        with pytest.raises(ValueError):
            reference.advance_from(Vec3(0, 0, 0), -1.0)

    def test_collision_check(self):
        workspace = empty_workspace(side=10.0, ceiling=8.0)
        workspace.add_obstacle(AABB.from_footprint(4.0, 4.0, 2.0, 2.0, 6.0))
        blocked = ReferenceTrajectory((Vec3(1, 5, 2), Vec3(9, 5, 2)))
        clear = ReferenceTrajectory((Vec3(1, 1, 2), Vec3(9, 1, 2)))
        assert not blocked.is_collision_free(workspace)
        assert clear.is_collision_free(workspace)

    def test_single_waypoint_collision_check(self):
        workspace = empty_workspace(side=10.0, ceiling=8.0)
        assert ReferenceTrajectory((Vec3(1, 1, 2),)).is_collision_free(workspace)


class TestTube:
    def test_contains(self):
        tube = Tube(ReferenceTrajectory((Vec3(0, 0, 0), Vec3(10, 0, 0))), radius=2.0)
        assert tube.contains(Vec3(5, 1.5, 0))
        assert not tube.contains(Vec3(5, 2.5, 0))

    def test_shrink(self):
        tube = Tube(ReferenceTrajectory((Vec3(0, 0, 0), Vec3(10, 0, 0))), radius=2.0)
        assert tube.shrink(1.0).radius == pytest.approx(1.0)
        with pytest.raises(ValueError):
            tube.shrink(3.0)

    def test_clearance_sign(self):
        tube = Tube(ReferenceTrajectory((Vec3(0, 0, 0), Vec3(10, 0, 0))), radius=2.0)
        assert tube.clearance(Vec3(5, 1, 0)) > 0
        assert tube.clearance(Vec3(5, 3, 0)) < 0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Tube(ReferenceTrajectory((Vec3(0, 0, 0),)), radius=-1.0)


class TestMissionShapes:
    def test_waypoint_square(self):
        g1, g2, g3, g4 = mission_waypoint_square(Vec3(5, 5, 0), side=4.0, altitude=2.0)
        assert g1.distance_to(g2) == pytest.approx(4.0)
        assert g2.distance_to(g3) == pytest.approx(4.0)
        assert all(g.z == 2.0 for g in (g1, g2, g3, g4))

    def test_figure_eight_closed_loop(self):
        loop = figure_eight(Vec3(0, 0, 0), radius=5.0, altitude=2.0, points=16)
        assert loop[0] == loop[-1]
        assert len(loop) == 17
        with pytest.raises(ValueError):
            figure_eight(Vec3(), 5.0, 2.0, points=2)


class TestReferenceProperties:
    @given(
        xs=st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=2, max_size=6),
        probe_x=st.floats(min_value=-20, max_value=20, allow_nan=False),
        probe_y=st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_closest_point_realises_the_distance(self, xs, probe_x, probe_y):
        waypoints = tuple(Vec3(x, float(i), 0.0) for i, x in enumerate(xs))
        reference = ReferenceTrajectory(waypoints)
        probe = Vec3(probe_x, probe_y, 0.0)
        closest = reference.closest_point(probe)
        assert probe.distance_to(closest) == pytest.approx(reference.distance_to(probe), abs=1e-6)
