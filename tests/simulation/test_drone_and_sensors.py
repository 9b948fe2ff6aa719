"""Tests for the drone plant, sensors, and mission worlds."""

import pytest

from repro.dynamics import BatteryModel, BatteryParams, ControlCommand, DroneState, default_drone_model
from repro.geometry import AABB, Vec3, empty_workspace
from repro.simulation import (
    BatterySensor,
    DronePlant,
    PerfectEstimator,
    StateEstimator,
    figure_eight_range,
    surveillance_city,
    waypoint_range,
)


@pytest.fixture
def plant():
    workspace = empty_workspace(side=20.0, ceiling=10.0)
    workspace.add_obstacle(AABB.from_footprint(9.0, 9.0, 2.0, 2.0, 8.0))
    return DronePlant(
        model=default_drone_model(),
        workspace=workspace,
        initial_state=DroneState(position=Vec3(2.0, 2.0, 2.0)),
    )


class TestDronePlant:
    def test_apply_moves_the_drone_and_tracks_distance(self, plant):
        command = ControlCommand(acceleration=Vec3(2.0, 0.0, 0.0))
        for _ in range(50):
            plant.apply(command, 0.02)
        assert plant.state.position.x > 2.0
        assert plant.distance_flown > 0.0
        assert plant.time == pytest.approx(1.0)

    def test_none_command_means_no_thrust(self, plant):
        plant.apply(None, 0.1)
        assert plant.state.velocity.norm() == pytest.approx(0.0, abs=1e-6)

    def test_collision_detected_and_freezes_plant(self, plant):
        command = ControlCommand(acceleration=Vec3(6.0, 6.0, 0.0))
        for _ in range(600):
            plant.apply(command, 0.02)
            if plant.collided:
                break
        assert plant.collided
        assert plant.crashed
        position_at_impact = plant.state.position
        plant.apply(command, 0.5)
        assert plant.state.position == position_at_impact

    def test_battery_drains_and_depletion_is_a_crash(self):
        workspace = empty_workspace(side=20.0, ceiling=10.0)
        plant = DronePlant(
            model=default_drone_model(),
            workspace=workspace,
            battery_model=BatteryModel(BatteryParams(idle_rate=0.5)),
            initial_state=DroneState(position=Vec3(5, 5, 3.0)),
            initial_charge=0.05,
        )
        for _ in range(100):
            plant.apply(ControlCommand.hover(), 0.05)
        assert plant.battery.depleted
        assert plant.crashed  # depleted while airborne

    def test_landing_on_the_ground_is_not_a_collision(self, plant):
        descend = ControlCommand(acceleration=Vec3(0.0, 0.0, -3.0))
        for _ in range(400):
            plant.apply(descend, 0.02)
        assert not plant.collided
        assert not plant.airborne
        assert plant.landed

    def test_ground_clamping(self, plant):
        plant.apply(ControlCommand(acceleration=Vec3(0, 0, -6.0)), 5.0)
        assert plant.state.position.z >= 0.0

    def test_min_clearance_is_tracked(self, plant):
        command = ControlCommand(acceleration=Vec3(3.0, 3.0, 0.0))
        for _ in range(100):
            plant.apply(command, 0.02)
        assert plant.min_clearance <= plant.workspace.clearance(Vec3(2.0, 2.0, 2.0))

    def test_status_and_battery_status(self, plant):
        status = plant.status()
        assert status.state.position == plant.state.position
        battery_status = plant.battery_status()
        assert battery_status.charge == plant.battery.charge
        assert battery_status.altitude == pytest.approx(2.0)
        assert not battery_status.depleted

    def test_negative_dt_rejected(self, plant):
        with pytest.raises(ValueError):
            plant.apply(ControlCommand.hover(), -0.1)


class TestSensors:
    def test_state_estimator_noise_is_bounded(self):
        estimator = StateEstimator(position_noise=0.05, velocity_noise=0.05, seed=1)
        truth = DroneState(position=Vec3(1, 2, 3), velocity=Vec3(0.5, 0, 0))
        for _ in range(50):
            estimate = estimator.estimate(truth)
            assert estimate.position.distance_to(truth.position) <= 0.05 * (3 ** 0.5) + 1e-9
            assert estimate.velocity.distance_to(truth.velocity) <= 0.05 * (3 ** 0.5) + 1e-9

    def test_perfect_estimator_returns_truth(self):
        truth = DroneState(position=Vec3(1, 2, 3))
        assert PerfectEstimator().estimate(truth) is truth

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            StateEstimator(position_noise=-0.1)

    def test_battery_sensor_is_clamped(self, plant):
        sensor = BatterySensor(charge_noise=0.01, seed=0)
        reading = sensor.measure(plant)
        assert 0.0 <= reading.charge <= 1.0
        with pytest.raises(ValueError):
            BatterySensor(charge_noise=-0.1)


class TestWorlds:
    def test_city_has_nine_buildings_and_safe_points(self):
        world = surveillance_city()
        assert len(world.workspace.obstacles) == 9
        for point in world.surveillance_points:
            assert world.workspace.clearance(point) > 2.0

    def test_range_goals_are_free_but_near_obstacles(self):
        world = waypoint_range()
        for goal in world.surveillance_points:
            assert world.workspace.is_free(goal)
        # At least one goal sits close to a keep-out block (that is the point
        # of the experiment).
        assert min(world.workspace.clearance(g) for g in world.surveillance_points) < 3.0

    def test_goals_cycle(self):
        world = waypoint_range()
        goals = world.goals_cycle(6)
        assert len(goals) == 6
        assert goals[0] == goals[4]
        with pytest.raises(ValueError):
            figure_eight_range().goals_cycle(3)

    def test_random_goal_has_clearance(self):
        import random

        world = surveillance_city()
        goal = world.random_goal(random.Random(0), margin=2.0)
        assert world.workspace.clearance(goal) >= 2.0
