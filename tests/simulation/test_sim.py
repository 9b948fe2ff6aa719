"""Tests for the plant ↔ SOTER co-simulation."""

import pytest

from repro.apps import StackConfig, build_stack
from repro.core import ConstantNode, Program, SoterCompiler, Topic
from repro.dynamics import ControlCommand, DroneState, default_drone_model
from repro.geometry import Vec3, empty_workspace
from repro.simulation import (
    BatterySensor,
    DronePlant,
    DroneSimulation,
    PlantChannel,
    SimulationConfig,
    StateEstimator,
    waypoint_range,
)


def _thrust_only_system():
    """A system with a single node that always commands forward thrust."""
    program = Program(
        name="thrust",
        topics=[Topic("controlCommand", ControlCommand, None)],
        nodes=[
            ConstantNode(
                "thruster", {"controlCommand": ControlCommand(acceleration=Vec3(2.0, 0.0, 0.0))}, period=0.05
            )
        ],
    )
    return SoterCompiler().compile(program).system


def _channel(plant, estimator=None):
    return PlantChannel(
        plant=plant,
        estimator=estimator or StateEstimator(),
        battery_sensor=BatterySensor(),
        command_topic="controlCommand",
        position_topic="localPosition",
        battery_topic="batteryStatus",
    )


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(physics_dt=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(monitor_period=0.0)


class TestCoSimulation:
    def test_plant_follows_published_commands(self):
        workspace = empty_workspace(side=50.0, ceiling=10.0)
        plant = DronePlant(
            model=default_drone_model(),
            workspace=workspace,
            initial_state=DroneState(position=Vec3(2, 2, 2)),
        )
        sim = DroneSimulation(system=_thrust_only_system(), channels=[_channel(plant, StateEstimator(0.0, 0.0))])
        result = sim.run(duration=3.0)
        assert result.channels[0].plant.state.position.x > 4.0
        assert result.end_time == pytest.approx(3.0, abs=0.1)
        assert len(result.trajectories["drone"]) > 10

    def test_sensor_topics_are_published(self):
        workspace = empty_workspace(side=50.0, ceiling=10.0)
        plant = DronePlant(model=default_drone_model(), workspace=workspace)
        sim = DroneSimulation(system=_thrust_only_system(), channels=[_channel(plant)])
        sim.run(duration=0.5)
        assert isinstance(sim.engine.read_topic("localPosition"), DroneState)
        assert sim.engine.read_topic("batteryStatus") is not None

    def test_signals_recorded_in_trace(self):
        workspace = empty_workspace(side=50.0, ceiling=10.0)
        plant = DronePlant(model=default_drone_model(), workspace=workspace)
        sim = DroneSimulation(system=_thrust_only_system(), channels=[_channel(plant)])
        result = sim.run(duration=1.0)
        assert result.trace.signal("clearance")
        assert result.trace.signal("battery")
        assert result.trace.min_signal("clearance") is not None

    def test_stop_on_crash(self):
        workspace = empty_workspace(side=10.0, ceiling=10.0)
        plant = DronePlant(
            model=default_drone_model(),
            workspace=workspace,
            initial_state=DroneState(position=Vec3(8.0, 5.0, 2.0)),
        )
        sim = DroneSimulation(system=_thrust_only_system(), channels=[_channel(plant, StateEstimator(0.0, 0.0))])
        result = sim.run(duration=30.0)
        assert result.stop_reason == "crash"
        assert result.crashed
        assert result.end_time < 30.0

    def test_custom_stop_condition(self):
        workspace = empty_workspace(side=50.0, ceiling=10.0)
        plant = DronePlant(model=default_drone_model(), workspace=workspace)
        sim = DroneSimulation(system=_thrust_only_system(), channels=[_channel(plant)])
        result = sim.run(duration=30.0, stop_when=lambda s: s.channels[0].plant.state.position.x > 5.0)
        assert result.stop_reason == "stop condition"

    def test_safe_property_reflects_monitors_and_plant(self):
        world = waypoint_range()
        config = StackConfig(
            world=world, goals=world.surveillance_points, loop_goals=False,
            planner="straight", protect_battery=False, seed=1,
        )
        stack = build_stack(config)
        metrics, result = stack.run(duration=120.0)
        assert result.safe == (not result.crashed and result.monitors.ok)
