"""Tests for the plant ↔ SOTER co-simulation."""

import pytest

from repro.apps import StackConfig, build_stack
from repro.core import ConstantNode, FunctionNode, Program, SafetySpec, SoterCompiler, Topic
from repro.core.monitor import MonitorSuite, TopicSafetyMonitor
from repro.core.semantics import SemanticsEngine
from repro.dynamics import ControlCommand, DroneState, default_drone_model
from repro.geometry import Vec3, empty_workspace
from repro.simulation import (
    PHYSICS_DT,
    BatterySensor,
    DronePlant,
    DroneSimulation,
    PerfectEstimator,
    PlantChannel,
    PlantEnvironment,
    StateEstimator,
    surveillance_city,
    waypoint_range,
)
from repro.simulation.sim import MONITOR_PERIOD


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



class TestMissionLoop:
    """What DroneSimulation adds around the substep kernel: its step and cadence."""

    @staticmethod
    def _simulation(monitors=None):
        plant = DronePlant(
            model=default_drone_model(),
            workspace=empty_workspace(side=50.0, ceiling=10.0),
            initial_state=DroneState(position=Vec3(2.0, 2.0, 2.0)),
        )
        return DroneSimulation(
            system=_thrust_only_system(),
            channels=[_channel(plant, StateEstimator(0.0, 0.0))],
            monitors=monitors,
        )

    def test_plants_fly_physics_dt_substeps_between_discrete_steps(self):
        sim = self._simulation()
        plant = sim.channels[0].plant
        steps = []
        apply = plant.apply

        def recording(command, dt, gust):
            steps.append(dt)
            apply(command, dt, gust)

        plant.apply = recording
        result = sim.run(1.0)
        # Twenty 0.05-s gaps between the node's firings, each flown as
        # 0.02 + 0.02 + 0.01.
        assert len(steps) == 20 * 3
        assert all(0.0 < dt <= PHYSICS_DT for dt in steps)
        assert sum(steps) == pytest.approx(result.end_time)
        assert plant.time == pytest.approx(result.end_time)

    def test_monitors_are_sampled_every_monitor_period(self):
        never = SafetySpec("never", lambda state: False)
        monitors = MonitorSuite([TopicSafetyMonitor("never", "localPosition", never)])
        self._simulation(monitors).run(1.0)
        # One sample at t=0 (the initial estimate is already published),
        # then one per MONITOR_PERIOD.  The sample due at k*MONITOR_PERIOD
        # is taken right before the step at that instant, so it is stamped
        # with the previous step's time (the node fires every 0.05 s).
        count = round(1.0 / MONITOR_PERIOD)
        expected = [0.0] + [k * MONITOR_PERIOD - 0.05 for k in range(1, count + 1)]
        assert [v.time for v in monitors.violations] == pytest.approx(expected)

    def test_a_run_continued_in_pieces_equals_one_run(self):
        pieces, whole = self._simulation(), self._simulation()
        pieces.run(0.7)
        continued = pieces.run(2.0)
        once = whole.run(2.0)
        assert continued.end_time == once.end_time
        assert _plant_fields(continued.channels[0].plant) == _plant_fields(once.channels[0].plant)
        assert continued.trace.samples == once.trace.samples
        assert continued.trajectories["drone"].samples == once.trajectories["drone"].samples


def _steering_system(period):
    """One node that steers toward a point east along a free street."""
    target = Vec3(31.5, 18.5, 4.0)

    def steer(now, inputs):
        state = inputs.get("localPosition")
        if state is None:
            return {}
        pull = (target - state.position) * 0.8 - state.velocity * 1.5
        return {"controlCommand": ControlCommand(acceleration=pull)}

    node = FunctionNode(
        "steer", steer, subscribes=("localPosition",), publishes=("controlCommand",), period=period
    )
    program = Program(
        name="steer",
        topics=[Topic("localPosition"), Topic("controlCommand", ControlCommand, None)],
        nodes=[node],
    )
    return SoterCompiler().compile(program).system


def _plant_fields(plant):
    return (
        plant.time,
        plant.state,
        plant.battery,
        plant.collided,
        plant.collision_position,
        plant.battery_failed,
        plant.distance_flown,
        plant.min_clearance,
    )


class TestOneLoop:
    def test_missions_and_the_plant_environment_fly_the_same_plant(self):
        # The same channel twice: one flown by a mission at every discrete
        # step, one by a tester environment at every window.  With the
        # node's period equal to the window, both call the one substep
        # loop over the same intervals, so the plants stay equal.
        period = 0.125
        workspace = surveillance_city().workspace

        def channel():
            plant = DronePlant(
                model=default_drone_model(),
                workspace=workspace,
                initial_state=DroneState(position=Vec3(4.0, 18.5, 4.0)),
            )
            return PlantChannel(
                plant=plant,
                estimator=PerfectEstimator(),
                command_topic="controlCommand",
                position_topic="localPosition",
            )

        mission = DroneSimulation(system=_steering_system(period), channels=[channel()])
        environment = PlantEnvironment(
            channels=[channel()], gust_menu=[Vec3.zero()], period=period, physics_dt=PHYSICS_DT
        )
        engine = SemanticsEngine(_steering_system(period))
        for k in range(1, 49):
            mission.run(k * period)
            engine.run_until(k * period, environment=environment.apply)
            assert _plant_fields(mission.channels[0].plant) == _plant_fields(
                environment.channels[0].plant
            ), f"step {k}"
        plant = environment.channels[0].plant
        assert plant.distance_flown > 10.0 and not plant.collided


class TestReset:
    def test_a_stopped_run_does_not_leak_into_the_next(self):
        # The drone starts at x=2 under forward thrust; φ "x < 3" fails
        # once it passes x=3.  A run stopped at t=2 leaves violations and
        # an advanced monitor cadence behind; after reset() a short run
        # must read exactly what a fresh simulation reads.
        def simulation():
            plant = DronePlant(
                model=default_drone_model(),
                workspace=empty_workspace(side=50.0, ceiling=10.0),
                initial_state=DroneState(position=Vec3(2.0, 2.0, 2.0)),
            )
            west = SafetySpec("x<3", lambda state: state.position.x < 3.0)
            monitors = MonitorSuite([TopicSafetyMonitor("west", "localPosition", west)])
            return DroneSimulation(
                system=_thrust_only_system(),
                channels=[_channel(plant, StateEstimator(0.0, 0.0))],
                monitors=monitors,
            )

        def keys(result):
            return [(v.time, v.monitor, v.message) for v in result.monitors.violations]

        warm = simulation()
        stopped = warm.run(3.0, stop_when=lambda sim: sim.engine.current_time >= 2.0)
        assert stopped.stop_reason == "stop condition" and keys(stopped)
        warm.reset()
        again = warm.run(1.5)
        fresh = simulation().run(1.5)
        assert keys(again) == keys(fresh)
        assert again.end_time == fresh.end_time
        assert again.trace.samples == fresh.trace.samples
        assert again.trajectories["drone"].samples == fresh.trajectories["drone"].samples

    def test_a_reset_golden_mission_flies_the_golden_figures_again(self):
        # The golden Fig. 12b mission (tests/apps/test_golden_mission.py),
        # flown, rewound with reset() and flown again on the warm stack.
        world = surveillance_city()
        world.workspace.clearance_field().densify()
        stack = build_stack(
            StackConfig(
                world=world,
                random_goals=5,
                planner="astar",
                tracker="learned",
                protect_battery=True,
                seed=0,
            )
        )

        def fly():
            metrics, result = stack.run(300)
            stats = result.engine.stats
            figures = (
                metrics.mission_time,
                metrics.goals_visited,
                stats.node_firings,
                stats.time_progress_steps,
                stats.mode_switches,
                metrics.min_clearance,
            )
            trace = result.trace
            recorded = (
                list(trace.firings),
                list(trace.switches),
                list(trace.samples),
                trace.inputs,
                {name: list(t.samples) for name, t in result.trajectories.items()},
                [(v.time, v.monitor, v.message) for v in result.monitors.violations],
            )
            return figures, recorded

        golden = (109.49999999999592, 14, 7124, 2191, 4, 1.52040624955686)
        first, first_recorded = fly()
        assert first == golden
        stack.simulation.reset()
        assert stack.simulation.engine.current_time == 0.0
        second, second_recorded = fly()
        assert second == golden
        assert second_recorded == first_recorded
