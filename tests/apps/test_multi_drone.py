"""Multi-vehicle fleet composition: namespaces, monitors, and co-simulation."""

import pytest

from repro.apps import (
    DEFAULT_NAMESPACE,
    FleetConfig,
    StackConfig,
    TopicNamespace,
    build_fleet_discrete_model,
    build_fleet_stack,
    fleet_configs,
    standard_topics,
    vehicle_namespace,
)
from repro.core import CompositionError, SeparationMonitor
from repro.geometry import Vec3
from repro.simulation import surveillance_city


@pytest.fixture(scope="module")
def world():
    return surveillance_city()


def _base(world, **overrides):
    return StackConfig(
        world=world,
        planner="straight",
        protect_battery=False,
        protect_motion_primitive=True,
        **overrides,
    )


class TestTopicNamespace:
    def test_default_namespace_is_the_identity(self):
        assert DEFAULT_NAMESPACE.prefix == ""
        assert DEFAULT_NAMESPACE.position == "localPosition"
        assert DEFAULT_NAMESPACE.scoped("surveillance") == "surveillance"
        assert [t.name for t in DEFAULT_NAMESPACE.topics()] == [
            t.name for t in standard_topics()
        ]

    def test_vehicle_namespace_convention(self):
        assert vehicle_namespace(0, 1) is DEFAULT_NAMESPACE
        assert vehicle_namespace(0, 3).prefix == "drone0/"
        assert vehicle_namespace(2, 3).position == "drone2/localPosition"
        with pytest.raises(ValueError):
            vehicle_namespace(3, 3)
        with pytest.raises(ValueError):
            vehicle_namespace(-1, 2)

    def test_prefixed_topics_carry_the_same_types(self):
        prefixed = TopicNamespace("droneX/").topics()
        plain = standard_topics()
        assert [(t.name, t.value_type) for t in prefixed] == [
            (f"droneX/{t.name}", t.value_type) for t in plain
        ]


class TestFleetConfigs:
    def test_vehicle_zero_keeps_the_base_configuration(self, world):
        base = _base(world, seed=4)
        configs = fleet_configs(3, base)
        assert configs[0].namespace.prefix == "drone0/"
        assert configs[0].seed == base.seed
        assert configs[0].goals == base.goals  # untouched (None -> world points)
        assert configs[0].start_position == base.start_position

    def test_later_vehicles_fly_rotated_tours(self, world):
        base = _base(world)
        configs = fleet_configs(2, base)
        points = list(world.surveillance_points)
        assert list(configs[1].goals) == points[3:] + points[:3]
        assert configs[1].start_position == points[3]
        # Seeds are spaced by two: each vehicle consumes (seed, seed + 1)
        # for its estimator/battery-sensor streams, so adjacent vehicles
        # must never share either value.
        assert configs[1].seed == base.seed + 2

    def test_sensor_seed_streams_never_alias_across_vehicles(self, world):
        configs = fleet_configs(4, _base(world, seed=0))
        consumed = [(c.seed, c.seed + 1) for c in configs]
        flat = [value for pair in consumed for value in pair]
        assert len(set(flat)) == len(flat)

    def test_single_vehicle_fleet_is_the_plain_stack(self, world):
        (only,) = fleet_configs(1, _base(world))
        assert only.namespace is DEFAULT_NAMESPACE

    def test_validation(self, world):
        base = _base(world)
        with pytest.raises(ValueError):
            fleet_configs(0, base)
        with pytest.raises(ValueError, match="distinct"):
            FleetConfig(vehicles=[base, base])
        other_world = surveillance_city()
        with pytest.raises(ValueError, match="workspace"):
            FleetConfig(
                vehicles=[
                    base,
                    _base(other_world, namespace=vehicle_namespace(1, 2)),
                ]
            )
        with pytest.raises(ValueError, match="min_separation"):
            FleetConfig(vehicles=fleet_configs(2, base), min_separation=0.0)


class TestFleetDiscreteModel:
    def test_three_vehicle_composition_compiles(self, world):
        model = build_fleet_discrete_model(
            FleetConfig(vehicles=fleet_configs(3, _base(world)))
        )
        names = [node.name for node in model.system.all_nodes()]
        assert len(names) == len(set(names))
        for index in range(3):
            assert f"drone{index}/surveillance" in names
            assert f"drone{index}/SafeMotionPrimitive.dm" in names
        # Per-vehicle topic planes are disjoint.
        topics = [topic.name for topic in model.program.topics]
        assert len(topics) == len(set(topics)) == 18
        assert isinstance(model.separation, SeparationMonitor)
        assert model.separation in model.monitors.monitors
        assert model.separation.topics == tuple(
            f"drone{i}/localPosition" for i in range(3)
        )
        assert len(model.vehicles) == 3

    def test_single_vehicle_fleet_has_no_separation_monitor(self, world):
        model = build_fleet_discrete_model(
            FleetConfig(vehicles=fleet_configs(1, _base(world)))
        )
        assert model.separation is None
        assert [m.name for m in model.monitors.monitors] == [
            "phi_obs(estimated)",
            "phi_inv[SafeMotionPrimitive]",
        ]

    def test_clashing_namespaces_fail_composition(self, world):
        base = _base(world)
        # Same prefix on both vehicles: FleetConfig rejects it up front...
        with pytest.raises(ValueError):
            FleetConfig(vehicles=[base, base])
        # ...and the compiler would reject the merged program anyway.
        from repro.apps.stack import _assemble_program, _merge_fleet_program
        from repro.core import Program, SoterCompiler

        fleet = FleetConfig(vehicles=fleet_configs(2, base))
        assemblies = [_assemble_program(base), _assemble_program(base)]
        program = _merge_fleet_program(fleet, assemblies)
        with pytest.raises(Exception):
            SoterCompiler(strict=True).compile(program)


class TestFleetSimulation:
    def test_two_vehicle_mission_flies_and_stays_separated(self, world):
        fleet = FleetConfig(
            vehicles=fleet_configs(2, _base(world, estimator_noise=0.0)),
            min_separation=2.0,
        )
        stack = build_fleet_stack(fleet)
        assert stack.separation is not None
        result = stack.run(duration=6.0)
        assert result.end_time > 0.0
        assert not result.crashed
        for channel in stack.channels:
            assert channel.plant.distance_flown > 0.5, f"{channel.label} never moved"
        # Rotated tours keep the pair apart; the monitor saw no conflicts.
        assert stack.separation.result.ok
        assert result.min_separation_observed() > fleet.min_separation

    def test_fleet_reset_reruns_identically(self, world):
        fleet = FleetConfig(vehicles=fleet_configs(2, _base(world)))
        stack = build_fleet_stack(fleet)

        def run_once():
            result = stack.simulation.run(2.0)
            return {
                name: [
                    (s.time, s.position.as_tuple(), s.velocity.as_tuple())
                    for s in trajectory.samples
                ]
                for name, trajectory in result.trajectories.items()
            }

        first = run_once()
        stack.simulation.reset()
        assert stack.simulation.engine.current_time == 0.0
        assert run_once() == first

    def test_namespaced_single_stack_simulation_actually_flies(self, world):
        # build_stack must wire the co-simulation's sensor/command topics
        # from the config's namespace: with a prefixed namespace and the
        # default topic names the sensors would publish where no node
        # listens and the mission would sit still, vacuously safe.
        from repro.apps import build_stack, vehicle_namespace

        config = _base(
            world, estimator_noise=0.0, namespace=vehicle_namespace(0, 2)
        )
        stack = build_stack(config)
        assert stack.simulation.channels[0].position_topic == "drone0/localPosition"
        assert stack.simulation.channels[0].command_topic == "drone0/controlCommand"
        stack.simulation.run(3.0)
        assert stack.plant.distance_flown > 0.5

    def test_colocated_starts_trip_the_separation_monitor(self, world):
        base = _base(world, estimator_noise=0.0)
        configs = fleet_configs(2, base)
        # Park both drones on the same pad.
        from dataclasses import replace

        start = Vec3(4.0, 4.0, 2.0)
        configs = [replace(c, start_position=start, goals=[start]) for c in configs]
        fleet = FleetConfig(vehicles=configs, min_separation=2.0)
        stack = build_fleet_stack(fleet)
        # Parked on their one goal, both tours are complete at once, which
        # ends a FleetStack.run; fly the whole second regardless.
        result = stack.simulation.run(1.0)
        assert not result.monitors.ok
        assert any(
            violation.monitor == "phi_separation"
            for violation in result.monitors.violations
        )
