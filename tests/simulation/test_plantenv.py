"""``RowGroupPlant``/``PlantEnvironment`` vs the scalar plant loop.

The vectorized live-row path promises per-row *bit-identity* with the
scalar path: :meth:`RowGroupPlant.step_window` and its window kernel
(:meth:`RowGroupPlant.apply_window`) must leave every plant in exactly
the state K independent ``apply`` loops would, and a
:class:`PlantEnvironment` integrating through the row-group matrix plant
must publish the same readings as its scalar twin.  The oracle is the
literal scalar plant, compared with ``==`` after many windows that
exercise gusts, collisions (mid-window ones included), grazing walks
along the city's faces, edges and corners, and battery discharge.
"""

import math
import random

import numpy as np
import pytest

from repro.dynamics import BatteryModel, BoundedDoubleIntegrator, ControlCommand, DroneState
from repro.geometry import AABB, Vec3, Workspace, grid_city_workspace
from repro.simulation import (
    BatterySensor,
    DronePlant,
    PlantChannel,
    PlantEnvironment,
    RowGroupPlant,
    StateEstimator,
    plantenv,
    surveillance_city,
)
from repro.testing import scenario_factory

from .test_plant_gates import SUBSTEPS, ExactPlant, _features, _walk


def _plants(workspace, K, seed=0):
    rng = np.random.default_rng(seed)
    starts = rng.uniform([2, 2, 1.0], [20, 20, 6.0], size=(K, 3))
    charges = rng.uniform(0.05, 1.0, size=K)
    model = BoundedDoubleIntegrator()
    battery = BatteryModel()
    return [
        DronePlant(
            model,
            workspace,
            battery_model=battery,
            initial_state=DroneState(position=Vec3(*row)),
            initial_charge=charge,
        )
        for row, charge in zip(starts, charges)
    ]


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


class TestRowGroupPlant:
    @pytest.mark.parametrize("K", [1, 3, 32])
    def test_step_window_bit_identical_to_scalar_loops(self, K):
        workspace = surveillance_city().workspace
        batch_plants = _plants(workspace, K, seed=7)
        scalar_plants = _plants(workspace, K, seed=7)
        group = RowGroupPlant(batch_plants)
        rng = np.random.default_rng(11)
        dt = 0.05
        for window in range(40):
            duration = float(rng.choice([0.25, 0.1, 0.3]))
            commands = rng.uniform(-8.0, 8.0, size=(K, 3))
            gusts = rng.uniform(-20.0, 20.0, size=(K, 3))
            group.step_window(commands, duration, dt, gusts)
            # The scalar oracle: the same per-substep loop, plant by plant.
            remaining = duration
            while remaining > 1e-12:
                step = min(dt, remaining)
                for k, plant in enumerate(scalar_plants):
                    command = ControlCommand(acceleration=Vec3(*commands[k]))
                    plant.apply(command, step, Vec3(*gusts[k]))
                remaining -= step
            for batch, scalar in zip(batch_plants, scalar_plants):
                assert _plant_fields(batch) == _plant_fields(scalar)
        assert group.batched_substeps > 0

    def test_requires_shared_models(self):
        workspace = surveillance_city().workspace
        battery = BatteryModel()
        model = BoundedDoubleIntegrator()
        plants = [
            DronePlant(model, workspace, battery_model=battery) for _ in range(2)
        ]
        RowGroupPlant(plants)  # shared dynamics/battery instances: fine
        mismatched = [
            DronePlant(model, workspace, battery_model=battery),
            DronePlant(model, workspace, battery_model=BatteryModel()),
        ]
        with pytest.raises(ValueError, match="share"):
            RowGroupPlant(mismatched)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="at least one"):
            RowGroupPlant([])


def _advance(group, commands, steps, gusts=None):
    """One window through the kernel: gather, ``apply_window``, scatter."""
    group.load_rows()
    group.apply_window(commands, steps, gusts)
    group.store_rows()


def _window_pair(seed, K, charges_low=0.003):
    """A row group and K oracle plants from identical starts and low charges."""
    workspace = surveillance_city().workspace
    rng = np.random.default_rng(seed)
    starts = rng.uniform([2, 2, 1.0], [20, 20, 6.0], size=(K, 3))
    charges = rng.uniform(charges_low, 0.2, size=K)
    model, battery = BoundedDoubleIntegrator(), BatteryModel()

    def plants():
        return [
            DronePlant(
                model,
                workspace,
                battery_model=battery,
                initial_state=DroneState(position=Vec3(*row)),
                initial_charge=charge,
            )
            for row, charge in zip(starts, charges)
        ]

    rows = plants()
    return RowGroupPlant(rows), rows, plants(), rng


class TestApplyWindow:
    """``apply_window``: a window of substeps under fixed commands.

    The dynamics run substep by substep but the ground truth is evaluated
    once per window, so a row that collides mid-window must end exactly
    where the per-substep scalar loop froze it.
    """

    def test_matches_scalar_substeps_with_mid_window_collisions(self):
        group, rows, oracle, rng = _window_pair(seed=21, K=24)
        mid_window = 0
        for _ in range(30):
            steps = [0.05] * int(rng.integers(1, 7))
            commands = rng.uniform(-9.0, 9.0, size=(group.size, 3))
            gusts = rng.uniform(-6.0, 6.0, size=(group.size, 3))
            gusts[rng.random(group.size) < 0.3] = 0.0
            _advance(group, commands, steps, gusts)
            for k, plant in enumerate(oracle):
                command = ControlCommand(acceleration=Vec3(*commands[k]))
                for index, dt in enumerate(steps):
                    was_collided = plant.collided
                    plant.apply(command, dt, Vec3(*gusts[k]))
                    if plant.collided and not was_collided and index < len(steps) - 1:
                        mid_window += 1
            assert [_plant_fields(p) for p in rows] == [_plant_fields(p) for p in oracle]
        assert mid_window > 0
        assert any(plant.battery_failed for plant in rows)
        assert 0 < sum(plant.collided for plant in rows) < group.size

    def test_window_equals_one_window_per_substep(self):
        windowed, windowed_rows, _, rng = _window_pair(seed=5, K=16)
        stepped, stepped_rows, _, _ = _window_pair(seed=5, K=16)
        for _ in range(25):
            steps = [0.05, 0.05, 0.05, 0.05, 0.05 * rng.random()]
            commands = rng.uniform(-9.0, 9.0, size=(windowed.size, 3))
            _advance(windowed, commands, steps)
            for dt in steps:
                _advance(stepped, commands, [dt])
            assert [_plant_fields(p) for p in windowed_rows] == [
                _plant_fields(p) for p in stepped_rows
            ]
        assert any(plant.collided for plant in windowed_rows)

    def test_all_rows_frozen_still_advance_the_clock(self):
        group, rows, _, _ = _window_pair(seed=3, K=4)
        for plant in rows:
            plant.collided = True
        before = [plant.state for plant in rows]
        _advance(group, np.zeros((4, 3)), [0.05, 0.05])
        assert [plant.time for plant in rows] == [0.05 + 0.05] * 4
        assert [plant.state for plant in rows] == before
        _advance(group, np.zeros((4, 3)), [])
        assert [plant.time for plant in rows] == [0.05 + 0.05] * 4

    def test_rejects_negative_substeps(self):
        group, _, _, _ = _window_pair(seed=3, K=2)
        group.load_rows()
        with pytest.raises(ValueError, match="non-negative"):
            group.apply_window(np.zeros((2, 3)), [0.05, -0.01])

    def test_rejects_nan_substep(self):
        group, _, _, _ = _window_pair(seed=3, K=2)
        group.load_rows()
        with pytest.raises(ValueError, match="non-negative"):
            group.apply_window(np.zeros((2, 3)), [0.05, math.nan])

    def test_rejects_misshapen_commands_and_gusts(self):
        group, _, _, _ = _window_pair(seed=3, K=2)
        group.load_rows()
        with pytest.raises(ValueError, match="commands"):
            group.apply_window(np.zeros((3, 3)), [0.05])
        with pytest.raises(ValueError, match="disturbances"):
            group.apply_window(np.zeros((2, 3)), [0.05], np.zeros((2, 2)))


@pytest.mark.parametrize("margin", [0.0, 0.05])
@pytest.mark.parametrize("dt", [0.05, 0.25])
def test_window_gates_match_exact_oracle_on_grazing_walks(margin, dt):
    """The window's gated ground truth against plants that run every query.

    Rows fly the seeded grazing walks of ``test_plant_gates`` (faces,
    edges and corners of the city, walls, ceiling, ground), commands held
    for windows of 1-6 substeps; long substeps clip edges between samples.
    Two extra rows enter the bounds from outside within one substep, and
    deplete in the air and land within one window.
    """
    world = grid_city_workspace()
    world.clearance_field().densify(padding=1.0)
    oracle_world = grid_city_workspace()
    rng = random.Random(f"window/{margin}/{dt}")
    features = _features(oracle_world)
    walks = [_walk(rng, oracle_world, rng.choice(features)) for _ in range(46)]
    states = [walk[0] for walk in walks] + [
        DroneState(position=Vec3(-0.01, 12.0, 3.0), velocity=Vec3(4.0, 0.0, 0.0)),
        DroneState(position=Vec3(12.0, 30.0, 0.4)),
    ]
    charges = [walk[1] for walk in walks] + [1.0, 0.0]
    K = len(states)
    model, battery = BoundedDoubleIntegrator(), BatteryModel()
    rows = [
        DronePlant(
            model,
            world,
            battery_model=battery,
            initial_state=state,
            initial_charge=charge,
            collision_margin=margin,
        )
        for state, charge in zip(states, charges)
    ]
    group = RowGroupPlant(rows)
    plants = [
        ExactPlant(
            model,
            oracle_world,
            battery_model=battery,
            initial_state=state,
            initial_charge=charge,
            collision_margin=margin,
        )
        for state, charge in zip(states, charges)
    ]
    substep = mid_window = 0
    while substep < SUBSTEPS:
        count = min(rng.randint(1, 6), SUBSTEPS - substep)
        commands = np.zeros((K, 3))
        gusts = np.zeros((K, 3))
        for k, walk in enumerate(walks):
            commands[k] = walk[2][substep].acceleration.as_tuple()
            gusts[k] = walk[3][substep].as_tuple()
        _advance(group, commands, [dt] * count, gusts)
        for k, plant in enumerate(plants):
            for index in range(count):
                was_collided = plant.collided
                plant.apply(ControlCommand(acceleration=Vec3(*commands[k])), dt, Vec3(*gusts[k]))
                mid_window += plant.collided and not was_collided and index < count - 1
        assert [_plant_fields(p) for p in rows] == [_plant_fields(p) for p in plants]
        substep += count
    assert plants[-2].collided and plants[-1].battery_failed and not plants[-1].airborne
    assert 0 < sum(plant.collided for plant in rows) < K
    assert mid_window > 0


def test_window_keeps_the_exact_bounds_check_of_the_start():
    """Clearance ignores the floor, so a start below a raised floor is left to ``in_bounds``."""
    world = Workspace(bounds=AABB(Vec3(0.0, 0.0, 1.0), Vec3(20.0, 20.0, 10.0)))
    start = DroneState(position=Vec3(10.0, 10.0, 0.1), velocity=Vec3(0.0, 0.0, 5.0))
    model = BoundedDoubleIntegrator()
    row = DronePlant(model, world, initial_state=start)
    group = RowGroupPlant([row])
    plant = DronePlant(model, world, initial_state=start)
    _advance(group, np.zeros((1, 3)), [0.25])
    plant.apply(None, 0.25)
    assert world.in_bounds(plant.state.position)
    assert world.clearance_field().lower_bound(start.position) > row.distance_flown
    assert plant.collided and row.collided
    assert _plant_fields(row) == _plant_fields(plant)


class _ScriptedStrategy:
    """Deterministic gust picker: cycles through the menu."""

    def __init__(self):
        self.calls = 0

    def choose(self, count, label=None):
        index = self.calls % count
        self.calls += 1
        return index


class _StubEngine:
    """Just enough of the engine surface for PlantEnvironment.apply."""

    def __init__(self, commands):
        self._commands = commands
        self.inputs = []

    def read_topic(self, topic):
        return self._commands.get(topic)

    def set_input(self, topic, value):
        self.inputs.append((topic, value))


def _environment(workspace, K, seed=0):
    plants = _plants(workspace, K, seed=seed)
    channels = [
        PlantChannel(
            plant=plant,
            estimator=StateEstimator(position_noise=0.05, velocity_noise=0.05, seed=k),
            battery_sensor=BatterySensor(seed=k + 1),
            command_topic=f"cmd{k}",
            position_topic=f"pos{k}",
            battery_topic=f"bat{k}",
            label=f"drone{k}",
        )
        for k, plant in enumerate(plants)
    ]
    return PlantEnvironment(
        channels=channels,
        gust_menu=[Vec3.zero(), Vec3(25.0, 0.0, 0.0), Vec3(0.0, -25.0, 0.0)],
        period=0.25,
        physics_dt=0.05,
    )


class TestPlantEnvironment:
    def test_batch_path_identical_to_scalar_path(self, monkeypatch):
        workspace = surveillance_city().workspace
        K = 3
        scalar_env = _environment(workspace, K, seed=5)
        batch_env = _environment(workspace, K, seed=5)
        monkeypatch.setattr(plantenv, "BATCH_PLANT_MIN_ROWS", 1)  # past the economic gate
        batch_env.set_batch_plant(True)
        assert batch_env.batch_plant_active
        scalar_env.bind_strategy(_ScriptedStrategy())
        batch_env.bind_strategy(_ScriptedStrategy())
        commands = {f"cmd{k}": ControlCommand(acceleration=Vec3(2.0, -1.0, 0.5)) for k in range(K)}
        scalar_engine = _StubEngine(commands)
        batch_engine = _StubEngine(commands)
        for tick in range(12):
            until = 0.25 * tick
            scalar_env.apply(scalar_engine, until)
            batch_env.apply(batch_engine, until)
            for s_channel, b_channel in zip(scalar_env.channels, batch_env.channels):
                assert _plant_fields(s_channel.plant) == _plant_fields(b_channel.plant)
        # Published readings (noisy estimates included) must agree exactly.
        # (Value equality on float64 is bit-equality; the scalar oracle may
        # carry numpy scalars where the matrix path stores plain floats.)
        assert scalar_engine.inputs == batch_engine.inputs

    def test_batch_plant_gate_is_economic(self, monkeypatch):
        # Below BATCH_PLANT_MIN_ROWS the matrix path loses to the memoized
        # scalar loop, so an enable keeps the scalar path; a large enough
        # fleet engages the row group.
        workspace = surveillance_city().workspace
        small = _environment(workspace, 3, seed=1)
        small.set_batch_plant(True)
        assert not small.batch_plant_active
        large = _environment(workspace, plantenv.BATCH_PLANT_MIN_ROWS, seed=1)
        large.set_batch_plant(True)
        assert large.batch_plant_active
        large.set_batch_plant(False)
        assert not large.batch_plant_active
        monkeypatch.setattr(plantenv, "BATCH_PLANT_MIN_ROWS", 3)
        small.set_batch_plant(True)
        assert small.batch_plant_active

    def test_reset_is_deterministic(self):
        workspace = surveillance_city().workspace
        env = _environment(workspace, 2, seed=9)
        env.bind_strategy(_ScriptedStrategy())
        initial = [_plant_fields(channel.plant) for channel in env.channels]
        engine = _StubEngine({"cmd0": ControlCommand(acceleration=Vec3(3.0, 0.0, 0.0))})
        env.apply(engine, 1.0)
        moved = [_plant_fields(channel.plant) for channel in env.channels]
        assert moved != initial
        env.reset()
        assert [_plant_fields(channel.plant) for channel in env.channels] == initial

    def test_delta_round_trip_restores_trajectory(self):
        workspace = surveillance_city().workspace
        env = _environment(workspace, 2, seed=3)
        env.bind_strategy(_ScriptedStrategy())
        commands = {f"cmd{k}": ControlCommand(acceleration=Vec3(1.5, 1.0, 0.0)) for k in range(2)}
        engine = _StubEngine(commands)
        env.apply(engine, 0.5)
        mark = env.capture_delta_state()
        version = env.delta_version
        # Diverge, then rewind: the replayed continuation must be identical.
        env.apply(engine, 2.0)
        first = [_plant_fields(channel.plant) for channel in env.channels]
        first_inputs = [(t, repr(v)) for t, v in engine.inputs]
        env.restore_delta_state(mark)
        assert env.delta_version != version  # restore is itself a mutation
        engine.inputs.clear()
        env.apply(engine, 2.0)
        assert [_plant_fields(channel.plant) for channel in env.channels] == first
        replay_inputs = [(t, repr(v)) for t, v in engine.inputs]
        assert replay_inputs == first_inputs[-len(replay_inputs):]

    @pytest.mark.parametrize(
        "gust", [Vec3.zero(), Vec3(1.0, 0.0, 0.0)], ids=["calm", "gusty"]
    )
    def test_a_non_finite_yaw_rate_is_no_thrust_on_both_paths(self, gust, monkeypatch):
        # DronePlant.apply flies a command with a NaN yaw rate as no thrust
        # (and drains it as a hover), however finite its acceleration; the
        # row-group path must not fly the acceleration.
        monkeypatch.setattr(plantenv, "BATCH_PLANT_MIN_ROWS", 1)
        world = Workspace(bounds=AABB(Vec3(0.0, 0.0, 0.0), Vec3(20.0, 20.0, 10.0)))
        command = ControlCommand(acceleration=Vec3(3.0, 0.0, 0.0), yaw_rate=math.nan)
        plants = []
        for batch in (False, True):
            plant = DronePlant(
                BoundedDoubleIntegrator(), world, battery_model=BatteryModel(),
                initial_state=DroneState(position=Vec3(5.0, 5.0, 2.0)),
            )
            env = PlantEnvironment(
                channels=[PlantChannel(plant=plant, estimator=StateEstimator(),
                                       command_topic="cmd", position_topic="pos")],
                gust_menu=[gust], period=0.1, physics_dt=0.02,
            )
            env.set_batch_plant(batch)
            assert env.batch_plant_active == batch
            env.bind_strategy(_ScriptedStrategy())
            engine = _StubEngine({"cmd": command})
            env.apply(engine, 0.0)  # picks the window's gust
            env.apply(engine, 0.1)  # five 0.02-s substeps under the command
            plants.append(plant)
        scalar, row = plants
        assert _plant_fields(row) == _plant_fields(scalar)
        assert row.time == pytest.approx(0.1)
        assert row.state.position == Vec3(5.0, 5.0, 2.0)
        assert round(row.battery.charge, 5) == 0.99992


class TestTimingValidation:
    """Non-finite timing would freeze every plant after t=0 (or fail mid-run)."""

    @pytest.mark.parametrize("field", ["period", "physics_dt"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf, 0.0, -0.25])
    def test_rejects_non_finite_or_non_positive_timing(self, field, value):
        channels = _environment(surveillance_city().workspace, 1).channels
        with pytest.raises(ValueError, match=field):
            PlantEnvironment(channels=channels, **{field: value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_gust(self, bad):
        channels = _environment(surveillance_city().workspace, 1).channels
        with pytest.raises(ValueError, match=r"gust_menu\[1\]"):
            PlantEnvironment(channels=channels, gust_menu=[Vec3.zero(), Vec3(0.0, bad, 0.0)])

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"environment_period": math.inf}, "period"),
            ({"environment_period": math.nan}, "period"),
            ({"physics_dt": math.nan}, "physics_dt"),
            ({"gust_strength": math.nan}, "gust_menu"),
        ],
    )
    def test_plant_surveillance_rejects_non_finite_overrides(self, override, field):
        factory = scenario_factory("plant-surveillance", unsafe_start=True, horizon=2.0, **override)
        with pytest.raises(ValueError, match=field):
            factory()
