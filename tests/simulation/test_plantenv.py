"""``PlantEnvironment``: the scalar plant loop as a tester environment.

Every tester integrates a plant-in-the-loop scenario through one loop —
``DronePlant.apply`` per vehicle and physics substep.  These tests pin
what the environment adds around that loop: deterministic resets,
delta-snapshot round trips, how a non-finite command flies, and the
validation of its timing and gust menu — and that its windows fly
exactly the literal per-substep loop, compared with ``==`` after every
window, through gusts, collisions (mid-window ones included), grazing
walks along the city's faces, edges and corners, and battery discharge.
"""

import math
import random

import numpy as np
import pytest

from repro.dynamics import BatteryModel, BoundedDoubleIntegrator, ControlCommand, DroneState
from repro.geometry import AABB, Vec3, Workspace, grid_city_workspace
from repro.simulation import (
    MIN_STEP,
    BatterySensor,
    DronePlant,
    PlantChannel,
    PlantEnvironment,
    StateEstimator,
    surveillance_city,
)
from repro.simulation.plantenv import integrate
from repro.testing import scenario_factory

from .test_plant_gates import SUBSTEPS, ExactPlant, _features, _walk


def _plants(workspace, K, seed=0, charges=(0.05, 1.0)):
    rng = np.random.default_rng(seed)
    starts = rng.uniform([2, 2, 1.0], [20, 20, 6.0], size=(K, 3))
    charges = rng.uniform(*charges, size=K)
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


def _environment(workspace, K, seed=0, charges=(0.05, 1.0), period=0.25, physics_dt=0.05):
    plants = _plants(workspace, K, seed=seed, charges=charges)
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
        period=period,
        physics_dt=physics_dt,
    )


class _RecordingStrategy:
    """Seeded random gust picker that remembers its picks."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.picks = []

    def choose(self, count, label=None):
        index = self._rng.randrange(count)
        self.picks.append(index)
        return index


def _fly_windows(env, twin, windows, seed):
    """Fly ``env`` window by window and ``twin``'s channels by the literal loop.

    Every window gets fresh random commands.  ``twin`` is an identically
    built environment whose ``apply`` is never called: its plants take
    one ``apply`` per substep under the command read at the window's end
    and the gust picked at its start, and its channels publish after
    each window.  Asserts field equality after every window and returns
    the twin's board and its number of mid-window collisions.
    """
    rng = np.random.default_rng(seed)
    strategy = _RecordingStrategy(seed)
    env.bind_strategy(strategy)
    K = len(env.channels)
    commands, expected = {}, {}
    engine, oracle = _StubEngine(commands), _StubEngine(expected)
    gusts = [Vec3.zero()] * K
    previous = now = 0.0
    mid_window = 0
    for _ in range(windows):
        for channel in env.channels:
            commands[channel.command_topic] = ControlCommand(
                acceleration=Vec3(*rng.uniform(-9.0, 9.0, size=3))
            )
        env.apply(engine, now)
        held = [commands[channel.command_topic] for channel in twin.channels]
        t = previous
        while t < now - 1e-12:
            step = min(twin.physics_dt, now - t)
            t += step
            for channel, command, gust in zip(twin.channels, held, gusts):
                was_collided = channel.plant.collided
                channel.plant.apply(command, step, gust)
                mid_window += channel.plant.collided and not was_collided and t < now - 1e-12
        gusts = [twin.gust_menu[index] for index in strategy.picks[-K:]]
        for channel in twin.channels:
            channel.publish(oracle)
        assert [_plant_fields(c.plant) for c in env.channels] == [
            _plant_fields(c.plant) for c in twin.channels
        ]
        previous, now = now, now + twin.period
    assert engine.inputs == oracle.inputs
    return oracle, mid_window


class TestScalarLoop:
    @pytest.mark.parametrize("K", [1, 3, 32])
    def test_windows_match_literal_substep_loops(self, K):
        workspace = surveillance_city().workspace
        env = _environment(workspace, K, seed=7)
        twin = _environment(workspace, K, seed=7)
        board, _ = _fly_windows(env, twin, windows=16, seed=11)
        # Every channel published a state and a battery reading per sample.
        assert len(board.inputs) == 16 * 2 * K

    def test_a_vehicle_that_collides_mid_window_stops_where_it_hit(self):
        # Six 0.05-s substeps per window, low charges and strong gusts:
        # vehicles hit buildings between samples and run flat in the air.
        workspace = surveillance_city().workspace
        env = _environment(workspace, 24, seed=21, charges=(0.003, 0.2), period=0.3)
        twin = _environment(workspace, 24, seed=21, charges=(0.003, 0.2), period=0.3)
        _, mid_window = _fly_windows(env, twin, windows=30, seed=5)
        plants = [channel.plant for channel in env.channels]
        assert mid_window > 0
        assert any(plant.battery_failed for plant in plants)
        assert 0 < sum(plant.collided for plant in plants) < len(plants)

    def test_collided_vehicles_still_advance_the_clock(self):
        env = _environment(surveillance_city().workspace, 4, seed=3)
        env.bind_strategy(_ScriptedStrategy())
        plants = [channel.plant for channel in env.channels]
        for plant in plants:
            plant.collided = True
        before = [(plant.state, plant.battery, plant.distance_flown) for plant in plants]
        engine = _StubEngine({"cmd0": ControlCommand(acceleration=Vec3(5.0, 0.0, 0.0))})
        env.apply(engine, 0.5)
        assert [plant.time for plant in plants] == [pytest.approx(0.5)] * 4
        assert [(plant.state, plant.battery, plant.distance_flown) for plant in plants] == before
        assert len(engine.inputs) == 3 * 2 * 4  # samples at 0, 0.25 and 0.5

    @pytest.mark.parametrize("stride", [0.05, 0.25, 0.7])
    def test_applying_in_pieces_equals_applying_at_once(self, stride):
        workspace = surveillance_city().workspace
        commands = {f"cmd{k}": ControlCommand(acceleration=Vec3(2.0, -1.0, 0.5)) for k in range(3)}
        whole, pieces = _environment(workspace, 3, seed=5), _environment(workspace, 3, seed=5)
        whole_engine, pieces_engine = _StubEngine(commands), _StubEngine(commands)
        whole.bind_strategy(_ScriptedStrategy())
        pieces.bind_strategy(_ScriptedStrategy())
        whole.apply(whole_engine, 3.0)
        until = 0.0
        while until < 3.0:
            until = min(until + stride, 3.0)
            pieces.apply(pieces_engine, until)
        assert [_plant_fields(c.plant) for c in pieces.channels] == [
            _plant_fields(c.plant) for c in whole.channels
        ]
        assert pieces_engine.inputs == whole_engine.inputs

    @pytest.mark.parametrize(
        "physics_dt, substeps", [(0.05, 5), (0.1, 3), (0.07, 4), (0.25, 1), (1.0, 1)]
    )
    def test_a_window_splits_into_physics_substeps(self, physics_dt, substeps):
        env = _environment(surveillance_city().workspace, 2, physics_dt=physics_dt)
        steps = {channel.label: [] for channel in env.channels}
        for channel in env.channels:
            apply = channel.plant.apply

            def recording(command, dt, gust, apply=apply, log=steps[channel.label]):
                log.append(dt)
                apply(command, dt, gust)

            channel.plant.apply = recording
        engine = _StubEngine({})
        env.apply(engine, 0.0)
        assert steps == {"drone0": [], "drone1": []}  # nothing to integrate at t=0
        env.apply(engine, 0.25)
        for log in steps.values():
            assert len(log) == substeps
            assert all(0.0 < dt <= physics_dt for dt in log)
            assert sum(log) == pytest.approx(0.25)


class _LoggingPlant:
    """Records every ``apply`` call into a log shared by all channels."""

    def __init__(self, label, log):
        self.label = label
        self.log = log

    def apply(self, command, dt, gust):
        self.log.append((self.label, command, dt, gust))


class _CountingEngine(_StubEngine):
    def __init__(self, commands):
        super().__init__(commands)
        self.reads = []

    def read_topic(self, topic):
        self.reads.append(topic)
        return super().read_topic(topic)


def _logging_channels(K):
    log = []
    channels = [
        PlantChannel(
            plant=_LoggingPlant(f"drone{k}", log),
            estimator=None,
            command_topic=f"cmd{k}",
            position_topic=f"pos{k}",
            label=f"drone{k}",
        )
        for k in range(K)
    ]
    return channels, log


class TestIntegrate:
    """The one substep kernel both drivers call, against logging plants."""

    @pytest.mark.parametrize("start, until", [(0.0, 0.0), (1.5, 1.5), (1.0, 1.0 + 1e-13)])
    def test_an_empty_interval_flies_nothing(self, start, until):
        channels, log = _logging_channels(2)
        integrate(channels, _StubEngine({}), [Vec3.zero()] * 2, start, until, 0.05)
        assert log == []

    @pytest.mark.parametrize(
        "start, until, physics_dt, steps",
        [
            (0.0, 0.25, 0.1, [0.1, 0.1, 0.05]),
            (1.0, 1.03, 0.05, [0.03]),
            (0.5, 0.7, 0.1, [0.1, 0.1]),
        ],
    )
    def test_the_last_substep_is_shortened_to_land_on_until(self, start, until, physics_dt, steps):
        channels, log = _logging_channels(1)
        integrate(channels, _StubEngine({}), [Vec3.zero()], start, until, physics_dt)
        assert [dt for _, _, dt, _ in log] == pytest.approx(steps)
        assert start + sum(dt for _, _, dt, _ in log) == pytest.approx(until)

    def test_plants_fly_in_channel_order_within_each_substep(self):
        channels, log = _logging_channels(3)
        integrate(channels, _StubEngine({}), [Vec3.zero()] * 3, 0.0, 0.1, 0.05)
        assert [label for label, _, _, _ in log] == ["drone0", "drone1", "drone2"] * 2

    def test_each_command_is_read_once_and_held_for_the_interval(self):
        commands = {
            "cmd0": ControlCommand(acceleration=Vec3(1.0, 0.0, 0.0)),
            "cmd1": ControlCommand(acceleration=Vec3(0.0, 2.0, 0.0)),
        }
        engine = _CountingEngine(commands)
        channels, log = _logging_channels(2)
        integrate(channels, engine, [Vec3.zero()] * 2, 0.0, 0.2, 0.05)
        assert engine.reads == ["cmd0", "cmd1"]
        assert len(log) == 8
        for label, command, _, _ in log:
            assert command is commands["cmd" + label[-1]]

    def test_each_vehicle_flies_its_own_gust_and_a_non_command_as_no_thrust(self):
        gusts = [Vec3(3.0, 0.0, 0.0), Vec3(0.0, -1.0, 0.5)]
        channels, log = _logging_channels(2)
        engine = _StubEngine({"cmd0": "not a command"})  # cmd1 never published
        integrate(channels, engine, gusts, 0.0, 0.1, 0.05)
        assert [(label, command, gust) for label, command, _, gust in log] == [
            ("drone0", None, gusts[0]),
            ("drone1", None, gusts[1]),
        ] * 2


class _CollisionClock(ExactPlant):
    """The exact oracle plant, remembering when it collided."""

    collided_at = None

    def apply(self, command, dt, disturbance=Vec3()):
        was_collided = self.collided
        super().apply(command, dt, disturbance)
        if self.collided and not was_collided:
            self.collided_at = self.time


@pytest.mark.parametrize("margin", [0.0, 0.05])
@pytest.mark.parametrize("dt", [0.05, 0.25])
def test_environment_gates_match_exact_oracle_on_grazing_walks(margin, dt):
    """The environment's gated plants against plants that run every query.

    Channels fly the seeded grazing walks of ``test_plant_gates`` (faces,
    edges and corners of the city, walls, ceiling, ground), each window's
    command held for its four substeps; long substeps clip edges between
    samples.  Two extra channels enter the bounds from outside within one
    substep, and deplete in the air and land.
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
    model, battery = BoundedDoubleIntegrator(), BatteryModel()
    # Horizontal gusts only: an updraft could lift the flat vehicle again.
    menu = [Vec3.zero()] + [Vec3(3.0 * math.cos(a), 3.0 * math.sin(a), 0.0) for a in (0.5, 2.5, 4.5)]
    substeps = 4

    def environment(cls, workspace):
        channels = [
            PlantChannel(
                plant=cls(
                    model,
                    workspace,
                    battery_model=battery,
                    initial_state=state,
                    initial_charge=charge,
                    collision_margin=margin,
                ),
                estimator=StateEstimator(),
                command_topic=f"cmd{k}",
                position_topic=f"pos{k}",
                label=f"drone{k}",
            )
            for k, (state, charge) in enumerate(zip(states, charges))
        ]
        env = PlantEnvironment(channels, gust_menu=menu, period=substeps * dt, physics_dt=dt)
        env.bind_strategy(_RecordingStrategy(f"{margin}/{dt}"))
        return env

    gated, exact = environment(DronePlant, world), environment(_CollisionClock, oracle_world)
    commands = {}
    engine = _StubEngine(commands)
    for window in range(SUBSTEPS // substeps + 1):
        for k, walk in enumerate(walks):
            commands[f"cmd{k}"] = walk[2][min(window * substeps, SUBSTEPS - 1)]
        gated.apply(engine, window * gated.period)
        exact.apply(engine, window * exact.period)
        assert [_plant_fields(c.plant) for c in gated.channels] == [
            _plant_fields(c.plant) for c in exact.channels
        ]
    plants = [channel.plant for channel in exact.channels]
    assert plants[-2].collided and plants[-1].battery_failed and not plants[-1].airborne
    assert 0 < sum(plant.collided for plant in plants) < len(plants)
    windows = [plant.collided_at / exact.period for plant in plants if plant.collided]
    assert any(abs(w - round(w)) > 1e-6 for w in windows)  # some hit between samples


def test_a_start_below_a_raised_floor_collides_in_the_first_window():
    """Clearance ignores the floor, so a start below a raised floor is left to ``in_bounds``."""
    world = Workspace(bounds=AABB(Vec3(0.0, 0.0, 1.0), Vec3(20.0, 20.0, 10.0)))
    start = DroneState(position=Vec3(10.0, 10.0, 0.1), velocity=Vec3(0.0, 0.0, 5.0))
    model = BoundedDoubleIntegrator()
    plants = [
        cls(model, world, initial_state=start) for cls in (DronePlant, ExactPlant)
    ]
    for plant in plants:
        env = PlantEnvironment(
            [PlantChannel(plant=plant, estimator=StateEstimator(),
                          command_topic="cmd", position_topic="pos")],
            period=0.25, physics_dt=0.25,
        )
        env.apply(_StubEngine({}), 0.25)  # one 0.25-s substep with no command
    gated, exact = plants
    assert world.in_bounds(gated.state.position)
    assert world.clearance_field().lower_bound(start.position) > gated.distance_flown
    assert gated.collided and exact.collided
    assert _plant_fields(gated) == _plant_fields(exact)


class TestPlantEnvironment:
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

    def test_a_restore_rewinds_the_sensors_in_place(self):
        # Estimators and battery sensors rewind their noise streams through
        # their own hooks: the channel keeps the same objects, and the
        # readings after a restore repeat the ones after the capture.
        workspace = surveillance_city().workspace
        env = _environment(workspace, 2, seed=5)  # unbound: calm gusts
        engine = _StubEngine({})
        env.apply(engine, 0.5)
        mark = env.capture_delta_state()
        sensors = [(channel.estimator, channel.battery_sensor) for channel in env.channels]
        engine.inputs.clear()
        env.apply(engine, 1.5)
        first = [(t, repr(v)) for t, v in engine.inputs]
        env.restore_delta_state(mark)
        assert all(
            channel.estimator is estimator and channel.battery_sensor is battery
            for channel, (estimator, battery) in zip(env.channels, sensors)
        )
        engine.inputs.clear()
        env.apply(engine, 1.5)
        assert [(t, repr(v)) for t, v in engine.inputs] == first
        assert any("BatteryStatus" in value for _, value in first)

    @pytest.mark.parametrize(
        "gust", [Vec3.zero(), Vec3(1.0, 0.0, 0.0)], ids=["calm", "gusty"]
    )
    def test_a_non_finite_yaw_rate_flies_as_no_thrust(self, gust):
        # DronePlant.apply flies a command with a NaN yaw rate as no thrust
        # (and drains it as a hover), however finite its acceleration and
        # whatever the window's gust.
        world = Workspace(bounds=AABB(Vec3(0.0, 0.0, 0.0), Vec3(20.0, 20.0, 10.0)))
        command = ControlCommand(acceleration=Vec3(3.0, 0.0, 0.0), yaw_rate=math.nan)
        plant = DronePlant(
            BoundedDoubleIntegrator(), world, battery_model=BatteryModel(),
            initial_state=DroneState(position=Vec3(5.0, 5.0, 2.0)),
        )
        env = PlantEnvironment(
            channels=[PlantChannel(plant=plant, estimator=StateEstimator(),
                                   command_topic="cmd", position_topic="pos")],
            gust_menu=[gust], period=0.1, physics_dt=0.02,
        )
        env.bind_strategy(_ScriptedStrategy())
        engine = _StubEngine({"cmd": command})
        env.apply(engine, 0.0)  # picks the window's gust
        env.apply(engine, 0.1)  # five 0.02-s substeps under the command
        assert plant.time == pytest.approx(0.1)
        assert plant.state.position == Vec3(5.0, 5.0, 2.0)
        assert round(plant.battery.charge, 5) == 0.99992


class TestTimingValidation:
    """Non-finite timing would freeze every plant after t=0 (or fail mid-run),
    and a step below ``MIN_STEP`` would never finish its window."""

    @pytest.mark.parametrize("field", ["period", "physics_dt"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf, 0.0, -0.25])
    def test_rejects_non_finite_or_non_positive_timing(self, field, value):
        channels = _environment(surveillance_city().workspace, 1).channels
        with pytest.raises(ValueError, match=field):
            PlantEnvironment(channels=channels, **{field: value})

    @pytest.mark.parametrize("field", ["period", "physics_dt"])
    def test_rejects_a_step_too_small_to_advance_the_clock(self, field):
        channels = _environment(surveillance_city().workspace, 1).channels
        with pytest.raises(ValueError, match=field):
            PlantEnvironment(channels=channels, **{field: MIN_STEP / 2})
        PlantEnvironment(channels=channels, **{field: MIN_STEP})

    @pytest.mark.parametrize(
        "override, field", [("physics_dt", "physics_dt"), ("environment_period", "period")]
    )
    def test_plant_surveillance_rejects_a_vanishing_step(self, override, field):
        # 0.25 - 1e-20 == 0.25: such a window could never be integrated.
        factory = scenario_factory("plant-surveillance", horizon=0.5, **{override: 1e-20})
        with pytest.raises(ValueError, match=field):
            factory()

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
