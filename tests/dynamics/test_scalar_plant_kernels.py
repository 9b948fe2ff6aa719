"""The vehicle's scalar float kernels against their ``Vec3`` oracles.

``BoundedDoubleIntegrator.step``, ``BatteryModel.step``/``discharge_rate``,
``ReferenceTrajectory.arc_length_of_closest_point``/``point_at_fraction``/
``advance_from`` and the step length of ``DronePlant.apply`` are written
as float arithmetic.  The ``Vec3`` expressions they replaced stay the
definition: these tests rebuild each one from ``Vec3`` methods
(``clamp_norm``, ``norm``, ``closest_point_on_segment``, ``lerp``,
``distance_to``) and require the kernels to return the same floats with
``==`` (two NaNs count as equal, and a zero's sign must match too) on
seeded probes.  The probes put accelerations and speeds exactly at their
limits and one ulp either side, and include zero commands, NaN and inf
components, a NaN yaw rate with a finite acceleration, polylines with
duplicate waypoints, single-waypoint paths, and queries past both ends.

``DronePlant`` also reuses the previous substep's cell bound for the
start of the next one, keyed on the position object; a state assigned
directly (as snapshot restores do) must not inherit it.
"""

import math
import random

import pytest

from repro.dynamics import (
    BatteryModel,
    BatteryParams,
    BatteryState,
    BoundedDoubleIntegrator,
    ControlCommand,
    DoubleIntegratorParams,
    DroneState,
    LaggedQuadrotor,
)
from repro.geometry import (
    AABB,
    ReferenceTrajectory,
    Vec3,
    closest_point_on_segment,
    empty_workspace,
    grid_city_workspace,
)
from repro.simulation import DronePlant

CASES = 3000
MODELS = {
    "default": DoubleIntegratorParams(max_speed=5.0, max_acceleration=6.0, drag=0.05),
    "slow": DoubleIntegratorParams(max_speed=1.5, max_acceleration=6.0, drag=0.05),
    "no-drag": DoubleIntegratorParams(max_speed=3.0, max_acceleration=2.5, drag=0.0),
}
SPECIAL = (math.nan, math.inf, -math.inf)


# --------------------------------------------------------------------- #
# oracles: the Vec3 formulations
# --------------------------------------------------------------------- #
def oracle_command_is_finite(command):
    return all(math.isfinite(c) for c in command.acceleration) and math.isfinite(command.yaw_rate)


def oracle_step(params, state, command, dt):
    if not oracle_command_is_finite(command):
        command = ControlCommand(acceleration=Vec3(0.0, 0.0, 0.0), yaw_rate=0.0)
    accel = command.acceleration.clamp_norm(params.max_acceleration)
    drag_accel = state.velocity * (-params.drag)
    velocity = state.velocity + (accel + drag_accel) * dt
    velocity = velocity.clamp_norm(params.max_speed)
    position = state.position + (state.velocity + velocity) * (0.5 * dt)
    return DroneState(position=position, velocity=velocity)


def oracle_discharge_rate(params, command):
    # A non-finite command discharges as the hover the dynamics fly.
    if not oracle_command_is_finite(command):
        command = ControlCommand(acceleration=Vec3(0.0, 0.0, 0.0), yaw_rate=0.0)
    accel = min(command.acceleration.norm(), params.max_acceleration)
    return params.idle_rate + params.accel_rate * accel


def oracle_charge(params, charge, command, dt):
    charge = charge - oracle_discharge_rate(params, command) * dt
    return max(0.0, min(1.0, charge))


def _segments(waypoints):
    return zip(waypoints[:-1], waypoints[1:])


def oracle_length(waypoints):
    total = 0.0
    for a, b in _segments(waypoints):
        total += a.distance_to(b)
    return total


def oracle_arc_length(waypoints, point):
    if len(waypoints) == 1:
        return 0.0
    best_len = 0.0
    best_dist = math.inf
    travelled = 0.0
    for a, b in _segments(waypoints):
        candidate = closest_point_on_segment(point, a, b)
        dist = candidate.distance_to(point)
        if dist < best_dist:
            best_dist = dist
            best_len = travelled + a.distance_to(candidate)
        travelled += a.distance_to(b)
    return best_len


def oracle_point_at_fraction(waypoints, fraction):
    fraction = max(0.0, min(1.0, fraction))
    total = oracle_length(waypoints)
    if total == 0.0 or len(waypoints) == 1:
        return waypoints[0]
    target = fraction * total
    travelled = 0.0
    for a, b in _segments(waypoints):
        seg = a.distance_to(b)
        if travelled + seg >= target:
            alpha = 0.0 if seg == 0.0 else (target - travelled) / seg
            return a.lerp(b, alpha)
        travelled += seg
    return waypoints[-1]


def oracle_advance_from(waypoints, point, lookahead):
    arc_length = oracle_arc_length(waypoints, point) + lookahead
    total = oracle_length(waypoints)
    if total == 0.0:
        return waypoints[0]
    return oracle_point_at_fraction(waypoints, arc_length / total)


def same(got, expected):
    """Bit-level float equality: ``==`` with NaN == NaN and signed zeros apart."""
    if isinstance(got, (Vec3, DroneState)):
        return all(same(g, e) for g, e in zip(got.as_tuple(), expected.as_tuple()))
    if math.isnan(got) or math.isnan(expected):
        return math.isnan(got) and math.isnan(expected)
    return got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


# --------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------- #
def _near(value, rng):
    """``value`` itself or one ulp to either side."""
    return rng.choice((value, value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)))


def _direction(rng):
    while True:
        v = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if v.norm() > 1e-3:
            return v.unit()


def probe_vector(rng, limit):
    """A vector whose norm is at, near or around ``limit`` (or a special one)."""
    kind = rng.random()
    if kind < 0.25:
        # Axis-aligned: the norm is exactly the component's magnitude.
        coords = [0.0, 0.0, 0.0]
        coords[rng.randrange(3)] = rng.choice((1.0, -1.0)) * _near(limit, rng)
        return Vec3(*coords)
    if kind < 0.45:
        return _direction(rng) * _near(limit, rng)
    if kind < 0.55:
        return Vec3(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
    if kind < 0.65:
        coords = [rng.uniform(-limit, limit) for _ in range(3)]
        coords[rng.randrange(3)] = rng.choice(SPECIAL)
        return Vec3(*coords)
    return _direction(rng) * rng.uniform(0.0, 3.0 * limit)


def probe_command(rng, params):
    acceleration = probe_vector(rng, params.max_acceleration)
    yaw_rate = rng.choice((0.0, 0.3, -1.0, math.nan, math.inf)) if rng.random() < 0.2 else 0.0
    return ControlCommand(acceleration=acceleration, yaw_rate=yaw_rate)


def probe_state(rng, params):
    position = Vec3(rng.uniform(-20, 60), rng.uniform(-20, 60), rng.uniform(-1, 15))
    return DroneState(position=position, velocity=probe_vector(rng, params.max_speed))


def probe_dt(rng):
    return rng.choice((0.0, 0.05, 0.05, 0.01, 1.0 / 3.0, rng.uniform(0.0, 0.2)))


# --------------------------------------------------------------------- #
# dynamics and battery
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(MODELS))
def test_double_integrator_step_equals_the_vec3_formulation(name):
    params = MODELS[name]
    model = BoundedDoubleIntegrator(params)
    rng = random.Random(21)
    for _ in range(CASES):
        state, command, dt = probe_state(rng, params), probe_command(rng, params), probe_dt(rng)
        got = model.step(state, command, dt)
        assert same(got, oracle_step(params, state, command, dt)), (state, command, dt)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_speed_at_the_limit_and_one_ulp_either_side(name):
    # With dt == 0 (or no drag and no thrust) the new velocity is the old
    # one, so the speed clamp sees exactly the probed norm.
    params = MODELS[name]
    model = BoundedDoubleIntegrator(params)
    for axis in range(3):
        for speed in (
            params.max_speed,
            math.nextafter(params.max_speed, 0.0),
            math.nextafter(params.max_speed, math.inf),
        ):
            coords = [0.0, 0.0, 0.0]
            coords[axis] = speed
            state = DroneState(position=Vec3(1.0, 2.0, 3.0), velocity=Vec3(*coords))
            for dt in (0.0, 0.05):
                command = ControlCommand.hover()
                got = model.step(state, command, dt)
                assert same(got, oracle_step(params, state, command, dt)), (speed, dt)


def test_a_nan_yaw_rate_with_a_finite_acceleration_is_hover():
    params = MODELS["default"]
    model = BoundedDoubleIntegrator(params)
    state = DroneState(position=Vec3(5.0, 5.0, 2.0), velocity=Vec3(1.0, -0.5, 0.25))
    thrust = Vec3(3.0, 1.0, -2.0)
    for yaw_rate in (math.nan, math.inf, -math.inf):
        command = ControlCommand(acceleration=thrust, yaw_rate=yaw_rate)
        got = model.step(state, command, 0.05)
        assert same(got, model.step(state, ControlCommand.hover(), 0.05))
        assert same(got, oracle_step(params, state, command, 0.05))
        assert not same(got, model.step(state, ControlCommand(acceleration=thrust), 0.05))


@pytest.mark.parametrize("limit", (6.0, 2.5))
def test_battery_step_and_rate_equal_the_vec3_formulation(limit):
    params = BatteryParams(max_acceleration=limit)
    model = BatteryModel(params)
    rng = random.Random(22)
    for _ in range(CASES):
        command = ControlCommand(acceleration=probe_vector(rng, limit))
        charge = rng.choice((0.0, 1.0, 1e-6, rng.random()))
        dt = probe_dt(rng)
        assert same(model.discharge_rate(command), oracle_discharge_rate(params, command)), command
        got = model.step(BatteryState(charge=charge), command, dt).charge
        assert same(got, oracle_charge(params, charge, command, dt)), (command, charge, dt)
        assert same(model.cost(command, dt), oracle_discharge_rate(params, command) * dt)


# --------------------------------------------------------------------- #
# the carrot query
# --------------------------------------------------------------------- #
def probe_polyline(rng):
    kind = rng.random()
    if kind < 0.1:
        return [Vec3(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 10))]
    count = rng.randint(2, 9)
    points = [Vec3(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 10)) for _ in range(count)]
    if kind < 0.5:
        # Duplicate waypoints: zero-length segments, some back to back.
        for _ in range(rng.randint(1, 3)):
            index = rng.randrange(len(points))
            points[index:index] = [points[index]] * rng.randint(1, 2)
    if kind > 0.9:
        points = [points[0]] * count  # every segment has zero length
    return points


def probe_query_point(rng, waypoints):
    kind = rng.random()
    if kind < 0.2:
        return rng.choice(waypoints)
    if kind < 0.4:
        # Past either end of the path.
        end, inner = rng.choice(((waypoints[0], waypoints[-1]), (waypoints[-1], waypoints[0])))
        return end + (end - inner) * rng.uniform(0.0, 2.0) + Vec3(0.0, 0.0, rng.uniform(-1.0, 1.0))
    if kind < 0.45:
        coords = [rng.uniform(0, 50) for _ in range(3)]
        coords[rng.randrange(3)] = rng.choice(SPECIAL)
        return Vec3(*coords)
    return Vec3(rng.uniform(-10, 60), rng.uniform(-10, 60), rng.uniform(-2, 12))


def test_carrot_queries_equal_the_segment_loop():
    rng = random.Random(23)
    for _ in range(CASES):
        waypoints = probe_polyline(rng)
        path = ReferenceTrajectory.from_waypoints(waypoints)
        assert same(path.length(), oracle_length(waypoints))
        point = probe_query_point(rng, waypoints)
        assert same(path.arc_length_of_closest_point(point), oracle_arc_length(waypoints, point)), (
            waypoints,
            point,
        )
        fraction = rng.choice((-0.5, 0.0, 1.0, 1.5, math.nan, _near(1.0, rng), rng.random()))
        assert same(path.point_at_fraction(fraction), oracle_point_at_fraction(waypoints, fraction)), (
            waypoints,
            fraction,
        )
        lookahead = rng.choice((0.0, 0.5, 3.0, 1e3, rng.uniform(0.0, 10.0)))
        assert same(path.advance_from(point, lookahead), oracle_advance_from(waypoints, point, lookahead)), (
            waypoints,
            point,
            lookahead,
        )


# --------------------------------------------------------------------- #
# non-finite or negative dt
# --------------------------------------------------------------------- #
def _plant():
    workspace = empty_workspace()
    return DronePlant(
        BoundedDoubleIntegrator(),
        workspace,
        initial_state=DroneState(position=Vec3(5.0, 5.0, 2.0), velocity=Vec3(1.0, 0.0, 0.0)),
    )


@pytest.mark.parametrize("dt", (math.nan, -0.05, -math.inf))
def test_plant_apply_rejects_a_bad_dt_before_mutating(dt):
    plant = _plant()
    plant.apply(ControlCommand(acceleration=Vec3(1.0, 0.0, 0.0)), 0.05)
    time, state, battery = plant.time, plant.state, plant.battery
    flown, clearance = plant.distance_flown, plant.min_clearance
    with pytest.raises(ValueError, match="dt must be non-negative"):
        plant.apply(ControlCommand(acceleration=Vec3(1.0, 0.0, 0.0)), dt)
    assert plant.time == time and plant.state is state and plant.battery is battery
    assert plant.distance_flown == flown and plant.min_clearance == clearance


@pytest.mark.parametrize("dt", (math.nan, -0.05))
def test_model_steps_reject_a_bad_dt(dt):
    state = DroneState(position=Vec3(1.0, 1.0, 1.0))
    rows = [[0.0, 0.0, 0.0]]
    for model in (BoundedDoubleIntegrator(), LaggedQuadrotor()):
        with pytest.raises(ValueError, match="dt must be non-negative"):
            model.step(state, ControlCommand.hover(), dt)
        with pytest.raises(ValueError, match="dt must be non-negative"):
            model.step_batch(rows, rows, rows, dt)
    battery = BatteryModel()
    with pytest.raises(ValueError, match="dt must be non-negative"):
        battery.step(BatteryState(), ControlCommand.hover(), dt)
    with pytest.raises(ValueError, match="dt must be non-negative"):
        battery.step_batch([1.0], rows, dt)


# --------------------------------------------------------------------- #
# the reused cell bound
# --------------------------------------------------------------------- #
def _wall_world():
    """An empty room with a 0.1 m wall across x = 10: a 5 m/s substep jumps it."""
    workspace = empty_workspace()
    workspace.add_obstacle(AABB(Vec3(10.0, 0.0, 0.0), Vec3(10.1, 20.0, 10.0)))
    return workspace


def _fields(plant):
    return (
        plant.time,
        plant.state,
        plant.battery,
        plant.collided,
        plant.collision_position,
        plant.distance_flown,
        plant.min_clearance,
    )


def test_an_assigned_state_gates_collisions_like_a_fresh_plant():
    # The restored plant's last substep ended far from the wall, where the
    # cell bound exceeds a substep's length.  Reusing that bound for the
    # restored start would let the jump across the wall go unnoticed.
    jump = DroneState(position=Vec3(9.95, 10.0, 3.0), velocity=Vec3(5.0, 0.0, 0.0))
    push = ControlCommand(acceleration=Vec3(6.0, 0.0, 0.0))
    model = BoundedDoubleIntegrator()
    restored = DronePlant(model, _wall_world(), initial_state=DroneState(position=Vec3(3.0, 10.0, 3.0)))
    for _ in range(5):
        restored.apply(ControlCommand.hover(), 0.05)
    field = restored.workspace.clearance_field()
    assert field.lower_bound(restored.state.position) > 0.26
    fresh = DronePlant(model, _wall_world(), initial_state=jump)
    (
        restored.time,
        restored.state,
        restored.battery,
        restored.distance_flown,
        restored.min_clearance,
    ) = (fresh.time, fresh.state, fresh.battery, fresh.distance_flown, fresh.min_clearance)
    for _ in range(3):
        restored.apply(push, 0.05)
        fresh.apply(push, 0.05)
        assert _fields(restored) == _fields(fresh)
    assert fresh.collided and restored.collided


def test_a_restored_snapshot_replays_its_substeps_bit_for_bit():
    workspace = grid_city_workspace()
    model = BoundedDoubleIntegrator()
    start = DroneState(position=Vec3(2.0, 2.0, 3.0), velocity=Vec3(0.0, 0.0, 0.0))
    plant = DronePlant(model, workspace, initial_state=start)
    rng = random.Random(24)
    commands = [ControlCommand(acceleration=_direction(rng) * 6.0) for _ in range(120)]
    for command in commands[:40]:
        plant.apply(command, 0.05)
    snapshot = _fields(plant) + (plant.battery_failed,)
    history = []
    for command in commands[40:]:
        plant.apply(command, 0.05)
        history.append(_fields(plant))
    (
        plant.time,
        plant.state,
        plant.battery,
        plant.collided,
        plant.collision_position,
        plant.distance_flown,
        plant.min_clearance,
        plant.battery_failed,
    ) = snapshot
    for command, expected in zip(commands[40:], history):
        plant.apply(command, 0.05)
        assert _fields(plant) == expected


def test_a_new_obstacle_invalidates_the_reused_bound():
    workspace = empty_workspace()
    model = BoundedDoubleIntegrator()
    start = DroneState(position=Vec3(8.0, 10.0, 3.0), velocity=Vec3(5.0, 0.0, 0.0))
    plant = DronePlant(model, workspace, initial_state=start)
    push = ControlCommand(acceleration=Vec3(6.0, 0.0, 0.0))
    while plant.state.position.x < 9.9:
        plant.apply(push, 0.05)
    # The wall appears just ahead of the drone between two substeps.
    x = plant.state.position.x + 0.05
    workspace.add_obstacle(AABB(Vec3(x, 0.0, 0.0), Vec3(x + 0.1, 20.0, 10.0)))
    plant.apply(push, 0.05)
    assert plant.collided
