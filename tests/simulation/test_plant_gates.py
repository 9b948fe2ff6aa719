"""The cell-bound gates of :class:`DronePlant` against the exact oracle.

``DronePlant.apply`` consults the workspace's clearance-field bound before
each exact ground-truth query and skips the query when the bound already
decides it.  These tests fly seeded random walks that graze the faces,
edges and corners of the city buildings, the lateral walls, the ceiling
and the ground, and compare the gated plant after every substep with a
test-local plant that runs ``in_obstacle``, ``segment_is_free`` and
``Workspace.clearance`` on every substep — with ``==``.
"""

import math
import random

import pytest

from repro.dynamics import (
    BatteryModel,
    BoundedDoubleIntegrator,
    ControlCommand,
    DroneState,
    DynamicsModel,
)
from repro.geometry import AABB, Vec3, Workspace, grid_city_workspace
from repro.simulation import (
    BatterySensor,
    DronePlant,
    PlantChannel,
    PlantEnvironment,
    StateEstimator,
)

WALKS = 60  # per (margin, field) combination: 240 walks in all
SUBSTEPS = 40
DT = 0.05


class ExactPlant(DronePlant):
    """The ungated plant: every substep runs every exact workspace query."""

    def apply(self, command, dt, disturbance=Vec3()):
        self.time += dt
        if self.collided:
            return
        command = command or ControlCommand.hover()
        if disturbance.norm() > 0.0:
            command = ControlCommand(
                acceleration=command.acceleration + disturbance, yaw_rate=command.yaw_rate
            )
        if self.battery.depleted and self.airborne:
            command = ControlCommand(acceleration=Vec3(0.0, 0.0, -self.model.max_acceleration))
        previous = self.state.position
        self.state = self.model.step(self.state, command, dt)
        if self.state.position.z < 0.0:
            self.state = DroneState(
                position=self.state.position.with_z(0.0),
                velocity=Vec3(self.state.velocity.x, self.state.velocity.y, 0.0),
            )
        self.distance_flown += previous.distance_to(self.state.position)
        self.battery = self.battery_model.step(self.battery, command, dt)
        if self.battery.depleted and self.airborne:
            self.battery_failed = True
        position = self.state.position
        if self.airborne and (
            self.workspace.in_obstacle(position, margin=self.collision_margin)
            or not self.workspace.in_bounds(position)
            or not self.workspace.segment_is_free(previous, position)
        ):
            self.collided = True
            self.collision_position = position
            self.state = DroneState(position=position, velocity=Vec3.zero())
        self.min_clearance = min(self.min_clearance, self.workspace.clearance(position))

    @property
    def clearance(self):
        return self.workspace.clearance(self.state.position)


class ScriptedModel(DynamicsModel):
    """Moves the plant through a fixed list of positions, one per substep."""

    max_speed = 100.0
    max_acceleration = 100.0

    def __init__(self, positions):
        self._positions = iter(positions)

    def step(self, state, command, dt):
        return DroneState(position=next(self._positions), velocity=Vec3())


class CountingWorkspace:
    """Counts the exact queries a plant sends to its workspace."""

    def __init__(self, workspace):
        self.calls = {"in_obstacle": 0, "segment_is_free": 0, "clearance": 0}
        for name in self.calls:
            setattr(workspace, name, self._counted(name, getattr(workspace, name)))

    def _counted(self, name, query):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return query(*args, **kwargs)

        return counted


def _features(workspace):
    """Points on every kind of surface a drone can graze in the city."""
    points = []
    for box in workspace.obstacles:
        lo, hi = box.lo, box.hi
        mid = box.center
        for x in (lo.x, mid.x, hi.x):
            for y in (lo.y, mid.y, hi.y):
                for z in (0.5 * hi.z, hi.z):
                    if (x, y) != (mid.x, mid.y) or z == hi.z:
                        points.append(Vec3(x, y, z))  # faces, edges, corners, roof
    bounds = workspace.bounds
    for t in (0.3, 0.7):
        points.append(Vec3(bounds.lo.x, t * bounds.hi.y, 3.0))  # lateral walls
        points.append(Vec3(bounds.hi.x, t * bounds.hi.y, 3.0))
        points.append(Vec3(t * bounds.hi.x, bounds.lo.y, 3.0))
        points.append(Vec3(t * bounds.hi.x, bounds.hi.y, 3.0))
        points.append(Vec3(t * bounds.hi.x, 0.45 * bounds.hi.y, bounds.hi.z))  # ceiling
        points.append(Vec3(0.45 * bounds.hi.x, t * bounds.hi.y, bounds.lo.z))  # ground
    return points


def _unit(rng):
    while True:
        v = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if 0.1 < v.norm() <= 1.0:
            return v.unit()


def _walk(rng, workspace, feature):
    """A free start near ``feature`` and a command sequence that grazes or hits it."""
    while True:
        start = feature + _unit(rng) * rng.uniform(0.3, 2.5)
        if start.z > 0.0 and workspace.clearance(start) > 0.0:
            break
    aim = feature + _unit(rng) * rng.uniform(0.0, 2.5) - start
    velocity = aim.unit() * rng.uniform(0.5, 4.0)
    commands = [
        ControlCommand(acceleration=aim.unit() * rng.uniform(0.0, 4.0) + _unit(rng) * rng.uniform(0.0, 6.0))
        for _ in range(SUBSTEPS)
    ]
    gusts = [Vec3() if rng.random() < 0.5 else _unit(rng) * 3.0 for _ in range(SUBSTEPS)]
    dt = rng.choice((0.02, DT, 0.25))  # long substeps can clip an edge between samples
    return DroneState(position=start, velocity=velocity), rng.uniform(0.0, 1.0), commands, gusts, dt


def _fields(plant):
    return (
        plant.time,
        plant.state,
        plant.battery,
        plant.battery_failed,
        plant.collided,
        plant.collision_position,
        plant.min_clearance,
        plant.clearance,
        plant.distance_flown,
    )


@pytest.fixture(scope="module")
def dense_city():
    workspace = grid_city_workspace()
    workspace.clearance_field().densify(padding=1.0)
    return workspace


@pytest.mark.parametrize("margin", [0.0, 0.05])
@pytest.mark.parametrize("densified", [True, False], ids=["dense", "lazy"])
def test_gated_plant_matches_exact_oracle_on_grazing_walks(margin, densified, dense_city):
    gated_world = dense_city if densified else grid_city_workspace()
    oracle_world = grid_city_workspace()
    counter = CountingWorkspace(gated_world)
    model = BoundedDoubleIntegrator()
    battery = BatteryModel()
    rng = random.Random(f"{margin}/{densified}")
    features = _features(oracle_world)
    substeps = collisions = 0
    try:
        for _ in range(WALKS):
            initial, charge, commands, gusts, dt = _walk(rng, oracle_world, rng.choice(features))
            plants = [
                cls(
                    model,
                    world,
                    battery_model=battery,
                    initial_state=initial,
                    initial_charge=charge,
                    collision_margin=margin,
                )
                for cls, world in ((DronePlant, gated_world), (ExactPlant, oracle_world))
            ]
            assert _fields(plants[0]) == _fields(plants[1])
            for command, gust in zip(commands, gusts):
                for plant in plants:
                    plant.apply(command, dt, gust)
                assert _fields(plants[0]) == _fields(plants[1])
                substeps += 1
            collisions += plants[1].collided
    finally:
        for name in counter.calls:
            del gated_world.__dict__[name]
    # Both outcomes occur, and the gates both decided and deferred.
    assert 0 < collisions < WALKS
    assert 0 < counter.calls["in_obstacle"] < substeps
    assert 0 < counter.calls["segment_is_free"] < substeps


def _fly_script(make_workspace, positions, margin=0.0):
    """Fly a gated and an exact plant through ``positions``; return both."""
    plants = []
    for cls in (DronePlant, ExactPlant):
        workspace = make_workspace()
        workspace.clearance_field().densify()
        plants.append(
            cls(
                ScriptedModel(positions[1:]),
                workspace,
                initial_state=DroneState(position=positions[0]),
                collision_margin=margin,
            )
        )
    for _ in positions[1:]:
        for plant in plants:
            plant.apply(None, DT)
        assert _fields(plants[0]) == _fields(plants[1])
    return plants


def test_obstacle_gate_covers_the_margin_at_box_corners():
    """A margin-inflated box reaches sqrt(3) * margin out at its corners.

    The box corner sits 0.045 m below a grid point on every axis, so the
    grid cell beyond it has a bound above the 0.05 m margin while its near
    corner is still inside the inflated box.
    """
    corner = 5.0 - 0.045

    def world():
        return Workspace(
            bounds=AABB(Vec3(0.0, 0.0, 0.0), Vec3(10.0, 10.0, 10.0)),
            obstacles=[AABB(Vec3(2.0, 2.0, 2.0), Vec3(corner, corner, corner))],
        )

    target = Vec3(5.00390625, 5.00390625, 5.00390625)
    gated, exact = _fly_script(world, [Vec3(6.0, 6.0, 6.0), Vec3(5.5, 5.5, 5.5), target], 0.05)
    assert 0.05 < gated.workspace.clearance_field().lower_bound(target) <= math.sqrt(3.0) * 0.05
    assert exact.collided and gated.collided
    assert gated.collision_position == target


def test_crossing_gate_needs_the_whole_step():
    """A long step clips a box although both endpoints are well clear of it."""

    def world():
        return Workspace(
            bounds=AABB(Vec3(0.0, 0.0, 0.0), Vec3(60.0, 60.0, 20.0)),
            obstacles=[AABB(Vec3(30.0, 29.0, 0.0), Vec3(32.0, 31.0, 15.0))],
        )

    start, end = Vec3(20.0, 30.0, 10.0), Vec3(34.0, 30.0, 10.0)
    gated, exact = _fly_script(world, [start, end])
    step = start.distance_to(end)
    assert step / 2 < gated.workspace.clearance_field().lower_bound(start) <= step
    assert not gated.workspace.in_obstacle(end)
    assert exact.collided and gated.collided


def test_crossing_gate_keeps_the_exact_bounds_check():
    """Clearance ignores the floor, so a raised floor is left to ``in_bounds``."""

    def world():
        return Workspace(bounds=AABB(Vec3(0.0, 0.0, 1.0), Vec3(20.0, 20.0, 10.0)))

    start, end = Vec3(10.0, 10.0, 0.1), Vec3(10.0, 10.0, 1.2)
    gated, exact = _fly_script(world, [start, end])
    assert gated.workspace.clearance_field().lower_bound(start) > start.distance_to(end)
    assert exact.collided and gated.collided


def test_obstacle_added_after_construction_still_collides():
    """A wall added across the path is seen through the field's freshness check."""
    workspaces = [grid_city_workspace(), grid_city_workspace()]
    workspaces[0].clearance_field().densify()
    start = DroneState(position=Vec3(3.0, 3.0, 3.0), velocity=Vec3(5.0, 0.0, 0.0))
    model = BoundedDoubleIntegrator()
    plants = [
        DronePlant(model, workspaces[0], initial_state=start),
        ExactPlant(model, workspaces[1], initial_state=start),
    ]
    cruise = ControlCommand(acceleration=Vec3(0.0, 0.0, 0.0))
    for plant in plants:
        plant.apply(cruise, DT)
    assert plants[0].clearance == plants[1].clearance
    # A 1 cm wall is crossed within one substep; only the segment test sees it.
    x = plants[0].state.position.x + 1.0
    for workspace in workspaces:
        workspace.add_obstacle(AABB(Vec3(x, 0.0, 0.0), Vec3(x + 0.01, 50.0, 12.0)))
    # The clearance at the unchanged position sees the wall as well.
    walled = workspaces[1].clearance(plants[1].state.position)
    assert plants[0].clearance == plants[1].clearance == walled < 1.01
    for _ in range(20):
        for plant in plants:
            plant.apply(cruise, DT)
        assert _fields(plants[0]) == _fields(plants[1])
    assert plants[0].collided
    assert plants[0].collision_position.x > x + 0.01


def test_clearance_after_restore_is_the_restored_positions():
    workspace = grid_city_workspace()
    workspace.clearance_field().densify()
    plant = DronePlant(
        BoundedDoubleIntegrator(),
        workspace,
        initial_state=DroneState(position=Vec3(3.0, 3.0, 3.0), velocity=Vec3(2.0, 2.0, 0.0)),
    )
    channel = PlantChannel(
        plant=plant,
        estimator=StateEstimator(),
        command_topic="cmd",
        position_topic="pos",
        battery_sensor=BatterySensor(),
        battery_topic="battery",
    )
    env = PlantEnvironment([channel], period=0.25, physics_dt=DT)

    class Board:
        def read_topic(self, topic):
            return ControlCommand(acceleration=Vec3(1.0, 0.5, 0.0))

        def set_input(self, topic, value):
            pass

    board = Board()
    env.reset()
    env.apply(board, 0.5)
    snapshot = env.capture_delta_state()
    restored = plant.state.position
    expected = workspace.clearance(restored)
    assert plant.clearance == expected
    env.apply(board, 2.0)
    assert plant.state.position != restored
    assert plant.clearance == workspace.clearance(plant.state.position) != expected
    env.restore_delta_state(snapshot)
    assert plant.state.position == restored
    assert plant.clearance == expected
    # A restore that carries an equal but distinct position object.
    plant.state = DroneState(position=Vec3(*restored.as_tuple()), velocity=plant.state.velocity)
    assert plant.clearance == expected
