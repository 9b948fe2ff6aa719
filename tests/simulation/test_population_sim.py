"""``PopulationSimulation`` vs a loop of real ``DronePlant`` instances.

The matrix plant promises per-row *bit-identity* with
:meth:`DronePlant.apply` — the same floating-point expressions in the same
order, with diverged rows (collided, battery-depleted, grounded) carried by
masks instead of control flow.  The oracle here is the literal scalar
plant: K missions integrated twice, once as one ``(K, …)`` population and
once as K independent plants, compared with ``==`` after hundreds of ticks
that exercise collisions, depletion free-fall, ground clamping and
waypoint advancement.
"""

import random

import numpy as np
import pytest

from repro.control import AggressiveTracker
from repro.dynamics import BatteryModel, BoundedDoubleIntegrator, ControlCommand, DroneState
from repro.geometry import AABB, Vec3, Workspace, grid_city_workspace
from repro.simulation import DronePlant, PopulationSimulation, surveillance_city

from .test_plant_gates import SUBSTEPS, ExactPlant, _features, _walk


def _random_missions(seed, K, W):
    rng = np.random.default_rng(seed)
    starts = rng.uniform([2, 2, 1.0], [20, 20, 6.0], size=(K, 3))
    waypoints = rng.uniform([1, 1, 0.5], [24, 24, 8.0], size=(K, W, 3))
    charges = rng.uniform(0.003, 1.0, size=K)
    return starts, waypoints, charges


def _scalar_plants(workspace, starts, charges):
    return [
        DronePlant(
            BoundedDoubleIntegrator(),
            workspace,
            battery_model=BatteryModel(),
            initial_state=DroneState(position=Vec3(*row)),
            initial_charge=charge,
        )
        for row, charge in zip(starts, charges)
    ]


def _step_scalar_oracle(plants, tracker, waypoints, indices, tolerance, dt):
    """One tick of K scalar plants, mirroring PopulationSimulation.step."""
    W = waypoints.shape[1]
    for k, plant in enumerate(plants):
        target = Vec3(*waypoints[k][indices[k]])
        if plant.state.position.distance_to(target) < tolerance and indices[k] < W - 1:
            indices[k] += 1
            target = Vec3(*waypoints[k][indices[k]])
        command = tracker.command(plant.state, target, plant.time)
        plant.apply(command, dt)


def _assert_rows_match(population, plants, indices):
    for k, plant in enumerate(plants):
        assert (np.array(plant.state.position.as_tuple()) == population.positions[k]).all()
        assert (np.array(plant.state.velocity.as_tuple()) == population.velocities[k]).all()
        assert plant.battery.charge == population.charges[k]
        assert plant.collided == population.collided[k]
        assert plant.battery_failed == population.battery_failed[k]
        assert plant.distance_flown == population.distance_flown[k]
        assert plant.min_clearance == population.min_clearance[k]
        assert indices[k] == population.waypoint_index[k]
        assert plant.crashed == population.crashed[k]
        assert plant.airborne == population.airborne[k]


class TestPopulationVsScalarPlants:
    def test_bit_identical_to_scalar_plant_loop(self):
        workspace = surveillance_city().workspace
        tracker = AggressiveTracker()
        starts, waypoints, charges = _random_missions(3, K=32, W=4)
        # One row starts airborne with a dead battery: the free-fall branch
        # and the battery_failed latch must fire (and match the oracle).
        charges[0] = 0.0
        population = PopulationSimulation(
            BoundedDoubleIntegrator(),
            workspace,
            tracker,
            waypoints,
            starts,
            initial_charges=charges,
            battery_model=BatteryModel(),
        )
        plants = _scalar_plants(workspace, starts, charges)
        indices = [0] * population.size
        dt = 0.02
        for _ in range(400):
            _step_scalar_oracle(
                plants, tracker, waypoints, indices, population.waypoint_tolerance, dt
            )
            population.step(dt)
        _assert_rows_match(population, plants, indices)
        # The sweep must actually exercise the divergence masks: some rows
        # collide with the city, some deplete, some keep flying.
        assert 0 < population.collided.sum() < population.size
        assert population.battery_failed.any()
        status = population.status()
        assert status.any_crashed
        assert (status.crashed == (population.collided | population.battery_failed)).all()

    def test_disturbance_rows_match_scalar(self):
        workspace = surveillance_city().workspace
        tracker = AggressiveTracker()
        starts, waypoints, charges = _random_missions(11, K=8, W=3)
        population = PopulationSimulation(
            BoundedDoubleIntegrator(),
            workspace,
            tracker,
            waypoints,
            starts,
            initial_charges=charges,
            battery_model=BatteryModel(),
        )
        plants = _scalar_plants(workspace, starts, charges)
        indices = [0] * population.size
        wind = Vec3(0.4, -0.2, 0.1)
        dt = 0.05
        for _ in range(120):
            W = waypoints.shape[1]
            for k, plant in enumerate(plants):
                target = Vec3(*waypoints[k][indices[k]])
                if (
                    plant.state.position.distance_to(target) < population.waypoint_tolerance
                    and indices[k] < W - 1
                ):
                    indices[k] += 1
                    target = Vec3(*waypoints[k][indices[k]])
                command = tracker.command(plant.state, target, plant.time)
                plant.apply(command, dt, disturbance=wind)
            population.step(dt, disturbance=wind)
        _assert_rows_match(population, plants, indices)

    def test_reset_rewinds_every_row(self):
        workspace = surveillance_city().workspace
        starts, waypoints, charges = _random_missions(5, K=6, W=3)
        population = PopulationSimulation(
            BoundedDoubleIntegrator(),
            workspace,
            AggressiveTracker(),
            waypoints,
            starts,
            initial_charges=charges,
        )
        first = population.run(3.0)
        population.reset()
        assert population.time == 0.0
        assert (population.positions == starts).all()
        assert (population.velocities == 0.0).all()
        assert (population.charges == charges).all()
        assert not population.collided.any()
        assert (population.waypoint_index == 0).all()
        # Rerunning after reset reproduces the first sweep exactly.
        second = population.run(3.0)
        assert (first.positions == second.positions).all()
        assert (first.velocities == second.velocities).all()
        assert (first.charges == second.charges).all()
        assert (first.collided == second.collided).all()
        assert (first.min_clearance == second.min_clearance).all()

    def test_constructor_validates_shapes(self):
        workspace = surveillance_city().workspace
        tracker = AggressiveTracker()
        model = BoundedDoubleIntegrator()
        good = np.zeros((4, 3, 3))
        with pytest.raises(ValueError, match=r"\(K, W, 3\)"):
            PopulationSimulation(model, workspace, tracker, np.zeros((4, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="one row per mission"):
            PopulationSimulation(model, workspace, tracker, good, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="one row per mission"):
            PopulationSimulation(
                model, workspace, tracker, good, np.zeros((4, 3)),
                initial_velocities=np.zeros((2, 3)),
            )

    def test_step_and_run_validate_dt(self):
        workspace = surveillance_city().workspace
        population = PopulationSimulation(
            BoundedDoubleIntegrator(),
            workspace,
            AggressiveTracker(),
            np.full((2, 2, 3), 5.0),
            np.full((2, 3), 4.0),
        )
        with pytest.raises(ValueError):
            population.step(-0.01)
        with pytest.raises(ValueError):
            population.run(1.0, dt=0.0)


class TestApplyWindow:
    """``apply_window``: a window of substeps under fixed commands.

    The dynamics run substep by substep but the ground truth is evaluated
    once per window, so a row that collides mid-window must end exactly
    where the per-substep scalar loop froze it.
    """

    @staticmethod
    def _window_pair(seed, K, charges_low=0.003):
        workspace = surveillance_city().workspace
        rng = np.random.default_rng(seed)
        starts = rng.uniform([2, 2, 1.0], [20, 20, 6.0], size=(K, 3))
        charges = rng.uniform(charges_low, 0.2, size=K)
        population = PopulationSimulation(
            BoundedDoubleIntegrator(),
            workspace,
            None,
            np.zeros((K, 1, 3)),
            starts,
            initial_charges=charges,
            battery_model=BatteryModel(),
        )
        return population, _scalar_plants(workspace, starts, charges), rng

    def test_matches_scalar_substeps_with_mid_window_collisions(self):
        population, plants, rng = self._window_pair(seed=21, K=24)
        mid_window = 0
        for _ in range(30):
            steps = [0.05] * int(rng.integers(1, 7))
            commands = rng.uniform(-9.0, 9.0, size=(population.size, 3))
            gusts = rng.uniform(-6.0, 6.0, size=(population.size, 3))
            gusts[rng.random(population.size) < 0.3] = 0.0
            population.apply_window(commands, steps, gusts)
            for k, plant in enumerate(plants):
                command = ControlCommand(acceleration=Vec3(*commands[k]))
                for index, dt in enumerate(steps):
                    was_collided = plant.collided
                    plant.apply(command, dt, Vec3(*gusts[k]))
                    if plant.collided and not was_collided and index < len(steps) - 1:
                        mid_window += 1
            _assert_rows_match(population, plants, [0] * population.size)
            for k, plant in enumerate(plants):
                assert plant.time == population.time
                expected = plant.collision_position
                recorded = population.collision_positions[k]
                if expected is None:
                    assert np.isnan(recorded).all()
                else:
                    assert (np.array(expected.as_tuple()) == recorded).all()
        assert mid_window > 0
        assert population.battery_failed.any()
        assert 0 < population.collided.sum() < population.size

    def test_window_equals_one_apply_batch_per_substep(self):
        windowed, _, rng = self._window_pair(seed=5, K=16)
        stepped, _, _ = self._window_pair(seed=5, K=16)
        for _ in range(25):
            steps = [0.05, 0.05, 0.05, 0.05, 0.05 * rng.random()]
            commands = rng.uniform(-9.0, 9.0, size=(windowed.size, 3))
            windowed.apply_window(commands, steps)
            for dt in steps:
                stepped.apply_batch(commands, dt)
            for field in ("positions", "velocities", "charges", "collided",
                          "battery_failed", "distance_flown", "min_clearance"):
                assert (getattr(windowed, field) == getattr(stepped, field)).all(), field
            assert windowed.time == stepped.time
        assert windowed.collided.any()

    def test_all_rows_frozen_still_advance_the_clock(self):
        population, _, _ = self._window_pair(seed=3, K=4)
        population.collided[:] = True
        before = population.positions.copy()
        population.apply_window(np.zeros((4, 3)), [0.05, 0.05])
        assert population.time == 0.05 + 0.05
        assert (population.positions == before).all()
        population.apply_window(np.zeros((4, 3)), [])
        assert population.time == 0.05 + 0.05

    def test_rejects_negative_substeps(self):
        population, _, _ = self._window_pair(seed=3, K=2)
        with pytest.raises(ValueError):
            population.apply_window(np.zeros((2, 3)), [0.05, -0.01])


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
    population = PopulationSimulation(
        model,
        world,
        None,
        np.zeros((K, 1, 3)),
        [state.position.as_tuple() for state in states],
        initial_velocities=[state.velocity.as_tuple() for state in states],
        initial_charges=charges,
        battery_model=battery,
        collision_margin=margin,
    )
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
        population.apply_window(commands, [dt] * count, gusts)
        for k, plant in enumerate(plants):
            for index in range(count):
                was_collided = plant.collided
                plant.apply(ControlCommand(acceleration=Vec3(*commands[k])), dt, Vec3(*gusts[k]))
                mid_window += plant.collided and not was_collided and index < count - 1
        _assert_rows_match(population, plants, [0] * K)
        for k, plant in enumerate(plants):
            expected = plant.collision_position
            recorded = population.collision_positions[k]
            if expected is None:
                assert np.isnan(recorded).all()
            else:
                assert (np.array(expected.as_tuple()) == recorded).all()
        substep += count
    assert plants[-2].collided and plants[-1].battery_failed and not plants[-1].airborne
    assert 0 < population.collided.sum() < K
    assert mid_window > 0


def test_window_keeps_the_exact_bounds_check_of_the_start():
    """Clearance ignores the floor, so a start below a raised floor is left to ``in_bounds``."""
    world = Workspace(bounds=AABB(Vec3(0.0, 0.0, 1.0), Vec3(20.0, 20.0, 10.0)))
    start = DroneState(position=Vec3(10.0, 10.0, 0.1), velocity=Vec3(0.0, 0.0, 5.0))
    population = PopulationSimulation(
        BoundedDoubleIntegrator(),
        world,
        None,
        np.zeros((1, 1, 3)),
        [start.position.as_tuple()],
        initial_velocities=[start.velocity.as_tuple()],
    )
    plant = DronePlant(BoundedDoubleIntegrator(), world, initial_state=start)
    population.apply_window(np.zeros((1, 3)), [0.25])
    plant.apply(None, 0.25)
    assert world.in_bounds(plant.state.position)
    assert world.clearance_field().lower_bound(start.position) > population.distance_flown[0]
    assert plant.collided and population.collided[0]
    _assert_rows_match(population, [plant], [0])
