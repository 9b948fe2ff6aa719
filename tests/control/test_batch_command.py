"""Batched control laws and dynamics steps: bit-identical to the scalar paths."""

import random

import numpy as np
import pytest

from repro.control import AggressiveTracker, SafeWaypointTracker
from repro.dynamics import (
    BatteryModel,
    BatteryState,
    BoundedDoubleIntegrator,
    ControlCommand,
    DoubleIntegratorParams,
    DroneState,
    LaggedQuadrotor,
)
from repro.geometry import (
    Vec3,
    clamp_norm_rows,
    grid_city_workspace,
    row_norms,
    unit_rows,
)
from repro.reachability import synthesize_safe_tracker

from ..geometry.test_batch_equivalence import HOSTILE_WORLDS, assert_bit_equal, hostile_points


def _random_batch(seed, count, speed=4.0):
    rng = random.Random(seed)
    states, targets = [], []
    for _ in range(count):
        position = Vec3(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(0.3, 8.0))
        velocity = Vec3(
            rng.uniform(-speed, speed), rng.uniform(-speed, speed), rng.uniform(-1, 1)
        )
        states.append(DroneState(position=position, velocity=velocity))
        targets.append(Vec3(rng.uniform(0, 50), rng.uniform(0, 50), 2.0))
    P = np.array([s.position.as_tuple() for s in states])
    V = np.array([s.velocity.as_tuple() for s in states])
    T = np.array([t.as_tuple() for t in targets])
    return states, targets, P, V, T


class TestRowHelpers:
    def test_row_ops_match_vec3(self):
        rng = random.Random(1)
        vectors = [Vec3(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(64)]
        rows = np.array([v.as_tuple() for v in vectors])
        assert (row_norms(rows) == np.array([v.norm() for v in vectors])).all()
        assert (unit_rows(rows) == np.array([v.unit().as_tuple() for v in vectors])).all()
        for cap in (0.5, 4.0, 100.0):
            clamped = clamp_norm_rows(rows, cap)
            expected = np.array([v.clamp_norm(cap).as_tuple() for v in vectors])
            assert (clamped == expected).all()

    def test_zero_rows(self):
        rows = np.zeros((3, 3))
        assert (unit_rows(rows) == 0.0).all()
        assert (clamp_norm_rows(rows, 1.0) == 0.0).all()


class TestStepBatch:
    def test_double_integrator_step_batch_bit_identical(self):
        model = BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0))
        states, _, P, V, _ = _random_batch(7, 200, speed=6.0)
        rng = random.Random(9)
        A = np.array([[rng.uniform(-10, 10) for _ in range(3)] for _ in range(200)])
        A[5] = [np.nan, 0.0, 0.0]  # malformed command row → "no thrust"
        newP, newV = model.step_batch(P, V, A, 0.02)
        for i, state in enumerate(states):
            stepped = model.step(state, ControlCommand(acceleration=Vec3(*A[i])), 0.02)
            assert tuple(newP[i]) == stepped.position.as_tuple()
            assert tuple(newV[i]) == stepped.velocity.as_tuple()

    def test_lagged_quadrotor_step_batch_bit_identical(self):
        """Each row carries its own lag state, matching a dedicated scalar model."""
        batch_model = LaggedQuadrotor()
        states, _, P, V, _ = _random_batch(23, 60, speed=5.0)
        scalar_models = [LaggedQuadrotor() for _ in states]
        rng = random.Random(29)
        batch_model.begin_batch(len(states))
        # Multiple successive steps: the lag must be carried per row, not
        # threaded sequentially across rows (the old fallback's bug).
        for _ in range(8):
            A = np.array([[rng.uniform(-10, 10) for _ in range(3)] for _ in states])
            A[3] = [np.inf, 0.0, 0.0]  # malformed command row → "no thrust"
            P, V = batch_model.step_batch(P, V, A, 0.05)
            for i in range(len(states)):
                states[i] = scalar_models[i].step(
                    states[i], ControlCommand(acceleration=Vec3(*A[i])), 0.05
                )
                assert tuple(P[i]) == states[i].position.as_tuple()
                assert tuple(V[i]) == states[i].velocity.as_tuple()

    def test_battery_step_batch_bit_identical(self):
        model = BatteryModel()
        rng = random.Random(31)
        charges = np.array([rng.uniform(0.0, 1.0) for _ in range(120)])
        A = np.array([[rng.uniform(-10, 10) for _ in range(3)] for _ in range(120)])
        stepped = model.step_batch(charges, A, 0.4)
        for i in range(120):
            scalar = model.step(
                BatteryState(charge=charges[i]),
                ControlCommand(acceleration=Vec3(*A[i])),
                0.4,
            )
            assert stepped[i] == scalar.charge

    def test_generic_step_batch_fallback(self):
        """The base-class loop agrees with the scalar step for any model."""

        class HalvingModel(BoundedDoubleIntegrator):
            def step(self, state, command, dt):
                return DroneState(
                    position=state.position + state.velocity * dt,
                    velocity=state.velocity * 0.5,
                )

            step_batch = BoundedDoubleIntegrator.__mro__[1].step_batch

        model = HalvingModel()
        _, _, P, V, _ = _random_batch(3, 20)
        A = np.zeros((20, 3))
        newP, newV = model.step_batch(P, V, A, 0.1)
        assert np.allclose(newP, P + V * 0.1)
        assert np.allclose(newV, V * 0.5)


class TestCommandBatch:
    @pytest.fixture(scope="class")
    def safe_tracker(self):
        workspace = grid_city_workspace()
        model = BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0))
        params, _ = synthesize_safe_tracker(model, workspace, safe_speed_fraction=0.35)
        return SafeWaypointTracker(
            params=params,
            workspace=workspace,
            recovery_clearance=3.2,
            clearance_field=workspace.clearance_field(),
        )

    def test_safe_tracker_batch_bit_identical(self, safe_tracker):
        states, targets, P, V, T = _random_batch(11, 400)
        batch = safe_tracker.command_batch(P, V, T, 0.0)
        scalar = np.array(
            [safe_tracker.command(s, t, 0.0).acceleration.as_tuple() for s, t in zip(states, targets)]
        )
        assert (batch == scalar).all()

    def test_safe_tracker_batch_without_field(self):
        workspace = grid_city_workspace()
        model = BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0))
        params, _ = synthesize_safe_tracker(model, workspace, safe_speed_fraction=0.35)
        tracker = SafeWaypointTracker(params=params, workspace=workspace, recovery_clearance=3.2)
        states, targets, P, V, T = _random_batch(13, 150)
        batch = tracker.command_batch(P, V, T, 0.0)
        scalar = np.array(
            [tracker.command(s, t, 0.0).acceleration.as_tuple() for s, t in zip(states, targets)]
        )
        assert (batch == scalar).all()

    @pytest.mark.parametrize("corner_anticipation", [0.0, 0.6])
    def test_aggressive_tracker_batch_bit_identical(self, corner_anticipation):
        """The base-class scalar loop (no vectorised override) matches the scalar law."""
        tracker = AggressiveTracker(corner_anticipation=corner_anticipation)
        states, targets, P, V, T = _random_batch(17, 300)
        # Degenerate row: already at the target (the distance < 1e-6 branch).
        T[7] = P[7]
        targets[7] = Vec3(*P[7])
        batch = tracker.command_batch(P, V, T, 0.0)
        scalar = np.array(
            [tracker.command(s, t, 0.0).acceleration.as_tuple() for s, t in zip(states, targets)]
        )
        assert (batch == scalar).all()

    def test_memos_invalidate_when_workspace_grows_an_obstacle(self):
        from repro.geometry import AABB, empty_workspace

        workspace = empty_workspace(side=20.0)
        model = BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0))
        params, _ = synthesize_safe_tracker(model, workspace, safe_speed_fraction=0.35)
        tracker = SafeWaypointTracker(params=params, workspace=workspace, recovery_clearance=3.0)
        state = DroneState(position=Vec3(10.0, 10.0, 2.0))
        target = Vec3(12.0, 10.0, 2.0)
        before = tracker.command(state, target, 0.0)
        # A new obstacle right next to the drone must invalidate the memo:
        # the cached command was computed against the old obstacle set.
        workspace.add_obstacle(AABB.from_footprint(10.5, 9.5, 1.0, 1.0, 5.0))
        after = tracker.command(state, target, 0.0)
        assert after.acceleration.as_tuple() != before.acceleration.as_tuple()
        fresh = SafeWaypointTracker(params=params, workspace=workspace, recovery_clearance=3.0)
        assert after.acceleration.as_tuple() == fresh.command(state, target, 0.0).acceleration.as_tuple()

    def test_command_memo_returns_identical_results(self, safe_tracker):
        states, targets, _, _, _ = _random_batch(19, 30)
        first = [safe_tracker.command(s, t, 0.0) for s, t in zip(states, targets)]
        second = [safe_tracker.command(s, t, 0.0) for s, t in zip(states, targets)]
        assert all(a is b for a, b in zip(first, second))  # served from the memo


def _hostile_positions(workspace):
    """Finite hostile positions of ``workspace`` for the tracker laws.

    Every box and bound corner, edge midpoint and face centre one ulp
    either side (the ``touching`` world's box is flush with a wall), the
    point midway between two boxes (the ``pair`` world's two-box tie),
    each box's exact centre (the degenerate ``away`` case), and a point
    inside each box.
    """
    points = hostile_points(workspace)
    inside = [box.center.lerp(box.hi, 0.5).as_tuple() for box in workspace.obstacles]
    points = np.concatenate([points, np.array(inside, dtype=float).reshape(-1, 3)])
    return points[np.isfinite(points).all(axis=1)]


class TestHostileCommandDifferential:
    """``command == command_batch`` row for row on finite hostile positions."""

    @pytest.mark.parametrize("use_field", [False, True], ids=["exact", "clearance-field"])
    @pytest.mark.parametrize("name", sorted(HOSTILE_WORLDS))
    def test_scalar_and_batched_laws_agree(self, name, use_field):
        workspace = HOSTILE_WORLDS[name]()
        model = BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0))
        params, _ = synthesize_safe_tracker(model, workspace, safe_speed_fraction=0.35)
        tracker = SafeWaypointTracker(
            params=params,
            workspace=workspace,
            recovery_clearance=3.2,
            clearance_field=workspace.clearance_field() if use_field else None,
        )
        P = _hostile_positions(workspace)
        rng = random.Random(len(P))
        V = np.array([[rng.uniform(-3.0, 3.0) for _ in range(3)] for _ in P])
        V[::5] = 0.0
        far = np.array(workspace.bounds.center.as_tuple())
        # A far target, the position itself (no progress) and straight above
        # it (no horizontal progress), row by row.
        T = np.where((np.arange(len(P)) % 3 == 0)[:, None], far, P)
        T[2::3, 2] += 1.0
        batch = tracker.command_batch(P, V, T, 0.0)
        scalar = [
            tracker.command(DroneState(position=Vec3(*p), velocity=Vec3(*v)), Vec3(*t), 0.0)
            .acceleration.as_tuple()
            for p, v, t in zip(P, V, T)
        ]
        assert_bit_equal(batch, scalar)
        # The away-direction branch ran.
        assert (tracker._urgency_from_clearance(workspace.clearance_batch(P)) > 0.0).any()

    def test_an_urgent_two_box_tie_is_exercised(self):
        workspace = HOSTILE_WORLDS["pair"]()
        tie = np.array([[10.0, 6.0, 2.5]])
        assert tie.tolist()[0] in _hostile_positions(workspace).tolist()
        assert [box.distance_to_point(Vec3(*tie[0])) for box in workspace.obstacles] == [2.0, 2.0]
