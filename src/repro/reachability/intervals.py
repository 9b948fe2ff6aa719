"""Analytic worst-case (interval/box) reachability for the drone models.

The decision module of a SOTER RTA module needs a *sound over-approximation*
of ``Reach(s, *, 2Δ)`` — the set of states reachable in ``2Δ`` seconds when
the controller is completely nondeterministic (Section III-B, Figure 9 of
the paper).  For a plant with bounded speed and bounded acceleration, a
ball (and hence a box) of radius equal to the worst-case displacement is
such an over-approximation; this module computes it analytically, which is
both fast enough to run inside the DM every period and provably
conservative with respect to the double-integrator and lagged-quadrotor
models.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..dynamics import ControlCommand, DroneState, DynamicsModel
from ..geometry import AABB, ClearanceField, Vec3, Workspace
from ..geometry.values import Value


def states_as_arrays(states: Sequence[DroneState]) -> Tuple[np.ndarray, np.ndarray]:
    """Split drone states into the ``(N, 3)`` position / ``(N,)`` speed batch layout."""
    positions = np.array([s.position.as_tuple() for s in states], dtype=float).reshape(-1, 3)
    speeds = np.array([s.speed for s in states], dtype=float)
    return positions, speeds


class ReachBall(Value):
    """A ball over-approximating the positions reachable within a horizon."""

    center: Vec3
    radius: float
    horizon: float

    def contains(self, point: Vec3) -> bool:
        """True if ``point`` may be reached (lies inside the ball)."""
        return self.center.distance_to(point) <= self.radius

    def as_box(self) -> AABB:
        """Axis-aligned bounding box of the ball."""
        offset = Vec3(self.radius, self.radius, self.radius)
        return AABB(self.center - offset, self.center + offset)


class WorstCaseReachability:
    """Worst-case reachability for any :class:`DynamicsModel` with bounded dynamics."""

    def __init__(self, model: DynamicsModel) -> None:
        self.model = model

    def reach_ball(self, state: DroneState, horizon: float) -> ReachBall:
        """Ball containing every position reachable within ``horizon`` seconds."""
        radius = self.model.max_displacement(state.speed, horizon)
        return ReachBall(center=state.position, radius=radius, horizon=horizon)

    def may_leave_safe(
        self,
        state: DroneState,
        workspace: Workspace,
        horizon: float,
        margin: float = 0.0,
        field: Optional[ClearanceField] = None,
    ) -> bool:
        """True if some reachable position within ``horizon`` is unsafe.

        "Unsafe" means inside an (inflated) obstacle or outside the
        workspace bounds; this is exactly the check
        ``Reach(st, *, 2Δ) ⊄ φ_safe`` of Figure 9 when called with
        ``horizon = 2Δ``.

        With a :class:`ClearanceField` the cached conservative bound
        pre-answers the far-from-obstacle case; the returned decision is
        bit-for-bit the same either way.
        """
        ball = self.reach_ball(state, horizon)
        # The ball escapes φ_safe iff the clearance at the center is
        # smaller than the ball radius (clearance is a true metric
        # distance to the unsafe set).
        if field is not None:
            if field.decides_above(state.position, ball.radius, margin=margin):
                return False  # the cached bound alone rules the escape out
            clearance = field.clearance(state.position) - margin
        else:
            clearance = workspace.clearance(state.position) - margin
        return clearance <= ball.radius

    def unavoidable_travel_radius(self, state: DroneState, horizon: float) -> float:
        """Worst-case travel before *any* certified braking manoeuvre can stop the plant.

        The decision module must hand control to the safe controller early
        enough that the safe controller can still avoid the obstacle.  With
        bounded dynamics the sound bound is: the distance covered during
        ``horizon`` seconds of adversarial control, plus the stopping
        distance from the worst speed attainable at the end of that window.
        This is the discrete-dynamics analogue of the value-function-based
        switching surface a level-set computation yields.
        """
        travel = self.model.max_displacement(state.speed, horizon)
        worst_speed = min(
            self.model.max_speed, state.speed + self.model.max_acceleration * horizon
        )
        return travel + self.model.stopping_distance(worst_speed)

    def must_switch(
        self,
        state: DroneState,
        workspace: Workspace,
        horizon: float,
        margin: float = 0.0,
        field: Optional[ClearanceField] = None,
    ) -> bool:
        """True if the DM must switch now for the SC to be able to keep φ_safe."""
        radius = self.unavoidable_travel_radius(state, horizon)
        if field is not None:
            if field.decides_above(state.position, radius, margin=margin):
                return False
            clearance = field.clearance(state.position) - margin
        else:
            clearance = workspace.clearance(state.position) - margin
        return clearance <= radius

    def make_ttf_checker(
        self,
        workspace: Workspace,
        two_delta: float,
        margin: float = 0.0,
        include_braking: bool = True,
        field: Optional[ClearanceField] = None,
    ) -> Callable[[DroneState], bool]:
        """Build the ``ttf_2Δ`` predicate used by the motion-primitive DM.

        With ``include_braking`` (the default) the predicate also accounts
        for the safe controller's stopping distance, so the switch happens
        while recovery is still possible; without it the predicate is the
        literal ``Reach(st, *, 2Δ) ⊄ φ_safe`` check of Figure 9.
        """

        def ttf(state: DroneState) -> bool:
            if include_braking:
                return self.must_switch(state, workspace, two_delta, margin=margin, field=field)
            return self.may_leave_safe(state, workspace, two_delta, margin=margin, field=field)

        return ttf

    # ------------------------------------------------------------------ #
    # batched queries (bit-identical to mapping the scalar versions)
    # ------------------------------------------------------------------ #
    def reach_radii(self, speeds: np.ndarray, horizon: float) -> np.ndarray:
        """Reach-ball radii for an ``(N,)`` array of speeds."""
        return self.model.max_displacement_batch(speeds, horizon)

    def may_leave_safe_batch(
        self,
        positions: np.ndarray,
        speeds: np.ndarray,
        workspace: Workspace,
        horizon: float,
        margin: float = 0.0,
    ) -> np.ndarray:
        """Vectorised :meth:`may_leave_safe` over position/speed arrays.

        ``positions`` is ``(N, 3)``, ``speeds`` is ``(N,)``; returns an
        ``(N,)`` bool array equal, bit-for-bit, to evaluating the scalar
        check per state.  Use :func:`states_as_arrays` to convert a list of
        :class:`DroneState`.
        """
        radii = self.reach_radii(speeds, horizon)
        clearance = workspace.clearance_batch(positions) - margin
        return clearance <= radii

    def unavoidable_travel_radius_batch(self, speeds: np.ndarray, horizon: float) -> np.ndarray:
        """Vectorised :meth:`unavoidable_travel_radius` over an ``(N,)`` speed array."""
        speeds = np.asarray(speeds, dtype=float)
        travel = self.model.max_displacement_batch(speeds, horizon)
        worst_speeds = np.minimum(
            self.model.max_speed, speeds + self.model.max_acceleration * horizon
        )
        return travel + self.model.stopping_distance_batch(worst_speeds)

    def must_switch_batch(
        self,
        positions: np.ndarray,
        speeds: np.ndarray,
        workspace: Workspace,
        horizon: float,
        margin: float = 0.0,
    ) -> np.ndarray:
        """Vectorised :meth:`must_switch` over position/speed arrays."""
        radii = self.unavoidable_travel_radius_batch(speeds, horizon)
        clearance = workspace.clearance_batch(positions) - margin
        return clearance <= radii


class SampledControllerReachability:
    """Under-approximate reachability for a *fixed* controller, by simulation.

    Properties P2a and P2b of a well-formed RTA module quantify over the
    closed-loop behaviour of the safe controller.  Absent an analytic
    certificate, the well-formedness checker falsifies them by rolling the
    closed loop forward from sampled states; this helper performs those
    rollouts.
    """

    def __init__(self, model: DynamicsModel, dt: float = 0.02) -> None:
        if dt <= 0.0:
            raise ValueError("simulation step must be positive")
        self.model = model
        self.dt = dt

    def rollout(
        self,
        state: DroneState,
        controller: Callable[[DroneState, float], ControlCommand],
        duration: float,
    ) -> List[DroneState]:
        """Simulate the closed loop for ``duration`` seconds; returns all visited states."""
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        states = [state]
        time = 0.0
        current = state
        while time < duration - 1e-12:
            command = controller(current, time)
            current = self.model.step(current, command, self.dt)
            time += self.dt
            states.append(current)
        return states

    def stays_within(
        self,
        state: DroneState,
        controller: Callable[[DroneState, float], ControlCommand],
        duration: float,
        predicate: Callable[[DroneState], bool],
    ) -> bool:
        """True if every state visited during the rollout satisfies ``predicate``."""
        return all(predicate(s) for s in self.rollout(state, controller, duration))

    def rollout_batch(
        self,
        states: Sequence[DroneState],
        controller_batch: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
        duration: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Simulate N closed loops simultaneously (structure-of-arrays).

        ``controller_batch(positions, velocities, time)`` must return the
        ``(N, 3)`` commanded accelerations for the batch at ``time``.  The
        state matrix is integrated through the dynamics model's
        :meth:`~repro.dynamics.DynamicsModel.step_batch` API; the returned
        ``(T+1, N, 3)`` position and velocity tensors contain exactly the
        states the scalar :meth:`rollout` visits per sample (the time grid
        replicates the scalar float accumulation, and vectorised
        controllers/models are bit-identical to their scalar laws).  This
        is the kernel of the batched P2a/P2b falsification checks: N
        samples × T steps collapse into T vectorised calls.
        """
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        positions = np.array([s.position.as_tuple() for s in states], dtype=float).reshape(-1, 3)
        velocities = np.array([s.velocity.as_tuple() for s in states], dtype=float).reshape(-1, 3)
        # Stateful models (the lagged quadrotor) seed one independent copy
        # of their internal state per row here; every model then integrates
        # through the same vectorised step_batch path — no per-model
        # dispatch, and no scalar-loop fallback threading internal state
        # sequentially across rows.
        self.model.begin_batch(positions.shape[0])
        position_history = [positions]
        velocity_history = [velocities]
        time = 0.0
        while time < duration - 1e-12:
            accelerations = controller_batch(positions, velocities, time)
            positions, velocities = self.model.step_batch(
                positions, velocities, accelerations, self.dt
            )
            time += self.dt
            position_history.append(positions)
            velocity_history.append(velocities)
        return np.stack(position_history), np.stack(velocity_history)


def reach_ball_union(balls: Iterable[ReachBall]) -> AABB:
    """Bounding box of a union of reach balls (used for region visualisation)."""
    balls = list(balls)
    if not balls:
        raise ValueError("need at least one ball")
    box = balls[0].as_box()
    for ball in balls[1:]:
        box = box.union(ball.as_box())
    return box
