"""The certified safe tracker (the SC of the motion-primitive RTA module).

The paper synthesises its safe controller with FaSTrack; the substitute
here is a conservative PD tracker with:

* a hard cap on commanded speed (far below the plant limit),
* obstacle-aware braking and repulsion: when the clearance to the nearest
  obstacle falls below the certified margin, the tracker prioritises
  increasing clearance over making progress toward the waypoint.

Together with the analytic :class:`~repro.reachability.TrackingErrorCertificate`
this gives the module its P2a (never leaves φ_safe once inside) and P2b
(recovers into φ_safer) evidence.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..dynamics import ControlCommand, DroneState
from ..geometry import (
    ClearanceField,
    Vec3,
    Workspace,
    clamp_norm_rows,
    row_dots,
    row_norms,
    unit_rows,
)
from ..reachability.fastrack import SafeTrackerParams
from .base import WaypointTracker, pd_acceleration


class SafeWaypointTracker(WaypointTracker):
    """Conservative, obstacle-aware waypoint tracker (certified safe controller)."""

    name = "safe-tracker"

    def __init__(
        self,
        params: SafeTrackerParams,
        workspace: Optional[Workspace] = None,
        recovery_clearance: Optional[float] = None,
        lookahead: float = 2.0,
        clearance_field: Optional[ClearanceField] = None,
    ) -> None:
        self.params = params
        self.workspace = workspace
        # Clearance below which the tracker actively retreats from obstacles;
        # chosen so the SC pushes the drone back into φ_safer (property P2b).
        self.recovery_clearance = (
            recovery_clearance if recovery_clearance is not None else params.obstacle_margin * 2.0
        )
        self.lookahead = lookahead
        self.clearance_field = clearance_field
        self._reference = None
        # Per-instance memos of the tracker's pure geometric sub-queries.
        # The away direction depends only on the (static) workspace and the
        # query position; the carrot point additionally depends on the
        # current reference polyline, so it is cleared on ``set_plan``.
        # Systematic testing drives the tracker with a finite menu of
        # estimates, so these turn the per-firing obstacle loops into dict
        # hits — and they are exactly the warm state the reset-and-reuse
        # explorer keeps alive across executions (a fresh build discards
        # them every run).  Bounded so continuous (noisy) workloads cannot
        # grow them without limit.
        self._memo_limit = 4096
        self._away_memo: dict = {}
        self._carrot_memo: dict = {}
        self._command_memo: dict = {}
        self._memo_obstacle_count = len(workspace.obstacles) if workspace is not None else 0

    def _check_memo_freshness(self) -> None:
        """Drop the geometry-derived memos if the workspace grew an obstacle.

        Mirrors :meth:`ClearanceField._check_freshness`: the supported
        mutation API is ``Workspace.add_obstacle``, and a memoised command
        or away direction computed against the old obstacle set would
        otherwise steer the safe controller with stale geometry.
        """
        if self.workspace is None:
            return
        count = len(self.workspace.obstacles)
        if count != self._memo_obstacle_count:
            self._away_memo.clear()
            self._carrot_memo.clear()
            self._command_memo.clear()
            self._memo_obstacle_count = count

    def set_plan(self, plan: object) -> None:
        """Follow the plan's collision-free reference trajectory when available."""
        reference = getattr(plan, "reference", None)
        self._reference = reference() if callable(reference) else None
        self._carrot_memo.clear()
        self._command_memo.clear()

    def reset(self) -> None:
        self._reference = None
        self._carrot_memo.clear()
        self._command_memo.clear()
        # The away-direction memo only depends on the immutable workspace;
        # keeping it warm across resets is the point of instance reuse.

    # -- delta-snapshot hooks (see repro.core.resettable) -------------- #
    def capture_delta_state(self) -> object:
        # The reference trajectory is the tracker's only semantic state;
        # plans are immutable, so a reference suffices.
        return self._reference

    def restore_delta_state(self, state: object) -> None:
        if self._reference is not state:
            # The carrot/command memos are keyed by position only — they
            # are valid for exactly one reference polyline (see set_plan).
            self._reference = state
            self._carrot_memo.clear()
            self._command_memo.clear()

    # ------------------------------------------------------------------ #
    # control law
    # ------------------------------------------------------------------ #
    def command(self, state: DroneState, target: Vec3, now: float) -> ControlCommand:
        # The whole law is a pure function of (state, target) given the
        # current reference polyline (the memo is cleared on ``set_plan``),
        # so exact-input repeats — ubiquitous under finite-menu systematic
        # testing — are answered from the memo, bit-identically.
        self._check_memo_freshness()
        position, velocity = state.position, state.velocity
        key = (
            position.x, position.y, position.z,
            velocity.x, velocity.y, velocity.z,
            target.x, target.y, target.z,
        )
        cached = self._command_memo.get(key)
        if cached is None:
            cached = self._compute_command(state, target, now)
            if len(self._command_memo) < self._memo_limit:
                self._command_memo[key] = cached
        return cached

    def _compute_command(self, state: DroneState, target: Vec3, now: float) -> ControlCommand:
        if self._reference is not None:
            # Carrot-following along the reference: the target handed in by
            # the primitive node may lie behind an obstacle corner relative
            # to the drone's (deviated) position, whereas the reference
            # polyline is collision-free by construction.
            key = (state.position.x, state.position.y, state.position.z)
            carrot = self._carrot_memo.get(key)
            if carrot is None:
                carrot = self._reference.advance_from(state.position, self.lookahead)
                if len(self._carrot_memo) < self._memo_limit:
                    self._carrot_memo[key] = carrot
            target = carrot
        tracking = pd_acceleration(
            state,
            target,
            position_gain=self.params.position_gain,
            velocity_gain=self.params.velocity_gain,
            max_speed=self.params.max_speed,
            max_acceleration=self.params.max_acceleration,
        )
        urgency = self._urgency(state)
        if urgency <= 0.0:
            acceleration = tracking
        else:
            # Blend between making progress and retreating from the obstacle:
            # the deeper the drone is inside the recovery band, the more the
            # repulsive/braking terms dominate.  This keeps property P2b
            # (clearance keeps increasing until φ_safer) while still letting
            # the safe controller track waypoints that pass near obstacles.
            away = self._away_direction(state.position)
            # Slide along the obstacle face toward the target instead of
            # pushing straight back — the classic potential-field fix that
            # prevents the controller from dead-locking behind a corner.
            to_target = (target - state.position).with_z(0.0)
            if to_target.norm() > 1e-6:
                to_target = to_target.unit()
                tangential = to_target - away * to_target.dot(away)
            else:
                tangential = Vec3.zero()
            escape = away + tangential * 0.8
            escape = escape.unit() if escape.norm() > 1e-6 else away
            repulsion = escape * self.params.max_acceleration
            braking = state.velocity * (-self.params.velocity_gain)
            acceleration = (
                tracking * (1.0 - 0.8 * urgency)
                + repulsion * (0.7 * urgency)
                + braking * (0.3 * urgency)
            )
        acceleration = acceleration.clamp_norm(self.params.max_acceleration)
        return ControlCommand(acceleration=acceleration)

    # ------------------------------------------------------------------ #
    # batched control law (bit-identical to mapping ``command`` row-wise)
    # ------------------------------------------------------------------ #
    def command_batch(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        targets: np.ndarray,
        now: float,
    ) -> np.ndarray:
        """Vectorised :meth:`command` over ``(N, 3)`` state/target arrays.

        Evaluates exactly the scalar law's floating-point expressions in
        the same order over the whole batch — PD tracking, urgency band,
        away/tangential escape blend, saturation — so row *i* equals
        ``command(state_i, target_i, now).acceleration`` bit for bit.
        This is what lets the batched well-formedness rollouts integrate
        every falsification sample simultaneously yet land on the same
        trajectories as the scalar path.  The row-for-row contract covers
        finite positions: on a NaN or ±inf position the two laws may
        disagree, and the plants fly a non-finite command as no thrust.
        Carrot-following along a plan reference is not vectorised (the
        checker rollouts never set a plan); that case falls back to the
        scalar loop.
        """
        if self._reference is not None:
            return super().command_batch(positions, velocities, targets, now)
        self._check_memo_freshness()
        P = np.asarray(positions, dtype=float).reshape(-1, 3)
        V = np.asarray(velocities, dtype=float).reshape(-1, 3)
        T = np.asarray(targets, dtype=float).reshape(-1, 3)
        params = self.params
        # pd_acceleration, row-wise.
        desired = (T - P) * params.position_gain
        desired = clamp_norm_rows(desired, params.max_speed)
        tracking = (desired - V) * params.velocity_gain
        tracking = clamp_norm_rows(tracking, params.max_acceleration)
        # One nearest-obstacle query feeds both the urgency band (clearance)
        # and, for the urgent rows, the away direction (nearest box).
        workspace = self.workspace
        if workspace is None:  # never urgent
            urgency = np.zeros(P.shape[0])
        else:
            nearest, d2 = workspace.nearest_obstacle_batch(P)
            obstacle_dist = np.sqrt(d2)
            boundary = workspace.distance_to_boundary_batch(P)
            urgency = self._urgency_from_clearance(np.minimum(boundary, obstacle_dist))
        acceleration = tracking
        urgent = np.nonzero(urgency > 0.0)[0]
        if urgent.size:
            away = self._away_direction_batch(
                P[urgent], nearest[urgent], obstacle_dist[urgent], boundary[urgent]
            )
            to_target = T[urgent] - P[urgent]
            to_target[:, 2] = 0.0
            norms = row_norms(to_target)
            progress = norms > 1e-6
            unit_target = np.where(
                progress[:, None], to_target / np.where(progress, norms, 1.0)[:, None], 0.0
            )
            tangential = np.where(
                progress[:, None],
                unit_target - away * row_dots(unit_target, away)[:, None],
                0.0,
            )
            escape = away + tangential * 0.8
            escape_norms = row_norms(escape)
            escapable = escape_norms > 1e-6
            escape = np.where(
                escapable[:, None],
                escape / np.where(escapable, escape_norms, 1.0)[:, None],
                away,
            )
            repulsion = escape * params.max_acceleration
            braking = V[urgent] * (-params.velocity_gain)
            u = urgency[urgent]
            blended = (
                tracking[urgent] * (1.0 - 0.8 * u)[:, None]
                + repulsion * (0.7 * u)[:, None]
                + braking * (0.3 * u)[:, None]
            )
            acceleration = acceleration.copy()
            acceleration[urgent] = blended
        return clamp_norm_rows(acceleration, params.max_acceleration)

    def _urgency_from_clearance(self, clearance: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`_urgency` from precomputed exact clearances."""
        band = max(self.recovery_clearance - self.params.obstacle_margin, 1e-6)
        urgency = np.minimum(1.0, np.maximum(0.0, (self.recovery_clearance - clearance) / band))
        return np.where(clearance >= self.recovery_clearance, 0.0, urgency)

    def _away_direction_batch(self, positions, nearest, obstacle_dist, boundary) -> np.ndarray:
        """Row-wise :meth:`_compute_away_direction` from the nearest-obstacle query."""
        workspace = self.workspace
        assert workspace is not None
        directions = np.zeros_like(positions)
        if workspace.obstacles:
            # A row without a box (index -1) reads the last one; the
            # ``where`` below discards it.
            lo, hi = workspace.obstacle_arrays()
            lo, hi = lo[nearest], hi[nearest]
            away = positions - np.minimum(np.maximum(positions, lo), hi)
            degenerate = row_norms(away) < 1e-6
            if degenerate.any():
                away = np.where(degenerate[:, None], positions - (lo + hi) * 0.5, away)
            directions = np.where((nearest >= 0)[:, None], unit_rows(away), directions)
        walls = boundary < obstacle_dist
        if walls.any():
            toward = np.array(workspace.bounds.center.as_tuple()) - positions
            toward[:, 2] = 0.0
            walls &= row_norms(toward) > 1e-6
            directions = np.where(walls[:, None], unit_rows(toward), directions)
        # The scalar path re-normalises the chosen direction once more.
        return unit_rows(directions)

    def _urgency(self, state: DroneState) -> float:
        """0 when comfortably clear of obstacles, 1 at the certified margin."""
        if self.workspace is None:
            return 0.0
        if self.clearance_field is not None:
            # Common case first: the cached lower bound proves the tracker
            # is comfortably clear, skipping the exact obstacle loop.  The
            # exact value is computed once and reused for both the
            # early-return test and the band interpolation below.
            if self.clearance_field.decides_above(state.position, self.recovery_clearance):
                return 0.0
            clearance = self.clearance_field.clearance(state.position)
        else:
            clearance = self.workspace.clearance(state.position)
        if clearance >= self.recovery_clearance:
            return 0.0
        floor = self.params.obstacle_margin
        band = max(self.recovery_clearance - floor, 1e-6)
        return min(1.0, max(0.0, (self.recovery_clearance - clearance) / band))

    def _away_direction(self, position: Vec3) -> Vec3:
        """Unit vector pointing away from the nearest obstacle / boundary.

        Memoised per exact position: the workspace is immutable, so the
        direction is a pure function of the query point.
        """
        key = (position.x, position.y, position.z)
        cached = self._away_memo.get(key)
        if cached is None:
            cached = self._compute_away_direction(position)
            if len(self._away_memo) < self._memo_limit:
                self._away_memo[key] = cached
        return cached

    def _compute_away_direction(self, position: Vec3) -> Vec3:
        workspace = self.workspace
        assert workspace is not None
        index, d2 = workspace.nearest_obstacle(position)
        nearest_dist = math.sqrt(d2)
        direction = Vec3.zero()
        if index >= 0:
            box = workspace.obstacles[index]
            away = position - box.closest_point(position)
            if away.norm() < 1e-6:
                away = position - box.center
            direction = away.unit()
        # Push away from the workspace boundary if that is the nearest hazard.
        if workspace.distance_to_boundary(position) < nearest_dist:
            toward_center = (workspace.bounds.center - position).with_z(0.0)
            if toward_center.norm() > 1e-6:
                direction = toward_center.unit()
        # Re-normalised once more: the golden missions fly this rounding.
        return direction.unit()


class BrakingController(WaypointTracker):
    """A minimal certified controller that simply brakes to a hover.

    Used by the quickstart example and unit tests as the simplest possible
    safe controller: bounded dynamics guarantee it stops within its
    stopping distance, after which the state no longer changes.
    """

    name = "braking"

    def __init__(self, max_acceleration: float, velocity_gain: float = 4.0) -> None:
        if max_acceleration <= 0.0:
            raise ValueError("max_acceleration must be positive")
        self.max_acceleration = max_acceleration
        self.velocity_gain = velocity_gain

    def command(self, state: DroneState, target: Vec3, now: float) -> ControlCommand:
        acceleration = (state.velocity * (-self.velocity_gain)).clamp_norm(self.max_acceleration)
        return ControlCommand(acceleration=acceleration)
