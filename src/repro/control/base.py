"""Controller interfaces for the motion-primitive layer.

A *tracker* converts the drone's current state plus a target waypoint into
a :class:`~repro.dynamics.ControlCommand`.  The advanced controllers
(PX4-like aggressive tracker, "learned" tracker) and the certified safe
tracker all implement this interface, which is what allows an RTA module
to swap one for the other at runtime (well-formedness property P1b).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..core.resettable import StatelessSnapshot
from ..dynamics import ControlCommand, DroneState
from ..geometry import Vec3


class WaypointTracker(StatelessSnapshot, abc.ABC):
    """Generates acceleration commands that drive the drone toward a waypoint.

    Stateless by default: memo caches of deterministic sub-queries are warm
    state that resets and snapshots leave alone.  Stateful trackers (the
    learned tracker's RNG, the safe tracker's reference) override the hooks.
    """

    #: Human-readable controller name used in traces and benchmark tables.
    name: str = "tracker"

    @abc.abstractmethod
    def command(self, state: DroneState, target: Vec3, now: float) -> ControlCommand:
        """Compute the control command for the current state and target."""

    def set_plan(self, plan: object) -> None:
        """Inform the tracker of the plan the target waypoints belong to.

        Most trackers ignore this; the certified safe tracker uses the
        plan's collision-free reference trajectory to pick its carrot
        point instead of chasing a possibly occluded waypoint.
        """

    def command_batch(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        targets: np.ndarray,
        now: float,
    ) -> np.ndarray:
        """Commanded accelerations for N (state, target) pairs at once.

        ``positions``/``velocities``/``targets`` are ``(N, 3)`` arrays;
        returns the ``(N, 3)`` commanded accelerations (yaw rates are not
        batched — every tracker in the case study leaves them at zero).
        Row *i* must equal ``command(state_i, target_i, now)``; the default
        implementation guarantees that by looping over the scalar law,
        while vectorised overrides (the certified safe tracker) evaluate
        the same expressions over the whole batch.  The batched
        well-formedness rollouts drive whole sample sets through this API.
        """
        positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        velocities = np.asarray(velocities, dtype=float).reshape(-1, 3)
        targets = np.asarray(targets, dtype=float).reshape(-1, 3)
        accelerations = np.empty_like(positions)
        for i in range(positions.shape[0]):
            state = DroneState(position=Vec3(*positions[i]), velocity=Vec3(*velocities[i]))
            command = self.command(state, Vec3(*targets[i]), now)
            accelerations[i] = command.acceleration.as_tuple()
        return accelerations


class HoverController(WaypointTracker):
    """Commands zero acceleration regardless of the target (a trivial baseline)."""

    name = "hover"

    def command(self, state: DroneState, target: Vec3, now: float) -> ControlCommand:
        return ControlCommand.hover()


def pd_acceleration(
    state: DroneState,
    target: Vec3,
    position_gain: float,
    velocity_gain: float,
    max_speed: Optional[float] = None,
    max_acceleration: Optional[float] = None,
) -> Vec3:
    """The shared PD law all trackers build on.

    The command drives the drone toward a desired velocity that points at
    the target with magnitude proportional to the distance (saturated at
    ``max_speed``); the acceleration is the velocity error scaled by
    ``velocity_gain`` and optionally saturated.
    """
    to_target = target - state.position
    desired_velocity = to_target * position_gain
    if max_speed is not None:
        desired_velocity = desired_velocity.clamp_norm(max_speed)
    acceleration = (desired_velocity - state.velocity) * velocity_gain
    if max_acceleration is not None:
        acceleration = acceleration.clamp_norm(max_acceleration)
    return acceleration
