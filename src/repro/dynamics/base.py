"""Plant state and control abstractions shared by all dynamics models.

The SOTER paper treats the plant (the drone) as a continuous-time system
sampled by the periodic SOTER nodes; the controllers exchange a simple
acceleration-style command with the plant.  These value types define that
interface so the controllers, the reachability analysis, and the simulator
all speak the same types.
"""

from __future__ import annotations

import abc
import math
from typing import Tuple

import numpy as np

from ..geometry import Vec3
from ..geometry.values import Value


class DroneState(Value):
    """Kinematic state of the drone: position and velocity in world frame."""

    position: Vec3 = Vec3.zero()
    velocity: Vec3 = Vec3.zero()

    @property
    def speed(self) -> float:
        """Current speed (velocity magnitude)."""
        return self.velocity.norm()

    @property
    def altitude(self) -> float:
        """Height above ground."""
        return self.position.z

    def with_position(self, position: Vec3) -> "DroneState":
        return DroneState(position, self.velocity)

    def with_velocity(self, velocity: Vec3) -> "DroneState":
        return DroneState(self.position, velocity)

    def as_tuple(self) -> Tuple[float, ...]:
        """Flat tuple representation (px, py, pz, vx, vy, vz)."""
        return self.position.as_tuple() + self.velocity.as_tuple()

    @staticmethod
    def from_tuple(values: Tuple[float, ...]) -> "DroneState":
        if len(values) != 6:
            raise ValueError(f"expected 6 values, got {len(values)}")
        return DroneState(
            position=Vec3(values[0], values[1], values[2]),
            velocity=Vec3(values[3], values[4], values[5]),
        )

    def is_finite(self) -> bool:
        """True if position and velocity contain no NaNs/infinities."""
        return self.position.is_finite() and self.velocity.is_finite()


class ControlCommand(Value):
    """A commanded acceleration (plus optional yaw rate) for the drone.

    All controllers in the case study — the untrusted PX4-like tracker, the
    learned tracker, the certified safe tracker, and the safe-landing
    controller — emit this command type, which is what lets the decision
    module swap one for the other (well-formedness property P1b: AC and SC
    publish on the same output topics).
    """

    acceleration: Vec3 = Vec3.zero()
    yaw_rate: float = 0.0

    @staticmethod
    def hover() -> "ControlCommand":
        """A command that requests zero acceleration."""
        return _HOVER

    def clamped(self, max_acceleration: float) -> "ControlCommand":
        """Copy with the acceleration magnitude clamped to ``max_acceleration``."""
        return ControlCommand(
            acceleration=self.acceleration.clamp_norm(max_acceleration),
            yaw_rate=self.yaw_rate,
        )

    def is_finite(self) -> bool:
        """True if the command contains no NaNs/infinities."""
        return self.acceleration.is_finite() and math.isfinite(self.yaw_rate)


_HOVER = ControlCommand(acceleration=Vec3.zero(), yaw_rate=0.0)


class DynamicsModel(abc.ABC):
    """Continuous dynamics of a plant, advanced with a fixed-step integrator."""

    @property
    @abc.abstractmethod
    def max_speed(self) -> float:
        """Hard bound on the achievable speed (used by worst-case reachability)."""

    @property
    @abc.abstractmethod
    def max_acceleration(self) -> float:
        """Hard bound on the achievable acceleration magnitude."""

    @abc.abstractmethod
    def step(self, state: DroneState, command: ControlCommand, dt: float) -> DroneState:
        """Advance the plant by ``dt`` seconds under ``command``."""

    def rollout(
        self, state: DroneState, command: ControlCommand, duration: float, dt: float
    ) -> DroneState:
        """Apply a constant command for ``duration`` seconds with step ``dt``."""
        if dt <= 0.0:
            raise ValueError("integration step must be positive")
        remaining = duration
        current = state
        while remaining > 1e-12:
            step = min(dt, remaining)
            current = self.step(current, command, step)
            remaining -= step
        return current

    def max_displacement(self, speed: float, horizon: float) -> float:
        """Worst-case distance the plant can travel in ``horizon`` seconds.

        This is the key quantity the interval reachability substitute uses
        to over-approximate Reach(s, *, t): starting at ``speed`` and
        accelerating as hard as possible until hitting ``max_speed``.
        """
        if horizon < 0.0:
            raise ValueError("horizon must be non-negative")
        speed = min(abs(speed), self.max_speed)
        accel = self.max_acceleration
        if accel <= 0.0:
            return self.max_speed * horizon
        time_to_vmax = (self.max_speed - speed) / accel
        if horizon <= time_to_vmax:
            return speed * horizon + 0.5 * accel * horizon * horizon
        ramp = speed * time_to_vmax + 0.5 * accel * time_to_vmax * time_to_vmax
        cruise = self.max_speed * (horizon - time_to_vmax)
        return ramp + cruise

    def stopping_distance(self, speed: float) -> float:
        """Distance needed to brake from ``speed`` to rest at full deceleration."""
        speed = min(abs(speed), self.max_speed)
        if self.max_acceleration <= 0.0:
            return float("inf") if speed > 0.0 else 0.0
        return speed * speed / (2.0 * self.max_acceleration)

    # ------------------------------------------------------------------ #
    # batched worst-case bounds (bit-identical to the scalar versions)
    # ------------------------------------------------------------------ #
    def max_displacement_batch(self, speeds: np.ndarray, horizon: float) -> np.ndarray:
        """Vectorised :meth:`max_displacement` over an ``(N,)`` speed array.

        Evaluates the same expressions in the same order as the scalar
        version, so the returned radii are bit-for-bit identical — which is
        what lets the batched reachability queries reproduce the decision
        modules' answers exactly.
        """
        if horizon < 0.0:
            raise ValueError("horizon must be non-negative")
        speeds = np.minimum(np.abs(np.asarray(speeds, dtype=float)), self.max_speed)
        accel = self.max_acceleration
        if accel <= 0.0:
            return np.full(speeds.shape, self.max_speed * horizon)
        time_to_vmax = (self.max_speed - speeds) / accel
        direct = speeds * horizon + 0.5 * accel * horizon * horizon
        ramp = speeds * time_to_vmax + 0.5 * accel * time_to_vmax * time_to_vmax
        cruise = self.max_speed * (horizon - time_to_vmax)
        return np.where(horizon <= time_to_vmax, direct, ramp + cruise)

    def stopping_distance_batch(self, speeds: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`stopping_distance` over an ``(N,)`` speed array."""
        speeds = np.minimum(np.abs(np.asarray(speeds, dtype=float)), self.max_speed)
        if self.max_acceleration <= 0.0:
            return np.where(speeds > 0.0, np.inf, 0.0)
        return speeds * speeds / (2.0 * self.max_acceleration)

    def begin_batch(self, count: int) -> None:
        """Prepare the model for a fresh ``count``-row batched rollout.

        Stateless models (the bounded double integrator) have nothing to
        prepare, so the default is a no-op.  Models with internal state
        (the lagged quadrotor) override this to seed one independent copy
        of that state per row, which is what makes their :meth:`step_batch`
        honour the per-row contract; the batched reachability rollouts
        call it once before integrating.
        """

    def step_batch(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        accelerations: np.ndarray,
        dt: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance N plant states at once (structure-of-arrays layout).

        ``positions``/``velocities``/``accelerations`` are ``(N, 3)``
        arrays; returns the new ``(positions, velocities)`` pair.  The
        contract matches :meth:`step` on a per-row basis (non-finite
        commanded accelerations are treated as "no thrust", exactly like a
        malformed :class:`ControlCommand`).  The default implementation
        loops over the scalar :meth:`step`; models with closed-form
        updates override it with a vectorised, bit-identical version —
        the batched well-formedness rollouts integrate whole sample sets
        through this API.  Note the scalar loop mutates any internal model
        state sequentially across rows, so stateful models *must* override
        both this and :meth:`begin_batch` to keep rows independent (the
        lagged quadrotor does).
        """
        positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        velocities = np.asarray(velocities, dtype=float).reshape(-1, 3)
        accelerations = np.asarray(accelerations, dtype=float).reshape(-1, 3)
        new_positions = np.empty_like(positions)
        new_velocities = np.empty_like(velocities)
        for i in range(positions.shape[0]):
            state = DroneState(
                position=Vec3(*positions[i]), velocity=Vec3(*velocities[i])
            )
            command = ControlCommand(acceleration=Vec3(*accelerations[i]))
            stepped = self.step(state, command, dt)
            new_positions[i] = stepped.position.as_tuple()
            new_velocities[i] = stepped.velocity.as_tuple()
        return new_positions, new_velocities
