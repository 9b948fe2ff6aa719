"""Bounded double-integrator drone model.

The motion-primitive safety argument in the SOTER paper only relies on the
drone having bounded speed and bounded acceleration (that is what makes
the 2Δ worst-case reachable set computable).  A double integrator with
saturated acceleration and speed — the standard abstraction used by
FaSTrack-style planners for multirotors — captures exactly that, so it is
the primary plant model of this reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry import Vec3, clamp_norm_rows
from .base import ControlCommand, DroneState, DynamicsModel


@dataclass
class DoubleIntegratorParams:
    """Physical limits and damping of the bounded double integrator."""

    max_speed: float = 5.0
    max_acceleration: float = 6.0
    drag: float = 0.05
    gravity_compensated: bool = True

    def __post_init__(self) -> None:
        if self.max_speed <= 0.0:
            raise ValueError("max_speed must be positive")
        if self.max_acceleration <= 0.0:
            raise ValueError("max_acceleration must be positive")
        if self.drag < 0.0:
            raise ValueError("drag must be non-negative")


class BoundedDoubleIntegrator(DynamicsModel):
    """Point-mass drone: commanded acceleration, saturated speed and acceleration."""

    def __init__(self, params: DoubleIntegratorParams | None = None) -> None:
        self.params = params or DoubleIntegratorParams()

    @property
    def max_speed(self) -> float:
        return self.params.max_speed

    @property
    def max_acceleration(self) -> float:
        return self.params.max_acceleration

    def step(self, state: DroneState, command: ControlCommand, dt: float) -> DroneState:
        """Trapezoidal step with acceleration and speed saturation.

        The position advances with the *average* of the old and new
        velocity, which is exact for constant acceleration; this keeps the
        discrete plant inside the continuous-time worst-case displacement
        bound the reachability analysis relies on.

        The arithmetic is written on floats, but every operation keeps the
        operands and the order of the ``Vec3`` formulation (``clamp_norm``
        of the command, ``velocity * -drag``, ``velocity + (accel + drag)
        * dt``, ``clamp_norm`` of the speed, ``position + (v0 + v1) *
        (0.5 * dt)``), so the result is bit-for-bit that formulation's.
        """
        if not dt >= 0.0:
            raise ValueError("dt must be non-negative")
        if command.is_finite():
            acceleration = command.acceleration
            ax, ay, az = acceleration.x, acceleration.y, acceleration.z
        else:
            # A malformed command from an untrusted controller must not
            # corrupt the plant state; treat it as "no thrust".
            ax = ay = az = 0.0
        params = self.params
        limit = params.max_acceleration
        n = math.sqrt((ax * ax + ay * ay) + az * az)
        if not (n <= limit or n == 0.0):
            scale = limit / n
            ax, ay, az = ax * scale, ay * scale, az * scale
        velocity, position = state.velocity, state.position
        vx, vy, vz = velocity.x, velocity.y, velocity.z
        drag = -params.drag
        wx = vx + (ax + vx * drag) * dt
        wy = vy + (ay + vy * drag) * dt
        wz = vz + (az + vz * drag) * dt
        limit = params.max_speed
        n = math.sqrt((wx * wx + wy * wy) + wz * wz)
        if not (n <= limit or n == 0.0):
            scale = limit / n
            wx, wy, wz = wx * scale, wy * scale, wz * scale
        half = 0.5 * dt
        return DroneState(
            Vec3(
                position.x + (vx + wx) * half,
                position.y + (vy + wy) * half,
                position.z + (vz + wz) * half,
            ),
            Vec3(wx, wy, wz),
        )

    def step_batch(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        accelerations: np.ndarray,
        dt: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`step` over ``(N, 3)`` state arrays.

        Evaluates the same floating-point expressions in the same order as
        the scalar step (clamp commanded acceleration, drag, trapezoidal
        position update, speed saturation), so the integrated trajectories
        are bit-for-bit identical to stepping each row through
        :meth:`step` — the property the batched well-formedness rollouts
        rely on.  Non-finite command rows are treated as "no thrust",
        mirroring the malformed-command guard of the scalar path.
        """
        if not dt >= 0.0:
            raise ValueError("dt must be non-negative")
        positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        velocities = np.asarray(velocities, dtype=float).reshape(-1, 3)
        accel = np.asarray(accelerations, dtype=float).reshape(-1, 3)
        accel = np.where(np.isfinite(accel).all(axis=1)[:, None], accel, 0.0)
        accel = clamp_norm_rows(accel, self.params.max_acceleration)
        drag_accel = velocities * (-self.params.drag)
        new_velocities = velocities + (accel + drag_accel) * dt
        new_velocities = clamp_norm_rows(new_velocities, self.params.max_speed)
        new_positions = positions + (velocities + new_velocities) * (0.5 * dt)
        return new_positions, new_velocities

    def brake_command(self, state: DroneState) -> ControlCommand:
        """Command that decelerates the drone as fast as possible."""
        if state.speed == 0.0:
            return ControlCommand.hover()
        direction = state.velocity.unit()
        return ControlCommand(acceleration=direction * (-self.params.max_acceleration))

    def time_to_stop(self, speed: float) -> float:
        """Time needed to brake from ``speed`` to rest at full deceleration."""
        speed = min(abs(speed), self.params.max_speed)
        return speed / self.params.max_acceleration


def default_drone_model() -> BoundedDoubleIntegrator:
    """The drone model used by the case-study experiments (a 3DR-Iris-like multirotor)."""
    return BoundedDoubleIntegrator(
        DoubleIntegratorParams(max_speed=5.0, max_acceleration=6.0, drag=0.05)
    )


def conservative_drone_model(max_speed: float = 1.5) -> BoundedDoubleIntegrator:
    """A slower model used when characterising the certified safe controller."""
    return BoundedDoubleIntegrator(
        DoubleIntegratorParams(max_speed=max_speed, max_acceleration=6.0, drag=0.05)
    )


def worst_case_reach_radius(
    model: DynamicsModel, state: DroneState, horizon: float
) -> float:
    """Radius of a ball guaranteed to contain every position reachable in ``horizon``.

    This is the sound over-approximation of Reach(s, *, horizon) used to
    implement the ``ttf_2Δ`` check of the decision module (Figure 9): no
    matter what the (possibly adversarial) advanced controller commands,
    the drone cannot move further than this from its current position.
    """
    return model.max_displacement(state.speed, horizon)
