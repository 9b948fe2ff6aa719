"""Simplified quadrotor model with first-order attitude lag.

The Gazebo simulations in the SOTER paper run the PX4 firmware against a
high-fidelity Iris model; the relevant effect for the safety argument is
that the commanded acceleration is not realised instantaneously (attitude
has to change first), which is what makes the aggressive controller
overshoot.  This model captures that with a first-order lag on the
realised acceleration on top of the bounded double integrator, providing a
higher-fidelity (but still laptop-friendly) alternative plant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..geometry import Vec3, clamp_norm_rows
from .base import ControlCommand, DroneState, DynamicsModel
from .double_integrator import DoubleIntegratorParams


@dataclass
class QuadrotorParams:
    """Parameters of the lagged quadrotor model."""

    max_speed: float = 5.0
    max_acceleration: float = 6.0
    attitude_time_constant: float = 0.25
    drag: float = 0.05

    def __post_init__(self) -> None:
        if self.attitude_time_constant <= 0.0:
            raise ValueError("attitude_time_constant must be positive")
        if self.max_speed <= 0.0 or self.max_acceleration <= 0.0:
            raise ValueError("speed and acceleration limits must be positive")


@dataclass
class QuadrotorInternalState:
    """Internal (non-kinematic) state: the currently realised acceleration."""

    realized_acceleration: Vec3 = field(default_factory=Vec3)


class LaggedQuadrotor(DynamicsModel):
    """Quadrotor whose realised acceleration lags the commanded acceleration.

    The lag state is kept inside the model instance (the simulator owns one
    model per plant), so from the controllers' point of view the interface
    is identical to the double integrator.
    """

    def __init__(self, params: QuadrotorParams | None = None) -> None:
        self.params = params or QuadrotorParams()
        self.internal = QuadrotorInternalState()
        # Per-row lag states of the current batched rollout; ``None`` until
        # the first :meth:`begin_batch`/:meth:`step_batch` call.
        self._internal_rows: Optional[np.ndarray] = None

    @property
    def max_speed(self) -> float:
        return self.params.max_speed

    @property
    def max_acceleration(self) -> float:
        return self.params.max_acceleration

    def reset(self) -> None:
        """Clear the internal lag state (e.g. between missions)."""
        self.internal = QuadrotorInternalState()
        self._internal_rows = None

    def step(self, state: DroneState, command: ControlCommand, dt: float) -> DroneState:
        """Advance position/velocity with a first-order lag on acceleration."""
        if not dt >= 0.0:
            raise ValueError("dt must be non-negative")
        if not command.is_finite():
            command = ControlCommand.hover()
        commanded = command.acceleration.clamp_norm(self.params.max_acceleration)
        # First-order lag: da/dt = (a_cmd - a) / tau
        tau = self.params.attitude_time_constant
        alpha = min(1.0, dt / tau)
        realized = self.internal.realized_acceleration.lerp(commanded, alpha)
        realized = realized.clamp_norm(self.params.max_acceleration)
        self.internal = QuadrotorInternalState(realized_acceleration=realized)
        drag_accel = state.velocity * (-self.params.drag)
        velocity = state.velocity + (realized + drag_accel) * dt
        velocity = velocity.clamp_norm(self.params.max_speed)
        position = state.position + (state.velocity + velocity) * (0.5 * dt)
        return DroneState(position=position, velocity=velocity)

    def begin_batch(self, count: int) -> None:
        """Start a ``count``-row batched rollout from the current lag state.

        Every row gets its own copy of the model's present realised
        acceleration, so rows evolve *independent* first-order lags — the
        per-row contract of :meth:`step_batch`.  (The inherited scalar-loop
        fallback threaded ``self.internal`` sequentially through the rows,
        so row *i* saw row *i - 1*'s lag state; the batched rollouts now
        call this hook before integrating instead.)
        """
        if count < 0:
            raise ValueError("batch row count must be non-negative")
        realized = self.internal.realized_acceleration
        self._internal_rows = np.tile(
            np.array(realized.as_tuple(), dtype=float), (count, 1)
        )

    def step_batch(
        self,
        positions: np.ndarray,
        velocities: np.ndarray,
        accelerations: np.ndarray,
        dt: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`step` over ``(N, 3)`` state arrays.

        Evaluates the same floating-point expressions in the same order as
        the scalar step (clamp the command, first-order lag blend, clamp
        the realised acceleration, drag, trapezoidal position update), so
        each row is bit-for-bit identical to stepping a dedicated scalar
        model carrying that row's lag state.  The per-row lag states are
        kept in ``self._internal_rows`` (seeded from the model's current
        scalar lag state by :meth:`begin_batch`, or on the first call) and
        carried across successive ``step_batch`` calls of one rollout.
        Non-finite command rows are treated as "no thrust", mirroring the
        malformed-command guard of the scalar path.
        """
        if not dt >= 0.0:
            raise ValueError("dt must be non-negative")
        positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        velocities = np.asarray(velocities, dtype=float).reshape(-1, 3)
        accel = np.asarray(accelerations, dtype=float).reshape(-1, 3)
        count = positions.shape[0]
        if self._internal_rows is None or self._internal_rows.shape[0] != count:
            self.begin_batch(count)
        internal = self._internal_rows
        accel = np.where(np.isfinite(accel).all(axis=1)[:, None], accel, 0.0)
        commanded = clamp_norm_rows(accel, self.params.max_acceleration)
        alpha = min(1.0, dt / self.params.attitude_time_constant)
        realized = internal + (commanded - internal) * alpha
        realized = clamp_norm_rows(realized, self.params.max_acceleration)
        self._internal_rows = realized
        drag_accel = velocities * (-self.params.drag)
        new_velocities = velocities + (realized + drag_accel) * dt
        new_velocities = clamp_norm_rows(new_velocities, self.params.max_speed)
        new_positions = positions + (velocities + new_velocities) * (0.5 * dt)
        return new_positions, new_velocities

    def as_double_integrator_params(self) -> DoubleIntegratorParams:
        """Conservative double-integrator abstraction of this model.

        The abstraction shares the same speed/acceleration bounds, so any
        worst-case reachability computed on the double integrator is also
        sound for the lagged quadrotor (the lag only removes behaviours).
        """
        return DoubleIntegratorParams(
            max_speed=self.params.max_speed,
            max_acceleration=self.params.max_acceleration,
            drag=self.params.drag,
        )
