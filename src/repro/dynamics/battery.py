"""Battery model for the battery-safety RTA module (Section V-B of the paper).

The paper's battery module needs three ingredients:

* the evolving state of charge ``bt``,
* ``cost(u, T)`` — the charge consumed by applying control ``u`` for time
  ``T`` — and its worst case ``cost* = max_u cost(u, 2Δ)``,
* ``T_max`` — the (conservative) charge needed to land safely from the
  maximum altitude the drone can attain.

This module provides all three.  Charge is normalised to the interval
[0, 1] (fraction of full capacity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry.values import Value
from ..geometry.vec import row_norms
from .base import ControlCommand, DroneState


@dataclass
class BatteryParams:
    """Discharge characteristics of the drone battery."""

    # Charge fraction consumed per second just to stay powered (avionics + hover).
    idle_rate: float = 0.0008
    # Additional charge fraction per second per (m/s^2) of commanded acceleration.
    accel_rate: float = 0.0004
    # Maximum acceleration the battery model assumes when computing cost*.
    max_acceleration: float = 6.0
    # Vertical descent speed used when estimating the charge needed to land.
    descent_speed: float = 1.0
    # Maximum altitude the mission profile allows (used for the conservative T_max).
    max_altitude: float = 12.0

    def __post_init__(self) -> None:
        if self.idle_rate < 0.0 or self.accel_rate < 0.0:
            raise ValueError("discharge rates must be non-negative")
        if self.descent_speed <= 0.0:
            raise ValueError("descent_speed must be positive")
        if self.max_altitude <= 0.0:
            raise ValueError("max_altitude must be positive")


class BatteryState(Value):
    """State of charge in [0, 1]."""

    charge: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.charge <= 1.0:
            raise ValueError("battery charge must lie in [0, 1]")

    @property
    def depleted(self) -> bool:
        """True if the battery is empty."""
        return self.charge <= 0.0


class BatteryModel:
    """Charge dynamics plus the cost/landing bounds the battery DM needs."""

    def __init__(self, params: BatteryParams | None = None) -> None:
        self.params = params or BatteryParams()

    # ------------------------------------------------------------------ #
    # charge dynamics
    # ------------------------------------------------------------------ #
    def discharge_rate(self, command: ControlCommand) -> float:
        """Instantaneous discharge rate (fraction/second) under ``command``.

        The commanded acceleration's norm is written out on floats as
        :meth:`Vec3.norm` evaluates it, ``sqrt((x*x + y*y) + z*z)``.  A
        non-finite command discharges as a hover, which is how the
        dynamics fly it.
        """
        if not command.is_finite():
            command = ControlCommand.hover()
        acceleration = command.acceleration
        x, y, z = acceleration.x, acceleration.y, acceleration.z
        params = self.params
        accel = min(math.sqrt((x * x + y * y) + z * z), params.max_acceleration)
        return params.idle_rate + params.accel_rate * accel

    def step(self, battery: BatteryState, command: ControlCommand, dt: float) -> BatteryState:
        """Advance the state of charge by ``dt`` seconds."""
        if not dt >= 0.0:
            raise ValueError("dt must be non-negative")
        charge = battery.charge - self.discharge_rate(command) * dt
        return BatteryState(charge=max(0.0, min(1.0, charge)))

    def step_batch(
        self, charges: np.ndarray, accelerations: np.ndarray, dt: float
    ) -> np.ndarray:
        """Vectorised :meth:`step` over ``(N,)`` charges and ``(N, 3)`` commands.

        Evaluates the same floating-point expressions in the same order as
        the scalar path (a non-finite row discharges as a hover, saturate
        the commanded acceleration norm, linear discharge, clamp into
        [0, 1]), so the returned charges are
        bit-for-bit identical to stepping each row through :meth:`step` —
        the property the population execution plane relies on when it
        carries whole charge vectors through one call.
        """
        if not dt >= 0.0:
            raise ValueError("dt must be non-negative")
        charges = np.asarray(charges, dtype=float).reshape(-1)
        accelerations = np.asarray(accelerations, dtype=float).reshape(-1, 3)
        accel = np.minimum(row_norms(accelerations), self.params.max_acceleration)
        accel = np.where(np.isfinite(accelerations).all(axis=1), accel, 0.0)
        rates = self.params.idle_rate + self.params.accel_rate * accel
        return np.maximum(0.0, np.minimum(1.0, charges - rates * dt))

    # ------------------------------------------------------------------ #
    # the quantities used by the battery decision module
    # ------------------------------------------------------------------ #
    def cost(self, command: ControlCommand, duration: float) -> float:
        """Charge consumed by applying ``command`` for ``duration`` seconds."""
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        return self.discharge_rate(command) * duration

    def max_cost(self, duration: float) -> float:
        """``cost* = max_u cost(u, duration)`` — worst-case discharge over ``duration``."""
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        worst_rate = self.params.idle_rate + self.params.accel_rate * self.params.max_acceleration
        return worst_rate * duration

    def landing_time_bound(self, altitude: float | None = None) -> float:
        """Upper bound on the time needed to land from ``altitude``.

        Following the paper, the bound is conservative: if no altitude is
        supplied, the maximum mission altitude is assumed.
        """
        altitude = self.params.max_altitude if altitude is None else max(0.0, altitude)
        return altitude / self.params.descent_speed

    def landing_charge_bound(self, altitude: float | None = None) -> float:
        """``T_max`` — charge needed to descend and land safely (worst case)."""
        duration = self.landing_time_bound(altitude)
        # During a controlled descent the drone holds a modest acceleration;
        # assume half the maximum to stay conservative without being absurd.
        descent_rate = self.params.idle_rate + self.params.accel_rate * (
            0.5 * self.params.max_acceleration
        )
        return descent_rate * duration

    def time_to_failure_exceeded(
        self, battery: BatteryState, two_delta: float, altitude: float | None = None
    ) -> bool:
        """The paper's ``ttf_2Δ(bt, φ_safe) = bt - cost* < T_max`` check."""
        remaining_after_worst = battery.charge - self.max_cost(two_delta)
        return remaining_after_worst < self.landing_charge_bound(altitude)

    def endurance(self, state: DroneState | None = None) -> float:
        """Rough flight time available at nominal cruise discharge (for planning)."""
        nominal_rate = self.params.idle_rate + self.params.accel_rate * (
            0.3 * self.params.max_acceleration
        )
        return 1.0 / nominal_rate
