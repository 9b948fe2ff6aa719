"""The simulated drone plant: kinematics, battery, and collision bookkeeping.

This is the reproduction's stand-in for the Gazebo + PX4-in-the-loop plant
of the paper's evaluation.  It advances the selected dynamics model with
the currently commanded control, drains the battery, and detects
collisions against the workspace — the ground truth the mission metrics
are computed from.

The ground truth is exact, but most substeps are decided by the
workspace's :class:`~repro.geometry.clearance.ClearanceField` alone: its
cell bound ``lb(p) <= clearance(p) <= distance to every box`` already
proves that a far-from-everything substep cannot lower the running
minimum clearance, end inside an obstacle or cross one.  The exact
workspace queries run only when the bound cannot decide, so every plant
field is bit-identical to running them on every substep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..dynamics import (
    BatteryModel,
    BatteryState,
    ControlCommand,
    DroneState,
    DynamicsModel,
)
from ..geometry import Vec3, Workspace
from ..geometry.values import Value

#: Absolute headroom the obstacle and crossing gates demand of the cell
#: bound on top of their geometric threshold.  It covers the rounding of
#: the exact tests they stand in for (``lo - margin`` in the containment
#: test, the slab test's 1e-12 parallel cut-off), so a gated answer is
#: always the one the exact query gives.
_GATE_HEADROOM = 1e-9

#: ``AABB.contains`` inflates each axis by the margin, so a contained point
#: can lie ``sqrt(3) * margin`` from the box (at a corner), not ``margin``.
_CORNER_FACTOR = math.sqrt(3.0)


class BatteryStatus(Value):
    """The battery sensor reading published to the battery-safety RTA module."""

    charge: float
    altitude: float

    @property
    def depleted(self) -> bool:
        return self.charge <= 0.0


@dataclass
class PlantStatus:
    """A snapshot of everything the simulator knows about the plant."""

    time: float
    state: DroneState
    battery: BatteryState
    collided: bool
    distance_flown: float


class DronePlant:
    """Ground-truth drone: dynamics + battery + collision detection."""

    def __init__(
        self,
        model: DynamicsModel,
        workspace: Workspace,
        battery_model: Optional[BatteryModel] = None,
        initial_state: Optional[DroneState] = None,
        initial_charge: float = 1.0,
        collision_margin: float = 0.0,
        ground_altitude: float = 0.15,
    ) -> None:
        self.model = model
        self.workspace = workspace
        self.battery_model = battery_model or BatteryModel()
        self._initial_state = initial_state or DroneState(position=Vec3(1.0, 1.0, 2.0))
        self._initial_charge = initial_charge
        self.collision_margin = collision_margin
        self.ground_altitude = ground_altitude
        # The shared cell-bound oracle; its obstacle-count freshness check
        # keeps it sound if the workspace later grows an obstacle.
        self._field = workspace.clearance_field()
        # (position, obstacle count, exact clearance) of the last exact
        # query, keyed on the position object rather than invalidated in
        # ``apply``: snapshot restores assign ``state`` directly.
        self._clearance_memo: Optional[Tuple[Vec3, int, float]] = None
        # (position, obstacle count, cell bound) of the last substep's end,
        # which the next substep's crossing gate reuses for its start.
        # Keyed on the position object for the same reason.
        self._bound_memo: Optional[Tuple[Vec3, int, float]] = None
        self.reset()

    def reset(self) -> None:
        """Restore the plant to its construction-time state (Resettable).

        The workspace geometry and dynamics model are immutable and stay
        warm; only the evolving plant state — pose, battery, collision
        bookkeeping, odometry — rewinds, which lets a co-simulation reuse
        one plant across missions instead of rebuilding it.
        """
        self.state = self._initial_state
        self.battery = BatteryState(charge=self._initial_charge)
        self.collided = False
        self.collision_position: Optional[Vec3] = None
        self.battery_failed = False
        self.distance_flown = 0.0
        self.time = 0.0
        self.min_clearance = self.clearance

    # ------------------------------------------------------------------ #
    # plant evolution
    # ------------------------------------------------------------------ #
    def apply(self, command: Optional[ControlCommand], dt: float, disturbance: Vec3 = Vec3()) -> None:
        """Advance the plant by ``dt`` seconds under ``command`` (None = no thrust)."""
        if not dt >= 0.0:
            raise ValueError("dt must be non-negative")
        self.time += dt
        if self.collided:
            # A collided drone stays where it hit; only the clock advances.
            return
        command = command or ControlCommand.hover()
        if disturbance.norm() > 0.0:
            command = ControlCommand(
                acceleration=command.acceleration + disturbance, yaw_rate=command.yaw_rate
            )
        if self.battery.depleted and self.airborne:
            # No charge left: the drone free-falls (modelled as strong descent).
            command = ControlCommand(acceleration=Vec3(0.0, 0.0, -self.model.max_acceleration))
        previous_position = self.state.position
        self.state = self.model.step(self.state, command, dt)
        # Keep the drone on or above the ground plane.
        if self.state.position.z < 0.0:
            self.state = DroneState(
                position=self.state.position.with_z(0.0),
                velocity=Vec3(self.state.velocity.x, self.state.velocity.y, 0.0),
            )
        position = self.state.position
        # ``previous_position.distance_to(position)`` on floats.
        dx = previous_position.x - position.x
        dy = previous_position.y - position.y
        dz = previous_position.z - position.z
        step = math.sqrt((dx * dx + dy * dy) + dz * dz)
        self.distance_flown += step
        self.battery = self.battery_model.step(self.battery, command, dt)
        if self.battery.depleted and self.airborne:
            # Latch the failure: running out of charge in the air is a crash
            # (φ_bat violation) even though the drone subsequently falls to
            # the ground.
            self.battery_failed = True
        bound = self._field.lower_bound(position)
        self._update_collision(previous_position, step, bound)
        self._bound_memo = (position, len(self.workspace.obstacles), bound)
        # clearance >= bound >= min_clearance: the minimum cannot move.
        if not bound >= self.min_clearance:
            self.min_clearance = min(self.min_clearance, self.clearance)

    def _update_collision(self, previous_position: Vec3, step: float, bound: float) -> None:
        """Latch a collision; ``bound`` is the cell bound at the new position."""
        position = self.state.position
        # Only collisions while airborne count: sitting on the ground is fine.
        if not self.airborne:
            return
        workspace = self.workspace
        margin = self.collision_margin
        # Every box is farther than the bound, hence outside its margin.
        near_box = bound <= _CORNER_FACTOR * margin + _GATE_HEADROOM
        hit_obstacle = near_box and workspace.in_obstacle(position, margin=margin)
        out_of_bounds = not workspace.in_bounds(position)
        memo = self._bound_memo
        if (
            memo is not None
            and memo[0] is previous_position
            and memo[1] == len(workspace.obstacles)
        ):
            previous_bound = memo[2]
        else:
            previous_bound = self._field.lower_bound(previous_position)
        # The step stays inside the ball of radius ``step`` around its
        # start, which no box reaches when the start's bound exceeds it.
        if previous_bound > step + _GATE_HEADROOM:
            crossed = not workspace.in_bounds(previous_position)
        else:
            crossed = not workspace.segment_is_free(previous_position, position)
        if hit_obstacle or out_of_bounds or crossed:
            self.collided = True
            self.collision_position = position
            self.state = DroneState(position=position, velocity=Vec3.zero())

    # ------------------------------------------------------------------ #
    # derived observations
    # ------------------------------------------------------------------ #
    @property
    def airborne(self) -> bool:
        """True while the drone is above the ground-contact altitude."""
        return self.state.position.z > self.ground_altitude

    @property
    def clearance(self) -> float:
        """Current clearance to the nearest obstacle or boundary (exact).

        Computed at most once per plant position, so the trace sample taken
        after the last substep reuses the value ``apply`` needed.  Plant
        positions bypass the field's exact point memo: continuous positions
        never repeat and would only fill it.
        """
        position = self.state.position
        count = len(self.workspace.obstacles)
        memo = self._clearance_memo
        if memo is not None and memo[0] is position and memo[1] == count:
            return memo[2]
        value = self.workspace.clearance(position)
        self._clearance_memo = (position, count, value)
        return value

    @property
    def crashed(self) -> bool:
        """True if the drone collided or ran out of battery while airborne."""
        return self.collided or self.battery_failed

    @property
    def landed(self) -> bool:
        """True once the drone is on the ground and essentially at rest."""
        return (not self.airborne) and self.state.speed < 0.3

    def battery_status(self) -> BatteryStatus:
        """The value published on the battery-status topic."""
        return BatteryStatus(charge=self.battery.charge, altitude=self.state.position.z)

    def status(self) -> PlantStatus:
        """A snapshot for logging and metrics."""
        return PlantStatus(
            time=self.time,
            state=self.state,
            battery=self.battery,
            collided=self.collided,
            distance_flown=self.distance_flown,
        )
