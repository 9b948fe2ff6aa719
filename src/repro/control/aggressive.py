"""The untrusted high-performance tracker (PX4-autopilot stand-in).

Figure 5 (right) of the paper shows the PX4 low-level controller, optimised
for time, overshooting during high-speed manoeuvres and colliding with
obstacles near the reference trajectory.  This tracker reproduces that
failure mode: it cruises close to the plant's maximum speed, does not slow
down in anticipation of waypoint changes, and ignores obstacles entirely —
making it fast on straight legs and dangerous around corners, exactly the
profile the RTA module is designed to exploit safely.
"""

from __future__ import annotations

from ..dynamics import ControlCommand, DroneState
from ..geometry import Vec3
from .base import WaypointTracker


class AggressiveTracker(WaypointTracker):
    """Time-optimised waypoint tracker with no safety margin (untrusted AC)."""

    name = "aggressive-tracker"

    def __init__(
        self,
        cruise_speed: float = 4.5,
        max_acceleration: float = 6.0,
        velocity_gain: float = 3.0,
        corner_anticipation: float = 0.0,
    ) -> None:
        if cruise_speed <= 0.0 or max_acceleration <= 0.0:
            raise ValueError("speeds and accelerations must be positive")
        if not 0.0 <= corner_anticipation <= 1.0:
            raise ValueError("corner_anticipation must lie in [0, 1]")
        self.cruise_speed = cruise_speed
        self.max_acceleration = max_acceleration
        self.velocity_gain = velocity_gain
        # 0.0 = no anticipation (most aggressive); 1.0 = full braking at waypoints.
        self.corner_anticipation = corner_anticipation
        # The control law is a pure function of (state, target); systematic
        # testing feeds it a finite menu of estimates against repeating
        # plan waypoints, so exact-input memoisation turns most firings
        # into dict hits.  Bounded so continuous workloads cannot grow it.
        self._memo: dict = {}
        self._memo_limit = 4096

    def command(self, state: DroneState, target: Vec3, now: float) -> ControlCommand:
        position, velocity = state.position, state.velocity
        key = (
            position.x, position.y, position.z,
            velocity.x, velocity.y, velocity.z,
            target.x, target.y, target.z,
        )
        cached = self._memo.get(key)
        if cached is None:
            cached = self._compute_command(state, target)
            if len(self._memo) < self._memo_limit:
                self._memo[key] = cached
        return cached

    def _compute_command(self, state: DroneState, target: Vec3) -> ControlCommand:
        to_target = target - state.position
        distance = to_target.norm()
        if distance < 1e-6:
            desired_velocity = Vec3.zero()
        else:
            # Cruise at full speed toward the waypoint; only slow down very
            # close to the target, scaled by how much anticipation the
            # controller was configured with (none by default).
            slow_radius = self.corner_anticipation * (
                self.cruise_speed * self.cruise_speed / (2.0 * self.max_acceleration)
            )
            if distance < slow_radius and slow_radius > 0.0:
                speed = self.cruise_speed * (distance / slow_radius)
            else:
                speed = self.cruise_speed
            desired_velocity = to_target.unit() * speed
        acceleration = (desired_velocity - state.velocity) * self.velocity_gain
        return ControlCommand(acceleration=acceleration.clamp_norm(self.max_acceleration))
