"""K drone missions integrated in lock-step (structure-of-arrays plant).

The population execution plane of the systematic tester
(:mod:`repro.testing.population`) deduplicates *discrete* work — whole
executions that retrace known choice trails.  This module is its
continuous-dynamics counterpart: ``K`` copies of one mission advance as
``(K, …)`` state matrices through one :meth:`~repro.dynamics.DynamicsModel.step_batch`
/ :meth:`~repro.control.WaypointTracker.command_batch` /
:meth:`~repro.dynamics.BatteryModel.step_batch` call per physics tick,
instead of ``K`` scalar :class:`~repro.simulation.drone.DronePlant` loops.

Per-row semantics are **bit-identical** to :meth:`DronePlant.apply`: the
same floating-point expressions evaluate in the same order, and rows that
diverge — collided, battery-depleted, grounded — are carried by boolean
masks (``np.where`` freezes) rather than control flow, so every row ends
exactly where its scalar twin would.  ``tests/simulation`` asserts that
equality with ``==`` against a loop of real plants.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, nan
from typing import Optional, Sequence

import numpy as np

from ..control.base import WaypointTracker
from ..dynamics import BatteryModel, BatteryState, DroneState, DynamicsModel
from ..geometry import Vec3, Workspace
from ..geometry.vec import row_norms
from .drone import _CORNER_FACTOR, _GATE_HEADROOM, DronePlant


@dataclass
class PopulationStatus:
    """Per-row snapshot of the whole population (all arrays length ``K``)."""

    time: float
    positions: np.ndarray  # (K, 3)
    velocities: np.ndarray  # (K, 3)
    charges: np.ndarray  # (K,)
    collided: np.ndarray  # (K,) bool
    battery_failed: np.ndarray  # (K,) bool
    distance_flown: np.ndarray  # (K,)
    min_clearance: np.ndarray  # (K,)
    waypoint_index: np.ndarray  # (K,) int

    @property
    def crashed(self) -> np.ndarray:
        """Row-wise ``DronePlant.crashed``: collided or airborne depletion."""
        return self.collided | self.battery_failed

    @property
    def any_crashed(self) -> bool:
        return bool(self.crashed.any())


class PopulationSimulation:
    """``K`` :class:`DronePlant`-equivalent missions as one matrix plant.

    Every row runs the same closed loop — waypoint tracker in, dynamics +
    battery + collision bookkeeping out — over its own initial state,
    charge and waypoint list.  One call per tick to the tracker's
    ``command_batch`` and the model's ``step_batch`` replaces ``K``
    scalar control/integration calls, which is where the population
    plane's throughput comes from.

    Args:
        model: shared dynamics (stateful models must implement the
            ``begin_batch`` per-row contract).
        workspace: shared static geometry.
        tracker: shared waypoint tracker with a vectorised
            ``command_batch`` (bit-identical to its scalar ``command``).
        waypoints: ``(K, W, 3)`` per-row waypoint lists.  A row advances
            to its next waypoint when within ``waypoint_tolerance`` of
            the current one, and holds the last waypoint forever.
        initial_positions / initial_velocities: ``(K, 3)`` starting
            states (velocities default to rest).
        initial_charges: scalar or ``(K,)`` starting charge fractions.
        battery_model: shared charge dynamics.
        collision_margin / ground_altitude: as on :class:`DronePlant`.
        waypoint_tolerance: arrival radius for waypoint advancement.
    """

    def __init__(
        self,
        model: DynamicsModel,
        workspace: Workspace,
        tracker: Optional[WaypointTracker],
        waypoints: np.ndarray,
        initial_positions: np.ndarray,
        initial_velocities: Optional[np.ndarray] = None,
        initial_charges: float | np.ndarray = 1.0,
        battery_model: Optional[BatteryModel] = None,
        collision_margin: float = 0.0,
        ground_altitude: float = 0.15,
        waypoint_tolerance: float = 0.5,
    ) -> None:
        self.model = model
        self.workspace = workspace
        self._field = workspace.clearance_field()
        self.tracker = tracker
        self.battery_model = battery_model or BatteryModel()
        self.collision_margin = collision_margin
        self.ground_altitude = ground_altitude
        self.waypoint_tolerance = waypoint_tolerance
        self._waypoints = np.asarray(waypoints, dtype=float)
        if self._waypoints.ndim != 3 or self._waypoints.shape[2] != 3:
            raise ValueError("waypoints must be a (K, W, 3) array")
        size = self._waypoints.shape[0]
        self._initial_positions = (
            np.asarray(initial_positions, dtype=float).reshape(-1, 3).copy()
        )
        if self._initial_positions.shape[0] != size:
            raise ValueError("initial_positions must have one row per mission")
        if initial_velocities is None:
            self._initial_velocities = np.zeros((size, 3))
        else:
            self._initial_velocities = (
                np.asarray(initial_velocities, dtype=float).reshape(-1, 3).copy()
            )
            if self._initial_velocities.shape[0] != size:
                raise ValueError("initial_velocities must have one row per mission")
        self._initial_charges = np.broadcast_to(
            np.asarray(initial_charges, dtype=float), (size,)
        ).copy()
        self.reset()

    @property
    def size(self) -> int:
        """K — the number of missions in the population."""
        return self._waypoints.shape[0]

    def reset(self) -> None:
        """Rewind every row to mission start (Resettable).

        Shared geometry, tracker and models stay warm; only the ``(K, …)``
        state matrices rewind — the population analogue of
        :meth:`DronePlant.reset`.
        """
        self.time = 0.0
        self.positions = self._initial_positions.copy()
        self.velocities = self._initial_velocities.copy()
        self.charges = self._initial_charges.copy()
        self.collided = np.zeros(self.size, dtype=bool)
        self.battery_failed = np.zeros(self.size, dtype=bool)
        self.distance_flown = np.zeros(self.size)
        self.waypoint_index = np.zeros(self.size, dtype=int)
        self.collision_positions = np.full((self.size, 3), np.nan)
        self.min_clearance = self.workspace.clearance_batch(self.positions)
        self.model.begin_batch(self.size)

    # ------------------------------------------------------------------ #
    # the closed loop
    # ------------------------------------------------------------------ #
    def current_targets(self) -> np.ndarray:
        """The ``(K, 3)`` waypoint each row is currently tracking."""
        rows = np.arange(self.size)
        return self._waypoints[rows, self.waypoint_index]

    def _advance_waypoints(self) -> None:
        """Advance rows within tolerance of their target (one hop per tick)."""
        targets = self.current_targets()
        arrived = row_norms(targets - self.positions) < self.waypoint_tolerance
        last = self._waypoints.shape[1] - 1
        self.waypoint_index = np.where(
            arrived & (self.waypoint_index < last),
            self.waypoint_index + 1,
            self.waypoint_index,
        )

    def step(self, dt: float, disturbance: Vec3 = Vec3()) -> None:
        """One physics tick: track, integrate, drain, collide — all rows at once.

        Mirrors :meth:`DronePlant.apply` row by row: frozen (collided)
        rows advance only their clock; battery-depleted airborne rows
        free-fall; post-step rows clamp to the ground plane, latch battery
        failures and collisions, and fold the clearance at their (possibly
        frozen) position into ``min_clearance``.
        """
        if dt < 0.0:
            raise ValueError("dt must be non-negative")
        if self.tracker is None:
            raise ValueError(
                "step() needs a tracker; command-driven callers use apply_batch()"
            )
        self._advance_waypoints()
        commands = self.tracker.command_batch(
            self.positions, self.velocities, self.current_targets(), self.time
        )
        if disturbance.norm() > 0.0:
            disturbances: Optional[np.ndarray] = np.broadcast_to(
                np.asarray(disturbance.as_tuple(), dtype=float), (self.size, 3)
            )
        else:
            disturbances = None
        self.apply_batch(commands, dt, disturbances)

    def apply_batch(
        self,
        commands: np.ndarray,
        dt: float,
        disturbances: Optional[np.ndarray] = None,
    ) -> None:
        """Advance every row by ``dt`` under explicit per-row commands.

        The command-driven twin of :meth:`DronePlant.apply`: ``commands``
        is a ``(K, 3)`` acceleration matrix (one row per mission; a hover
        is all zeros) and ``disturbances`` an optional ``(K, 3)`` additive
        gust matrix.  Rows whose disturbance is exactly zero skip the add,
        matching the scalar plant's ``norm() > 0`` guard bit for bit.
        :meth:`step` derives its commands from the waypoint tracker and
        delegates here; a window of substeps under fixed commands is
        :meth:`apply_window`.
        """
        self.apply_window(commands, (dt,), disturbances)

    def apply_window(
        self,
        commands: np.ndarray,
        steps: Sequence[float],
        disturbances: Optional[np.ndarray] = None,
    ) -> None:
        """Advance every row through the substeps ``steps`` under fixed commands.

        Equal, field for field, to one :meth:`apply_batch` per substep with
        the same ``commands``/``disturbances`` — the testing plane's
        row-group adapter holds them constant over a sampling window, as
        the scalar path does.  The dynamics and battery run substep by
        substep; the ground truth (collisions, clearance) is evaluated once
        over every substep endpoint of the window, and a row's first
        collision ends its trajectory there: its fields are taken at that
        substep, where the per-substep loop would have frozen them.
        """
        if any(dt < 0.0 for dt in steps):
            raise ValueError("dt must be non-negative")
        active = ~self.collided
        if not steps or not active.any():
            for dt in steps:
                self.time += dt
            return
        size = self.size
        accelerations = np.array(commands, dtype=float, copy=True)
        if accelerations.shape != (size, 3):
            raise ValueError("commands must be a (K, 3) acceleration matrix")
        if disturbances is not None:
            gusts = np.asarray(disturbances, dtype=float)
            if gusts.shape != (size, 3):
                raise ValueError("disturbances must be a (K, 3) matrix")
            gusty = row_norms(gusts) > 0.0
            if gusty.any():
                accelerations[gusty] = accelerations[gusty] + gusts[gusty]
        ground = self.ground_altitude
        positions = [self.positions]
        charges = [self.charges]
        velocities = self.velocities
        for dt in steps:
            self.time += dt
            thrust = accelerations
            # Pre-step depletion while airborne: the drone free-falls.
            freefall = (charges[-1] <= 0.0) & (positions[-1][:, 2] > ground)
            if freefall.any():
                thrust = accelerations.copy()
                thrust[freefall] = (0.0, 0.0, -self.model.max_acceleration)
            new_positions, velocities = self.model.step_batch(
                positions[-1], velocities, thrust, dt
            )
            # Ground clamp: z < 0 rows land with vertical velocity zeroed.
            below = new_positions[:, 2] < 0.0
            if below.any():
                new_positions[below, 2] = 0.0
                velocities[below, 2] = 0.0
            positions.append(new_positions)
            charges.append(self.battery_model.step_batch(charges[-1], thrust, dt))
        count = len(steps)
        points = np.concatenate(positions)  # substep s runs points[s] -> points[s + 1]
        starts, ends = points[:-size], points[size:]
        travelled = row_norms(ends - starts).reshape(count, size)
        airborne = ends[:, 2].reshape(count, size) > ground
        # Collision latch (airborne rows only): obstacle hit, bounds exit,
        # or an obstacle crossed between the step's endpoints.  The gates
        # of DronePlant.apply: the cell bounds of the two endpoints decide
        # most substeps, and only the ones they leave open run the exact
        # queries.  A segment leaving the bounds is caught by the in-bounds
        # test of its endpoints, exactly as ``segment_is_free`` catches it.
        workspace = self.workspace
        margin = self.collision_margin
        bounds = self._field.lower_bound_batch(points).reshape(count + 1, size)
        inside = workspace.in_bounds_batch(points).reshape(count + 1, size)
        live = active & airborne
        hit = live & ~(inside[:-1] & inside[1:])
        flat_hit = hit.reshape(-1)
        near_box = np.flatnonzero(live & (bounds[1:] <= _CORNER_FACTOR * margin + _GATE_HEADROOM))
        if near_box.size:
            flat_hit[near_box] |= workspace.in_obstacle_batch(ends[near_box], margin=margin)
        near_path = np.flatnonzero(live & ~(bounds[:-1] > travelled + _GATE_HEADROOM))
        if near_path.size:
            flat_hit[near_path] |= ~workspace.segments_free_batch(
                starts[near_path], ends[near_path]
            )
        # Each row's last live substep: its first collision, else the last.
        collided = hit.any(axis=0)
        last = np.where(collided, hit.argmax(axis=0), count - 1)
        rows = np.arange(size)
        final = (last + 1, rows)
        clearances = workspace.clearance_batch(ends).reshape(count, size)
        min_clearance = np.minimum.accumulate(
            np.concatenate((self.min_clearance[None], clearances))
        )
        distance = np.add.accumulate(np.concatenate((self.distance_flown[None], travelled)))
        charges = np.array(charges)
        battery_failed = np.logical_or.accumulate((charges[1:] <= 0.0) & airborne)[last, rows]
        new_positions = points.reshape(count + 1, size, 3)[final]
        if collided.any():
            velocities[collided] = 0.0
            self.collision_positions[collided] = new_positions[collided]
        # Masked commit: frozen rows keep every field; rows colliding in
        # the window keep their position at the collision (frozen from then
        # on) and still record distance, charge and clearance up to it —
        # exactly the scalar order of DronePlant.apply.
        self.positions = np.where(active[:, None], new_positions, self.positions)
        self.velocities = np.where(active[:, None], velocities, self.velocities)
        self.distance_flown = np.where(active, distance[final], self.distance_flown)
        self.charges = np.where(active, charges[final], self.charges)
        self.battery_failed = self.battery_failed | (active & battery_failed)
        self.min_clearance = np.where(active, min_clearance[final], self.min_clearance)
        self.collided = self.collided | collided

    def run(self, duration: float, dt: float = 0.02) -> PopulationStatus:
        """Advance the whole population for ``duration`` seconds of mission time."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        remaining = duration
        while remaining > 1e-12:
            step = min(dt, remaining)
            self.step(step)
            remaining -= step
        return self.status()

    # ------------------------------------------------------------------ #
    # scalar-plant row exchange (the testing plane's row-group adapter)
    # ------------------------------------------------------------------ #
    def load_rows(self, plants: Sequence[DronePlant]) -> None:
        """Adopt the live state of ``K`` scalar plants as the ``(K, …)`` rows.

        The plants must share one mission clock (row groups advance in
        lock-step).  Stateful dynamics models restart their per-row batch
        state here (``begin_batch``), so groups should be loaded at points
        where that state is at rest — mission start or a snapshot boundary
        — exactly as the scalar path's shared-model usage assumes.
        """
        if len(plants) != self.size:
            raise ValueError("need exactly one plant per population row")
        self.positions = np.array(
            [plant.state.position.as_tuple() for plant in plants], dtype=float
        )
        self.velocities = np.array(
            [plant.state.velocity.as_tuple() for plant in plants], dtype=float
        )
        self.charges = np.array([plant.battery.charge for plant in plants], dtype=float)
        self.collided = np.array([plant.collided for plant in plants], dtype=bool)
        self.battery_failed = np.array([plant.battery_failed for plant in plants], dtype=bool)
        self.distance_flown = np.array([plant.distance_flown for plant in plants], dtype=float)
        self.min_clearance = np.array([plant.min_clearance for plant in plants], dtype=float)
        self.collision_positions = np.array(
            [
                (nan, nan, nan) if plant.collision_position is None
                else plant.collision_position.as_tuple()
                for plant in plants
            ],
            dtype=float,
        )
        self.time = float(plants[0].time)
        self.model.begin_batch(self.size)

    def store_rows(self, plants: Sequence[DronePlant]) -> None:
        """Scatter the ``(K, …)`` rows back into ``K`` scalar plants.

        The inverse of :meth:`load_rows`; every scalar field round-trips
        bit-exactly (``float`` of a float64 cell is the cell).
        """
        if len(plants) != self.size:
            raise ValueError("need exactly one plant per population row")
        rows = zip(
            plants,
            self.positions.tolist(),
            self.velocities.tolist(),
            self.charges.tolist(),
            self.collided.tolist(),
            self.battery_failed.tolist(),
            self.distance_flown.tolist(),
            self.min_clearance.tolist(),
            self.collision_positions.tolist(),
        )
        for plant, position, velocity, charge, collided, failed, distance, clearance, hit in rows:
            plant.state = DroneState(position=Vec3(*position), velocity=Vec3(*velocity))
            plant.battery = BatteryState(charge=charge)
            plant.collided = collided
            plant.battery_failed = failed
            plant.distance_flown = distance
            plant.min_clearance = clearance
            plant.time = float(self.time)
            if collided and all(map(isfinite, hit)):
                plant.collision_position = Vec3(*hit)
            else:
                plant.collision_position = None

    # ------------------------------------------------------------------ #
    # derived observations
    # ------------------------------------------------------------------ #
    @property
    def airborne(self) -> np.ndarray:
        """Row-wise ``DronePlant.airborne``."""
        return self.positions[:, 2] > self.ground_altitude

    @property
    def crashed(self) -> np.ndarray:
        """Row-wise ``DronePlant.crashed``."""
        return self.collided | self.battery_failed

    @property
    def landed(self) -> np.ndarray:
        """Row-wise ``DronePlant.landed`` (grounded and essentially at rest)."""
        return ~self.airborne & (row_norms(self.velocities) < 0.3)

    def status(self) -> PopulationStatus:
        """A copy-out snapshot of every row (for logging and metrics)."""
        return PopulationStatus(
            time=self.time,
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            charges=self.charges.copy(),
            collided=self.collided.copy(),
            battery_failed=self.battery_failed.copy(),
            distance_flown=self.distance_flown.copy(),
            min_clearance=self.min_clearance.copy(),
            waypoint_index=self.waypoint_index.copy(),
        )
