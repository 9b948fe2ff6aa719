"""Plant-in-the-loop environment for systematic testing.

The registered scenarios abstract the continuous half of the stack away —
an :class:`~repro.testing.abstractions.AbstractEnvironment` teleports the
state estimate between menu points.  This module closes the loop instead:
a :class:`PlantEnvironment` owns one real :class:`DronePlant` (plus
estimator and battery sensor) per vehicle, integrates it under the
commands the discrete stack publishes, and feeds the resulting sensor
readings back — the co-simulation pattern of
:class:`~repro.simulation.sim.DroneSimulation`, packaged as a
tester-compatible environment whose only nondeterminism is a finite,
labelled *gust menu* sampled once per period.

Two interchangeable integration paths exist:

* the **scalar path** loops ``plant.apply`` per vehicle — the oracle;
* the **row-group path** (:class:`RowGroupPlant`) gathers the K live
  vehicles' states into ``(K, …)`` structure-of-arrays matrices, advances
  a whole window with one ``apply_window`` (a ``step_batch`` + battery
  ``step_batch`` per physics substep, one ground-truth pass per window),
  and scatters the rows back — row-bitwise-identical to the scalar path,
  which ``tests/simulation/test_plantenv.py`` asserts with ``==``.

:class:`~repro.testing.population.PopulationTester` asks for the row-group
path (:meth:`PlantEnvironment.set_batch_plant`), which engages from
:data:`BATCH_PLANT_MIN_ROWS` vehicles; the serial
:class:`~repro.testing.explorer.SystematicTester` keeps the scalar path,
so the population plane's equivalence suite doubles as the oracle proof.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..dynamics import BatteryState, ControlCommand, DroneState
from ..geometry import Vec3
from ..geometry.vec import row_norms
from .drone import _CORNER_FACTOR, _GATE_HEADROOM, DronePlant

#: Minimum row-group size for the matrix path to pay for itself.  Below
#: this many vehicles numpy's fixed per-call cost exceeds the
#: vectorisation win over the gated scalar loop; on the 'plant-surveillance'
#: sweep of ``benchmarks/bench_population.py`` the two paths break even at
#: 8-10 vehicles and the matrix path wins from 12.
BATCH_PLANT_MIN_ROWS = 8


@dataclass
class PlantChannel:
    """One vehicle's plant + sensors and the topics that wire them in.

    ``command_topic`` is read from the engine board every environment
    period (the latest command the vehicle's stack published); the
    estimator's reading of the post-integration state is published on
    ``position_topic`` and the battery sensor's on ``battery_topic``
    (``None`` disables battery publishing).  ``label`` names the vehicle:
    its gust choice point in trails (``wind:<label>``) and its trajectory
    in a :class:`~repro.simulation.sim.DroneSimulation`, which uses the
    same channels.
    """

    plant: DronePlant
    estimator: Any
    command_topic: str
    position_topic: str
    battery_sensor: Any = None
    battery_topic: Optional[str] = None
    label: str = "drone"

    def reset(self) -> None:
        self.plant.reset()
        self.estimator.reset()
        if self.battery_sensor is not None:
            self.battery_sensor.reset()

    def read_command(self, engine) -> Optional[ControlCommand]:
        """The command the vehicle's stack last published (None = no thrust)."""
        command = engine.read_topic(self.command_topic)
        return command if isinstance(command, ControlCommand) else None

    def publish(self, engine) -> None:
        """ENVIRONMENT-INPUT: the estimated state, then the battery reading."""
        engine.set_input(self.position_topic, self.estimator.estimate(self.plant.state))
        if self.battery_sensor is not None and self.battery_topic is not None:
            engine.set_input(self.battery_topic, self.battery_sensor.measure(self.plant))


class RowGroupPlant:
    """K scalar :class:`DronePlant` rows stepped as one matrix plant.

    :meth:`step_window` gathers the scalar plants into ``(K, …)`` rows
    (:meth:`load_rows`), advances all of them through the window's physics
    substeps with one :meth:`apply_window` call, and scatters the rows
    back (:meth:`store_rows`), so callers observe plain scalar plants
    whose fields are bit-identical to K ``apply`` loops.

    Per-row semantics are those of :meth:`DronePlant.apply`: the same
    floating-point expressions evaluate in the same order, and rows that
    diverge — collided, battery-depleted, grounded — are carried by
    boolean masks (``np.where`` freezes) rather than control flow, so every
    row ends exactly where its scalar twin would.

    All plants must share one dynamics model, workspace and battery model
    instance — the same sharing the scalar path assumes.
    """

    def __init__(self, plants: Sequence[DronePlant]) -> None:
        if not plants:
            raise ValueError("a row group needs at least one plant")
        first = plants[0]
        for plant in plants:
            if (
                plant.model is not first.model
                or plant.workspace is not first.workspace
                or plant.battery_model is not first.battery_model
                or plant.collision_margin != first.collision_margin
                or plant.ground_altitude != first.ground_altitude
            ):
                raise ValueError("row-group plants must share model, workspace and margins")
        self._plants = list(plants)
        self.model = first.model
        self.workspace = first.workspace
        self._field = first.workspace.clearance_field()
        self.battery_model = first.battery_model
        self.collision_margin = first.collision_margin
        self.ground_altitude = first.ground_altitude
        self.batched_substeps = 0

    @property
    def size(self) -> int:
        return len(self._plants)

    def step_window(
        self,
        commands: np.ndarray,
        duration: float,
        dt: float,
        gusts: Optional[np.ndarray] = None,
    ) -> None:
        """Advance every row by ``duration`` seconds in ``dt`` substeps.

        ``commands``/``gusts`` are ``(K, 3)`` matrices held constant over
        the window, exactly as the scalar path holds one command and one
        gust per vehicle across the same substep loop.
        """
        if duration <= 0.0:
            return
        steps = []
        remaining = duration
        while remaining > 1e-12:
            step = min(dt, remaining)
            steps.append(step)
            remaining -= step
        self.load_rows()
        self.apply_window(commands, steps, gusts)
        self.batched_substeps += len(steps)
        self.store_rows()

    def load_rows(self) -> None:
        """Adopt the live state of the group's scalar plants as the ``(K, …)`` rows.

        The plants must share one mission clock (row groups advance in
        lock-step).  Stateful dynamics models restart their per-row batch
        state here (``begin_batch``), so groups should be loaded at points
        where that state is at rest — mission start or a snapshot boundary
        — exactly as the scalar path's shared-model usage assumes.
        """
        plants = self._plants
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
                (math.nan, math.nan, math.nan) if plant.collision_position is None
                else plant.collision_position.as_tuple()
                for plant in plants
            ],
            dtype=float,
        )
        self.time = float(plants[0].time)
        self.model.begin_batch(self.size)

    def apply_window(
        self,
        commands: np.ndarray,
        steps: Sequence[float],
        disturbances: Optional[np.ndarray] = None,
    ) -> None:
        """Advance every loaded row through the substeps ``steps`` under fixed commands.

        ``commands`` is a ``(K, 3)`` acceleration matrix (a hover is all
        zeros) and ``disturbances`` an optional ``(K, 3)`` additive gust
        matrix; rows whose disturbance is exactly zero skip the add,
        matching the scalar plant's ``norm() > 0`` guard bit for bit.  The
        result equals, field for field, one ``DronePlant.apply`` per row
        and substep.  The dynamics and battery run substep by substep; the
        ground truth (collisions, clearance) is evaluated once over every
        substep endpoint of the window, and a row's first collision ends
        its trajectory there: its fields are taken at that substep, where
        the per-substep loop would have frozen them.
        """
        if any(not dt >= 0.0 for dt in steps):
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

    def store_rows(self) -> None:
        """Scatter the ``(K, …)`` rows back into the group's scalar plants.

        The inverse of :meth:`load_rows`; every scalar field round-trips
        bit-exactly (``float`` of a float64 cell is the cell).
        """
        rows = zip(
            self._plants,
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
            if collided and all(map(math.isfinite, hit)):
                plant.collision_position = Vec3(*hit)
            else:
                plant.collision_position = None


class PlantEnvironment:
    """A tester environment that closes the loop through real plants.

    Every ``period`` seconds the environment

    1. integrates each vehicle's plant from the previous sample to now
       (``physics_dt`` substeps) under the command its stack most recently
       published plus the gust chosen for the window,
    2. draws the next window's gust per vehicle from ``gust_menu`` via the
       bound :class:`~repro.testing.strategies.ChoiceStrategy` (labelled
       ``wind:<channel.label>`` — these are the scenario's only
       environment choice points), and
    3. publishes each vehicle's estimated state and battery reading.

    The integration runs the scalar per-plant loop by default; a
    population tester asks for the row-group matrix path with
    :meth:`set_batch_plant` (bit-identical, see :class:`RowGroupPlant`).

    ``period`` and ``physics_dt`` must be finite and positive and every
    gust finite: a non-finite clock would freeze the plants after t=0 (or
    fail mid-run) instead of testing them.
    """

    def __init__(
        self,
        channels: Sequence[PlantChannel],
        gust_menu: Sequence[Vec3] = (Vec3.zero(),),
        period: float = 0.25,
        physics_dt: float = 0.05,
    ) -> None:
        if not channels:
            raise ValueError("a plant environment needs at least one channel")
        for name, value in (("period", period), ("physics_dt", physics_dt)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not gust_menu:
            raise ValueError("the gust menu must not be empty")
        for index, gust in enumerate(gust_menu):
            if not all(map(math.isfinite, gust.as_tuple())):
                raise ValueError(f"gust_menu[{index}] must be finite, got {gust!r}")
        self.channels = list(channels)
        self.gust_menu = list(gust_menu)
        self.period = period
        self.physics_dt = physics_dt
        self.strategy = None
        # Dirty tracking for incremental snapshots (repro.core.resettable):
        # the private clock never rewinds, so version ids stay unique.
        self._delta_clock = 0
        self.delta_version = 0
        self._row_group: Optional[RowGroupPlant] = None
        self._next_time = 0.0
        self._physics_time = 0.0
        self._window_gusts: List[Vec3] = [Vec3.zero() for _ in self.channels]

    # -- tester protocol ------------------------------------------------ #
    def bind_strategy(self, strategy) -> None:
        self.strategy = strategy

    def set_batch_plant(self, enabled: bool) -> None:
        """Toggle the row-group matrix path (population tester hook).

        Engaging is economic, not unconditional: below
        :data:`BATCH_PLANT_MIN_ROWS` vehicles the per-window gather/scatter
        plus numpy's fixed per-call cost outweigh the vectorisation win,
        so the scalar loop is kept.  Both paths are bit-identical.
        """
        if not (enabled and len(self.channels) >= BATCH_PLANT_MIN_ROWS):
            self._row_group = None
        elif self._row_group is None:
            self._row_group = RowGroupPlant([channel.plant for channel in self.channels])

    @property
    def batch_plant_active(self) -> bool:
        """Whether integration currently runs through the row-group plant."""
        return self._row_group is not None

    def _touch(self) -> None:
        clock = self._delta_clock + 1
        self._delta_clock = clock
        self.delta_version = clock

    def reset(self) -> None:
        for channel in self.channels:
            channel.reset()
        self._next_time = 0.0
        self._physics_time = 0.0
        self._window_gusts = [Vec3.zero() for _ in self.channels]
        self._touch()

    def apply(self, engine, upcoming_time: float) -> None:
        """Advance plants and publish sensor readings due before ``upcoming_time``."""
        advanced = False
        while self._next_time <= upcoming_time + 1e-12:
            now = self._next_time
            self._integrate_to(now, engine)
            self._window_gusts = [
                self._choose_gust(channel) for channel in self.channels
            ]
            for channel in self.channels:
                channel.publish(engine)
            self._next_time += self.period
            advanced = True
        if advanced:
            self._touch()

    # -- internals ------------------------------------------------------ #
    def _choose_gust(self, channel: PlantChannel) -> Vec3:
        menu = self.gust_menu
        if self.strategy is None:
            return menu[0]
        index = self.strategy.choose(len(menu), label=f"wind:{channel.label}")
        return menu[index]

    def _integrate_to(self, until: float, engine) -> None:
        duration = until - self._physics_time
        if duration <= 1e-12:
            return
        commands = [channel.read_command(engine) for channel in self.channels]
        gusts = self._window_gusts
        if self._row_group is not None:
            rows = np.zeros((len(commands), 3))
            for index, command in enumerate(commands):
                if command is not None:
                    rows[index] = command.acceleration.as_tuple()
            gust_rows = np.array([gust.as_tuple() for gust in gusts], dtype=float)
            self._row_group.step_window(rows, duration, self.physics_dt, gust_rows)
        else:
            remaining = duration
            while remaining > 1e-12:
                step = min(self.physics_dt, remaining)
                for channel, command, gust in zip(self.channels, commands, gusts):
                    channel.plant.apply(command, step, gust)
                remaining -= step
        self._physics_time = until

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> Tuple[Any, ...]:
        """Everything that evolves between trie boundaries, as plain values.

        Plant fields are immutable value objects (``Vec3``/``DroneState``/
        ``BatteryState``/floats), so a tuple of references is already a
        snapshot; estimators and sensors (RNG streams) are
        deep-copied.
        """
        plants = tuple(
            (
                channel.plant.time,
                channel.plant.state,
                channel.plant.battery,
                channel.plant.collided,
                channel.plant.collision_position,
                channel.plant.battery_failed,
                channel.plant.distance_flown,
                channel.plant.min_clearance,
            )
            for channel in self.channels
        )
        sensors = tuple(
            copy.deepcopy((channel.estimator, channel.battery_sensor))
            for channel in self.channels
        )
        return (
            self._next_time,
            self._physics_time,
            tuple(self._window_gusts),
            plants,
            sensors,
        )

    def restore_delta_state(self, state: Tuple[Any, ...]) -> None:
        """Rewind to a :meth:`capture_delta_state` point, in place."""
        next_time, physics_time, gusts, plants, sensors = state
        self._next_time = next_time
        self._physics_time = physics_time
        self._window_gusts = list(gusts)
        for channel, row, pair in zip(self.channels, plants, sensors):
            plant = channel.plant
            (
                plant.time,
                plant.state,
                plant.battery,
                plant.collided,
                plant.collision_position,
                plant.battery_failed,
                plant.distance_flown,
                plant.min_clearance,
            ) = row
            channel.estimator, channel.battery_sensor = copy.deepcopy(pair)
        self._touch()
