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
  vehicles' states into the ``(K, …)`` structure-of-arrays matrices of
  :class:`~repro.simulation.population.PopulationSimulation`, advances a
  whole window with one ``apply_window`` (a ``step_batch`` + battery
  ``step_batch`` per physics substep, one ground-truth pass per window),
  and scatters the rows back — row-bitwise-identical to the scalar path,
  which ``tests/simulation/test_plantenv.py`` asserts with ``==``.

:class:`~repro.testing.population.PopulationTester` switches the
row-group path on (:meth:`PlantEnvironment.set_batch_plant`); the serial
:class:`~repro.testing.explorer.SystematicTester` keeps the scalar path,
so the population plane's equivalence suite doubles as the oracle proof.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..dynamics import ControlCommand
from ..geometry import Vec3
from .drone import DronePlant
from .population import PopulationSimulation

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

    The adapter owns a tracker-less :class:`PopulationSimulation` sized to
    the group.  :meth:`step_window` gathers the scalar plants into the
    ``(K, …)`` rows (:meth:`PopulationSimulation.load_rows`), advances all
    of them through the window's physics substeps with one
    :meth:`~PopulationSimulation.apply_window` call, and scatters the rows
    back (:meth:`~PopulationSimulation.store_rows`), so callers observe plain
    scalar plants whose fields are bit-identical to K ``apply`` loops.

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
        size = len(self._plants)
        self.sim = PopulationSimulation(
            model=first.model,
            workspace=first.workspace,
            tracker=None,
            waypoints=np.zeros((size, 1, 3)),
            initial_positions=np.zeros((size, 3)),
            battery_model=first.battery_model,
            collision_margin=first.collision_margin,
            ground_altitude=first.ground_altitude,
        )
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
        sim = self.sim
        sim.load_rows(self._plants)
        sim.apply_window(commands, steps, gusts)
        self.batched_substeps += len(steps)
        sim.store_rows(self._plants)


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
    population tester enables the row-group matrix path with
    :meth:`set_batch_plant` (bit-identical, see :class:`RowGroupPlant`).
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
        if period <= 0.0 or physics_dt <= 0.0:
            raise ValueError("period and physics_dt must be positive")
        if not gust_menu:
            raise ValueError("the gust menu must not be empty")
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
        self._use_batch_plant = False
        self._next_time = 0.0
        self._physics_time = 0.0
        self._window_gusts: List[Vec3] = [Vec3.zero() for _ in self.channels]

    # -- tester protocol ------------------------------------------------ #
    def bind_strategy(self, strategy) -> None:
        self.strategy = strategy

    def set_batch_plant(self, enabled: bool, *, min_rows: Optional[int] = None) -> None:
        """Toggle the row-group matrix path (population tester hook).

        Engaging is economic, not unconditional: below ``min_rows``
        vehicles (default :data:`BATCH_PLANT_MIN_ROWS`) the per-window
        gather/scatter plus numpy's fixed per-call cost outweigh the
        vectorisation win, so the scalar loop is kept.  Both paths are
        bit-identical; pass ``min_rows=1`` to force the matrix path (as
        the differential tests do).
        """
        floor = BATCH_PLANT_MIN_ROWS if min_rows is None else max(1, int(min_rows))
        self._use_batch_plant = bool(enabled) and len(self.channels) >= floor
        if self._use_batch_plant and self._row_group is None:
            self._row_group = RowGroupPlant([channel.plant for channel in self.channels])

    @property
    def batch_plant_active(self) -> bool:
        """Whether integration currently runs through the row-group plant."""
        return self._use_batch_plant

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
        if self._use_batch_plant and self._row_group is not None:
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
