"""The co-simulation's one substep loop, and the plant-in-the-loop tester environment.

:func:`integrate` is the only place a plant is flown: one
``DronePlant.apply`` per vehicle and physics substep, under the command
the vehicle's stack last published plus a per-vehicle gust.  Both
drivers call it:

* :class:`~repro.simulation.sim.DroneSimulation` (every mission) before
  every discrete step, with calm gusts and
  :data:`~repro.simulation.sim.PHYSICS_DT` substeps;
* :class:`PlantEnvironment` (the testers) once per gust window.

The registered scenarios abstract the continuous half of the stack away —
an :class:`~repro.testing.abstractions.AbstractEnvironment` teleports the
state estimate between menu points.  A :class:`PlantEnvironment` closes
the loop instead: it owns one real :class:`DronePlant` (plus estimator
and battery sensor) per vehicle, integrates it under the commands the
discrete stack publishes, and feeds the resulting sensor readings back,
as a tester-compatible environment whose only nondeterminism is a
finite, labelled *gust menu* sampled once per period.  The serial
:class:`~repro.testing.explorer.SystematicTester` and the
:class:`~repro.testing.population.PopulationTester` differ only in how
they schedule executions, never in how a window is integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..dynamics import ControlCommand
from ..geometry import Vec3
from .drone import DronePlant

#: The smallest ``physics_dt`` and ``period`` (s) a :class:`PlantEnvironment`
#: accepts.  A step far below its clock's resolution vanishes in rounding
#: (``0.25 - 1e-20 == 0.25``), and the clock would never reach the window's end.
MIN_STEP = 1e-6


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


def integrate(
    channels: Sequence[PlantChannel],
    engine,
    gusts: Sequence[Vec3],
    start: float,
    until: float,
    physics_dt: float,
) -> None:
    """Fly every channel's plant from ``start`` to ``until`` seconds.

    Each vehicle holds the command its stack last published and its gust
    for the whole interval.  Substeps are ``physics_dt`` long, the last
    one shortened to land on ``until``; within a substep the plants are
    applied in channel order.  Callers then set their clock to ``until``
    itself, not to the substep sum, which may miss it by an ulp.
    """
    commands = [channel.read_command(engine) for channel in channels]
    t = start
    while t < until - 1e-12:
        dt = min(physics_dt, until - t)
        for channel, command, gust in zip(channels, commands, gusts):
            channel.plant.apply(command, dt, gust)
        t += dt


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

    Each window is one :func:`integrate` call, whichever tester drives
    the environment.

    ``period`` and ``physics_dt`` must be finite and at least
    :data:`MIN_STEP`, and every gust finite: a non-finite clock would
    freeze the plants after t=0 (or fail mid-run), and a vanishing one
    would never finish a window.
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
            if not (math.isfinite(value) and value >= MIN_STEP):
                raise ValueError(
                    f"{name} must be finite and at least MIN_STEP={MIN_STEP} s, got {value!r}"
                )
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
        self._next_time = 0.0
        self._physics_time = 0.0
        self._window_gusts: List[Vec3] = [Vec3.zero() for _ in self.channels]

    # -- tester protocol ------------------------------------------------ #
    def bind_strategy(self, strategy) -> None:
        self.strategy = strategy

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
            integrate(
                self.channels, engine, self._window_gusts, self._physics_time, now, self.physics_dt
            )
            self._physics_time = now
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

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> Tuple[Any, ...]:
        """Everything that evolves between trie boundaries, as plain values.

        Plant fields are immutable value objects (``Vec3``/``DroneState``/
        ``BatteryState``/floats), so a tuple of references is already a
        snapshot; estimators and battery sensors capture their RNG
        streams through their own hooks.
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
            (
                channel.estimator.capture_delta_state(),
                None if channel.battery_sensor is None
                else channel.battery_sensor.capture_delta_state(),
            )
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
        for channel, row, (estimator, battery_sensor) in zip(self.channels, plants, sensors):
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
            channel.estimator.restore_delta_state(estimator)
            if channel.battery_sensor is not None:
                channel.battery_sensor.restore_delta_state(battery_sensor)
        self._touch()
