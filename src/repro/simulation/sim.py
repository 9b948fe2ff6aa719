"""Co-simulation of drone plants with a compiled SOTER system.

This is the reproduction's Gazebo-with-firmware-in-the-loop: the SOTER
program runs under its discrete-event semantics while, between discrete
steps, every plant integrates its currently published control command at
a fine physics step (:data:`PHYSICS_DT`).  Before every discrete step the
simulator publishes each vehicle's (estimated) state and battery status
on the program's sensor topics — those are the ENVIRONMENT-INPUT
transitions of the formal semantics — and samples its monitors every
:data:`MONITOR_PERIOD` seconds of virtual time.

One :class:`DroneSimulation` drives N ≥ 1 vehicles, each wired in through
a :class:`~repro.simulation.plantenv.PlantChannel` (plant, sensors and
topics).  A single-drone stack passes one channel; a fleet passes one per
vehicle, and all plants then evolve in lock-step through the same
airspace — which is what the pairwise
:class:`~repro.core.monitor.SeparationMonitor` observes.  The plants fly
through :func:`~repro.simulation.plantenv.integrate`, the substep loop
the plant-in-the-loop testers' :class:`~repro.simulation.plantenv.PlantEnvironment`
runs too, here with calm air.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.monitor import MonitorCadence, MonitorSuite
from ..core.semantics import SchedulingPolicy, SemanticsEngine
from ..core.system import RTASystem
from ..geometry import Trajectory, Vec3, pairwise_separations
from ..runtime.tracing import ExecutionTrace
from .plantenv import PlantChannel, integrate

#: Physics substep of every mission plant (s).
PHYSICS_DT = 0.02
#: Virtual-time period of the mission's monitor samples (s).
MONITOR_PERIOD = 0.1

#: Per-step trace signals, sampled from each plant before every discrete step.
_SIGNALS = ("clearance", "battery", "speed")


@dataclass
class SimulationResult:
    """Everything one simulated mission produced."""

    engine: SemanticsEngine
    channels: List[PlantChannel]
    trace: ExecutionTrace
    monitors: MonitorSuite
    trajectories: Dict[str, Trajectory]
    end_time: float
    stop_reason: str

    @property
    def collided(self) -> bool:
        return any(channel.plant.collided for channel in self.channels)

    @property
    def crashed(self) -> bool:
        return any(channel.plant.crashed for channel in self.channels)

    @property
    def safe(self) -> bool:
        return not self.crashed and self.monitors.ok

    def min_separation_observed(self) -> float:
        """The smallest recorded pairwise separation across the mission.

        Trajectories are sampled at the same instants (every environment
        transition), so stacking them gives an ``(S, N, 3)`` window that
        one batched :func:`~repro.geometry.pairwise_separations` call
        reduces — the same query plane the separation monitor uses.
        """
        if len(self.channels) < 2:
            return float("inf")
        samples = [
            [sample.position.as_tuple() for sample in self.trajectories[channel.label].samples]
            for channel in self.channels
        ]
        length = min(len(track) for track in samples)
        if length == 0:
            return float("inf")
        stacked = np.array([track[:length] for track in samples], dtype=float)  # (N, S, 3)
        return float(pairwise_separations(stacked.transpose(1, 0, 2)).min())


class DroneSimulation:
    """Couples N ≥ 1 drone plants with one compiled :class:`RTASystem`."""

    def __init__(
        self,
        system: RTASystem,
        channels: Sequence[PlantChannel],
        scheduler: Optional[SchedulingPolicy] = None,
        monitors: Optional[MonitorSuite] = None,
    ) -> None:
        if not channels:
            raise ValueError("a simulation needs at least one vehicle channel")
        labels = [channel.label for channel in channels]
        if len(set(labels)) != len(labels):
            raise ValueError("vehicle labels must be distinct")
        self.system = system
        self.channels = list(channels)
        self.scheduler = scheduler
        self.monitors = monitors or MonitorSuite()
        self.trace = ExecutionTrace()
        self.engine = SemanticsEngine(system, scheduler=scheduler, listeners=[self.trace])
        self.trajectories: Dict[str, Trajectory] = {label: Trajectory() for label in labels}
        # A lone vehicle's signals keep their bare names; a fleet's are
        # prefixed with each vehicle's label.
        self._signals = [
            (channel, _SIGNALS if len(labels) == 1 else tuple(f"{channel.label}/{s}" for s in _SIGNALS))
            for channel in self.channels
        ]
        self._calm = [Vec3.zero()] * len(self.channels)
        self._cadence = MonitorCadence(self.monitors, MONITOR_PERIOD)
        self._physics_time = 0.0
        # Publish the initial sensor values so the very first node firings
        # already see a state estimate.
        self._publish_sensors()

    def reset(self) -> None:
        """Rewind the whole co-simulation to mission start (Resettable).

        Resets the plants, sensors, scheduler, monitors, trace, trajectories
        and semantics engine in place — the compiled system, workspace
        geometry and warm clearance caches are reused, so back-to-back
        missions skip the entire construction cost.
        """
        for channel in self.channels:
            channel.reset()
        reset = getattr(self.scheduler, "reset", None)
        if callable(reset):
            reset()
        self._cadence.reset()
        self.trace.reset()
        self.engine.reset()
        for trajectory in self.trajectories.values():
            trajectory.samples.clear()
        self._physics_time = 0.0
        self._publish_sensors()

    # ------------------------------------------------------------------ #
    # the environment hook (plant physics + sensor publication)
    # ------------------------------------------------------------------ #
    def _publish_sensors(self) -> None:
        for channel in self.channels:
            channel.publish(self.engine)

    def _environment(self, engine: SemanticsEngine, upcoming: float) -> None:
        integrate(self.channels, engine, self._calm, self._physics_time, upcoming, PHYSICS_DT)
        self._physics_time = upcoming
        for channel in self.channels:
            state = channel.plant.state
            self.trajectories[channel.label].append(
                time=upcoming, position=state.position, velocity=state.velocity
            )
        self._publish_sensors()
        add_sample = self.trace.add_sample
        for channel, (clearance, battery, speed) in self._signals:
            plant = channel.plant
            add_sample(upcoming, clearance, plant.clearance)
            add_sample(upcoming, battery, plant.battery.charge)
            add_sample(upcoming, speed, plant.state.speed)
        self._cadence.advance(engine, upcoming)

    # ------------------------------------------------------------------ #
    # running missions
    # ------------------------------------------------------------------ #
    def run(
        self,
        duration: float,
        stop_when: Optional[Callable[["DroneSimulation"], bool]] = None,
    ) -> SimulationResult:
        """Run the mission for up to ``duration`` seconds of simulated time.

        The run stops early after the step at which any plant crashed, or
        at which ``stop_when`` holds.  Simulated time continues from where
        the previous call stopped; :meth:`reset` rewinds to mission start.
        """
        stop_reason = "duration elapsed"

        def should_stop(engine: SemanticsEngine) -> bool:
            nonlocal stop_reason
            if any(channel.plant.crashed for channel in self.channels):
                stop_reason = "crash"
                return True
            if stop_when is not None and stop_when(self):
                stop_reason = "stop condition"
                return True
            return False

        self.engine.run_until(duration, environment=self._environment, stop_when=should_stop)
        return SimulationResult(
            engine=self.engine,
            channels=self.channels,
            trace=self.trace,
            monitors=self.monitors,
            trajectories=self.trajectories,
            end_time=self.engine.current_time,
            stop_reason=stop_reason,
        )
