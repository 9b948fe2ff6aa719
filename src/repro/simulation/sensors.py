"""Trusted state estimators (the green blocks of Figure 3 in the paper).

The paper assumes the state estimators are trusted and "accurately provide
the system state within bounds"; the estimators here add bounded, seeded
noise so that assumption is represented (and the decision-module margins
can absorb it) without undermining it.  Violations of that trust (a
frozen, lagging or dead sensor) are topic sites of the fault plane on the
position or battery topic (:mod:`repro.runtime.faults`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.resettable import StatelessSnapshot
from ..dynamics import DroneState
from ..geometry import Vec3
from .drone import BatteryStatus, DronePlant


class _NoiseStream:
    """Delta-snapshot hooks of a sensor whose only state is its ``_rng``."""

    def capture_delta_state(self) -> tuple:
        return self._rng.getstate()

    def restore_delta_state(self, state: tuple) -> None:
        self._rng.setstate(state)  # in place: the stream object stays


@dataclass
class StateEstimator(_NoiseStream):
    """Adds bounded position/velocity noise to the ground-truth drone state."""

    position_noise: float = 0.03
    velocity_noise: float = 0.03
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.position_noise < 0.0 or self.velocity_noise < 0.0:
            raise ValueError("noise bounds must be non-negative")
        self._rng = random.Random(self.seed)

    def reset(self) -> None:
        """Re-seed the noise stream from the construction seed (Resettable)."""
        self._rng = random.Random(self.seed)

    def _bounded_noise(self, bound: float) -> Vec3:
        return Vec3(
            self._rng.uniform(-bound, bound),
            self._rng.uniform(-bound, bound),
            self._rng.uniform(-bound, bound) * 0.5,
        )

    def estimate(self, state: DroneState) -> DroneState:
        """A noisy but bounded estimate of the true state."""
        return DroneState(
            position=state.position + self._bounded_noise(self.position_noise),
            velocity=state.velocity + self._bounded_noise(self.velocity_noise),
        )


@dataclass
class BatterySensor(_NoiseStream):
    """Reports the state of charge with a small bounded error."""

    charge_noise: float = 0.002
    seed: int = 1
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.charge_noise < 0.0:
            raise ValueError("charge noise must be non-negative")
        self._rng = random.Random(self.seed)

    def reset(self) -> None:
        """Re-seed the noise stream from the construction seed (Resettable)."""
        self._rng = random.Random(self.seed)

    def measure(self, plant: DronePlant) -> BatteryStatus:
        """A noisy battery reading (clamped to [0, 1])."""
        noise = self._rng.uniform(-self.charge_noise, self.charge_noise)
        charge = min(1.0, max(0.0, plant.battery.charge + noise))
        return BatteryStatus(charge=charge, altitude=plant.state.position.z)


@dataclass
class PerfectEstimator(StatelessSnapshot):
    """Noise-free estimator for deterministic unit tests."""

    def estimate(self, state: DroneState) -> DroneState:
        return state
