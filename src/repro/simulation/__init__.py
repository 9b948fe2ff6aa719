"""Simulation substrate: worlds, the drone plant, sensors, the plant loop, and the co-simulator."""

from .drone import BatteryStatus, DronePlant, PlantStatus
from .plantenv import MIN_STEP, PlantChannel, PlantEnvironment
from .sensors import BatterySensor, PerfectEstimator, StateEstimator
from .sim import PHYSICS_DT, DroneSimulation, SimulationResult
from .world import MissionWorld, figure_eight_range, surveillance_city, waypoint_range

__all__ = [
    "BatteryStatus",
    "DronePlant",
    "PlantStatus",
    "MIN_STEP",
    "PlantChannel",
    "PlantEnvironment",
    "BatterySensor",
    "PerfectEstimator",
    "StateEstimator",
    "PHYSICS_DT",
    "DroneSimulation",
    "SimulationResult",
    "MissionWorld",
    "figure_eight_range",
    "surveillance_city",
    "waypoint_range",
]
