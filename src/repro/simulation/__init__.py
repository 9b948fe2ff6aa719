"""Simulation substrate: worlds, the drone plant, sensors, wind, and the co-simulator."""

from .drone import BatteryStatus, DronePlant, PlantStatus
from .environment import ConstantWind, GustyWind, NoWind
from .plantenv import PlantChannel, PlantEnvironment
from .sensors import BatterySensor, PerfectEstimator, StateEstimator
from .sim import DroneSimulation, SimulationConfig, SimulationResult
from .world import MissionWorld, figure_eight_range, surveillance_city, waypoint_range

__all__ = [
    "BatteryStatus",
    "DronePlant",
    "PlantStatus",
    "ConstantWind",
    "GustyWind",
    "NoWind",
    "PlantChannel",
    "PlantEnvironment",
    "BatterySensor",
    "PerfectEstimator",
    "StateEstimator",
    "DroneSimulation",
    "SimulationConfig",
    "SimulationResult",
    "MissionWorld",
    "figure_eight_range",
    "surveillance_city",
    "waypoint_range",
]
