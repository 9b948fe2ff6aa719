"""Mission metrics: the quantities the paper's evaluation reports.

Section V of the paper reports, per mission or per campaign: whether the
safety invariants held, how many *disengagements* occurred (an SC node
taking control from an AC node), what fraction of the time the advanced
controllers were in control (> 96 % in the endurance campaign), mission
times for the AC-only / RTA / SC-only variants, distance flown, and the
number of crashes.  :class:`MissionMetrics` collects all of these from a
finished simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.decision import Mode
from ..core.system import RTASystem
from ..simulation.sim import SimulationResult
from .nodes import SurveillanceNode


@dataclass
class MissionMetrics:
    """Aggregated outcome of one simulated mission."""

    mission_time: float
    distance_flown: float
    completed: bool
    collided: bool
    crashed: bool
    landed_safely: bool
    battery_depleted_in_air: bool
    goals_visited: int
    min_clearance: float
    final_charge: float
    disengagements: Dict[str, int] = field(default_factory=dict)
    reengagements: Dict[str, int] = field(default_factory=dict)
    ac_time_fraction: Dict[str, float] = field(default_factory=dict)
    monitor_violations: int = 0
    stop_reason: str = ""

    @property
    def total_disengagements(self) -> int:
        return sum(self.disengagements.values())

    @property
    def total_reengagements(self) -> int:
        return sum(self.reengagements.values())

    @property
    def safe(self) -> bool:
        """The paper's safety verdict: no collision and no airborne battery depletion."""
        return not self.collided and not self.battery_depleted_in_air

    def overall_ac_fraction(self) -> float:
        """Mean fraction of mission time the advanced controllers were in control."""
        if not self.ac_time_fraction:
            return 1.0
        return sum(self.ac_time_fraction.values()) / len(self.ac_time_fraction)

    def summary(self) -> str:
        lines = [
            f"mission time          : {self.mission_time:.1f} s ({self.stop_reason})",
            f"distance flown        : {self.distance_flown:.1f} m",
            f"completed             : {self.completed}",
            f"safe                  : {self.safe} (collided={self.collided}, "
            f"battery-depleted-in-air={self.battery_depleted_in_air})",
            f"landed safely         : {self.landed_safely}",
            f"goals visited         : {self.goals_visited}",
            f"min clearance         : {self.min_clearance:.2f} m",
            f"final charge          : {self.final_charge:.1%}",
            f"disengagements        : {self.total_disengagements} {dict(self.disengagements)}",
            f"AC-in-control fraction: {self.overall_ac_fraction():.1%}",
            f"monitor violations    : {self.monitor_violations}",
        ]
        return "\n".join(lines)


def metrics_from_result(
    result: SimulationResult,
    system: RTASystem,
    surveillance: Optional[SurveillanceNode] = None,
    goals_target: Optional[int] = None,
) -> MissionMetrics:
    """Build :class:`MissionMetrics` from a finished single-vehicle simulation."""
    plant = result.channels[0].plant
    disengagements: Dict[str, int] = {}
    reengagements: Dict[str, int] = {}
    ac_fraction: Dict[str, float] = {}
    for module in system.modules:
        dm = module.decision
        disengagements[module.name] = len(dm.disengagements)
        reengagements[module.name] = len(dm.reengagements)
        ac_fraction[module.name] = dm.time_fraction_in_mode(Mode.AC, 0.0, result.end_time)
    goals_visited = surveillance.goals_visited if surveillance is not None else 0
    if surveillance is not None and goals_target is None:
        completed = surveillance.mission_complete
    elif goals_target is not None:
        completed = goals_visited >= goals_target
    else:
        completed = not plant.crashed
    battery_depleted_in_air = plant.battery_failed
    return MissionMetrics(
        mission_time=result.end_time,
        distance_flown=plant.distance_flown,
        completed=completed,
        collided=plant.collided,
        crashed=plant.crashed,
        landed_safely=plant.landed and not plant.collided,
        battery_depleted_in_air=battery_depleted_in_air,
        goals_visited=goals_visited,
        min_clearance=plant.min_clearance,
        final_charge=plant.battery.charge,
        disengagements=disengagements,
        reengagements=reengagements,
        ac_time_fraction=ac_fraction,
        monitor_violations=len(result.monitors.violations),
        stop_reason=result.stop_reason,
    )


@dataclass
class CampaignMetrics:
    """Aggregate of many missions (the Section V-D endurance campaign)."""

    missions: List[MissionMetrics] = field(default_factory=list)

    def add(self, metrics: MissionMetrics) -> None:
        self.missions.append(metrics)

    @property
    def mission_count(self) -> int:
        return len(self.missions)

    @property
    def total_flight_time(self) -> float:
        return sum(m.mission_time for m in self.missions)

    @property
    def total_distance(self) -> float:
        return sum(m.distance_flown for m in self.missions)

    @property
    def total_disengagements(self) -> int:
        return sum(m.total_disengagements for m in self.missions)

    @property
    def crashes(self) -> int:
        return sum(1 for m in self.missions if m.crashed)

    @property
    def collisions(self) -> int:
        return sum(1 for m in self.missions if m.collided)

    def mean_ac_fraction(self) -> float:
        if not self.missions:
            return 1.0
        return sum(m.overall_ac_fraction() for m in self.missions) / len(self.missions)

    def summary(self) -> str:
        lines = [
            f"missions        : {self.mission_count}",
            f"flight time     : {self.total_flight_time:.0f} s",
            f"distance flown  : {self.total_distance / 1000.0:.2f} km",
            f"disengagements  : {self.total_disengagements}",
            f"crashes         : {self.crashes}",
            f"AC-in-control   : {self.mean_ac_fraction():.1%}",
        ]
        return "\n".join(lines)
