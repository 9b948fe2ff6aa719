"""Application-level SOTER nodes of the drone surveillance case study.

These are the nodes of Figure 3 / Figure 8 in the paper that are *not*
low-level controllers: the surveillance application layer, the motion
planner nodes (advanced and certified), and the two battery-module nodes
(the plan-forwarding relay and the safe-landing planner).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence

from ..core.node import Node
from ..core.resettable import StatelessSnapshot
from ..dynamics import DroneState
from ..geometry import Vec3, Workspace
from ..planning import Plan, landing_plan, straight_line_plan
from ..planning.faulty import Planner
from .topics import (
    ACTIVE_PLAN_TOPIC,
    BATTERY_TOPIC,
    GOAL_TOPIC,
    MOTION_PLAN_TOPIC,
    POSITION_TOPIC,
)


@dataclass
class StraightLinePlanner(StatelessSnapshot):
    """The trivial planner: fly straight at the goal (used for the g1..g4 missions)."""

    altitude: float = 2.0
    name: str = "straight-line"

    def plan(self, start: Vec3, goal: Vec3, created_at: float = 0.0) -> Optional[Plan]:
        return straight_line_plan(
            start.with_z(self.altitude), goal.with_z(self.altitude), planner=self.name, created_at=created_at
        )


class SurveillanceNode(Node):
    """The application layer: emits the next surveillance goal (Figure 3).

    The node walks through a goal sequence (optionally looping, optionally
    extending it with random goals), advancing whenever the drone reaches
    the current goal.  It implements the paper's application-level
    property informally: every surveillance point is eventually visited —
    and records how many visits happened so the mission metrics can report
    it.
    """

    def __init__(
        self,
        goals: Sequence[Vec3],
        workspace: Optional[Workspace] = None,
        name: str = "surveillance",
        period: float = 0.5,
        goal_tolerance: float = 1.2,
        loop: bool = True,
        random_goals: int = 0,
        altitude: float = 2.0,
        goal_margin: float = 3.0,
        seed: int = 0,
        position_topic: str = POSITION_TOPIC,
        goal_topic: str = GOAL_TOPIC,
    ) -> None:
        super().__init__(
            name=name,
            subscribes=(position_topic,),
            publishes=(goal_topic,),
            period=period,
        )
        self.position_topic = position_topic
        self.goal_topic = goal_topic
        if not goals and random_goals == 0:
            raise ValueError("the surveillance node needs goals (fixed or random)")
        if goal_tolerance <= 0.0:
            raise ValueError("goal_tolerance must be positive")
        self._initial_goals = list(goals)
        self.workspace = workspace
        self.goal_tolerance = goal_tolerance
        self.loop = loop
        self.random_goals = random_goals
        self.altitude = altitude
        self.goal_margin = goal_margin
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self.goals: List[Vec3] = list(self._initial_goals)
        for _ in range(self.random_goals):
            self.goals.append(self._random_goal())
        self.index = 0
        self.goals_visited = 0
        self.mission_complete = False

    def _random_goal(self) -> Vec3:
        if self.workspace is None:
            raise ValueError("random goals require a workspace")
        return self.workspace.random_free_point(
            self._rng, margin=self.goal_margin, altitude_range=(self.altitude, self.altitude)
        )

    # Delta-snapshot hooks (see repro.core.resettable): the RNG state and
    # goal tuples are immutable values, so references are already copies.
    def capture_delta_state(self) -> tuple:
        return (
            self._rng.getstate(),
            tuple(self.goals),
            self.index,
            self.goals_visited,
            self.mission_complete,
        )

    def restore_delta_state(self, state: tuple) -> None:
        rng_state, goals, index, visited, complete = state
        self._rng.setstate(rng_state)
        self.goals = list(goals)
        self.index = index
        self.goals_visited = visited
        self.mission_complete = complete

    @property
    def current_goal(self) -> Optional[Vec3]:
        if self.mission_complete:
            return None
        return self.goals[self.index]

    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        state = inputs.get(self.position_topic)
        goal = self.current_goal
        if goal is None:
            return {}
        if isinstance(state, DroneState) and state.position.distance_to(goal) <= self.goal_tolerance:
            self.goals_visited += 1
            self.index += 1
            if self.index >= len(self.goals):
                if self.loop:
                    self.index = 0
                else:
                    self.mission_complete = True
                    return {}
            goal = self.goals[self.index]
        return {self.goal_topic: goal}


class PlannerNode(Node):
    """A motion-planner node wrapping any planner implementation.

    Used both for the untrusted advanced planner (RRT*, possibly
    fault-injected) and for the certified safe planner (grid A*): the two
    instances differ only in the wrapped planner object and their names,
    which keeps the RTA module's P1b property satisfied by construction.
    """

    def __init__(
        self,
        name: str,
        planner: Planner,
        period: float = 0.5,
        replan_distance: float = 0.5,
        replan_interval: float = 3.0,
        output_topic: str = MOTION_PLAN_TOPIC,
        goal_topic: str = GOAL_TOPIC,
        position_topic: str = POSITION_TOPIC,
    ) -> None:
        super().__init__(
            name=name,
            subscribes=(goal_topic, position_topic),
            publishes=(output_topic,),
            period=period,
        )
        self.goal_topic = goal_topic
        self.position_topic = position_topic
        if replan_interval <= 0.0:
            raise ValueError("replan_interval must be positive")
        self.planner = planner
        self.replan_distance = replan_distance
        # Receding-horizon refresh: even with an unchanged goal the planner
        # re-queries periodically from the drone's current position, as a
        # sampling-based planner deployed on a moving robot would.
        self.replan_interval = replan_interval
        self.output_topic = output_topic
        self.reset()

    def reset(self) -> None:
        self._current_goal: Optional[Vec3] = None
        self._current_plan: Optional[Plan] = None
        self.plans_produced = 0
        self.failed_queries = 0
        self.planner.reset()

    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        goal = inputs.get(self.goal_topic)
        state = inputs.get(self.position_topic)
        if not isinstance(goal, Vec3) or not isinstance(state, DroneState):
            return {}
        if self._needs_replan(goal, now):
            plan = self.planner.plan(state.position, goal, created_at=now)
            if plan is None:
                self.failed_queries += 1
            else:
                self.plans_produced += 1
                self._current_plan = plan
                self._current_goal = goal
        if self._current_plan is None:
            return {}
        return {self.output_topic: self._current_plan}

    def _needs_replan(self, goal: Vec3, now: float) -> bool:
        if self._current_plan is None or self._current_goal is None:
            return True
        if self._current_goal.distance_to(goal) > self.replan_distance:
            return True
        return (now - self._current_plan.created_at) >= self.replan_interval

    # Delta-snapshot hooks: goals and plans are immutable values.
    def capture_delta_state(self) -> tuple:
        return (
            self._current_goal,
            self._current_plan,
            self.plans_produced,
            self.failed_queries,
            self.planner.capture_delta_state(),
        )

    def restore_delta_state(self, state: tuple) -> None:
        (
            self._current_goal,
            self._current_plan,
            self.plans_produced,
            self.failed_queries,
            planner_state,
        ) = state
        self.planner.restore_delta_state(planner_state)


class PlanForwardNode(StatelessSnapshot, Node):
    """The battery module's advanced controller: forwards the motion plan unchanged.

    (Section V-B: "N_ac is a node that receives the current motion plan
    from the planner and simply forwards it to the motion primitives
    module.")
    """

    def __init__(
        self,
        name: str = "batteryForward",
        period: float = 0.2,
        input_topic: str = MOTION_PLAN_TOPIC,
        output_topic: str = ACTIVE_PLAN_TOPIC,
    ) -> None:
        super().__init__(
            name=name,
            subscribes=(input_topic,),
            publishes=(output_topic,),
            period=period,
        )
        self.input_topic = input_topic
        self.output_topic = output_topic

    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        plan = inputs.get(self.input_topic)
        if not isinstance(plan, Plan):
            return {}
        return {self.output_topic: plan}


class SafeLandingPlannerNode(Node):
    """The battery module's safe controller: a certified planner that lands the drone.

    While disabled it keeps an up-to-date landing plan from the drone's
    current position; once the battery DM engages it, that plan becomes
    the active plan and the motion primitives descend and land.
    """

    def __init__(
        self,
        name: str = "batterySafeLanding",
        period: float = 0.2,
        refresh_distance: float = 1.5,
        position_topic: str = POSITION_TOPIC,
        battery_topic: str = BATTERY_TOPIC,
        output_topic: str = ACTIVE_PLAN_TOPIC,
    ) -> None:
        super().__init__(
            name=name,
            subscribes=(position_topic, battery_topic),
            publishes=(output_topic,),
            period=period,
        )
        self.refresh_distance = refresh_distance
        self.position_topic = position_topic
        self.output_topic = output_topic
        self.reset()

    def reset(self) -> None:
        self._plan: Optional[Plan] = None

    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        state = inputs.get(self.position_topic)
        if not isinstance(state, DroneState):
            return {}
        if self._plan is None or self._stale(state):
            self._plan = landing_plan(state.position, created_at=now)
        return {self.output_topic: self._plan}

    def _stale(self, state: DroneState) -> bool:
        assert self._plan is not None
        start = self._plan.waypoints[0]
        return state.position.horizontal_distance_to(start) > self.refresh_distance

    # Delta-snapshot hooks: plans are immutable values.
    def capture_delta_state(self) -> Optional[Plan]:
        return self._plan

    def restore_delta_state(self, state: Optional[Plan]) -> None:
        self._plan = state
