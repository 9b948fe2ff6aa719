"""Builders for the three RTA modules of the drone surveillance stack (Figure 8).

* **Safe motion primitive** (Section V-A): the untrusted tracker is paired
  with a FaSTrack-style certified tracker; φ_safe is "the drone is clear
  of obstacles", φ_safer is the complement of the 2Δ backward reachable
  set of the obstacles, and ttf_2Δ comes from worst-case reachability of
  the bounded-dynamics plant.
* **Battery safety** (Section V-B): the advanced controller forwards the
  motion plan, the safe controller lands the drone; φ_safe is ``bt > 0``,
  φ_safer is ``bt > 85 %``, and ttf_2Δ is ``bt - cost* < T_max``.
* **Safe motion planner** (Section V-C): the untrusted (possibly
  bug-injected) RRT* planner is paired with a certified grid planner;
  φ_safe/φ_safer require the published plan to keep clearance from every
  obstacle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..control import MotionPrimitiveNode, SafeWaypointTracker, WaypointTracker
from ..core.module import ModuleCertificate, RTAModuleSpec
from ..core.node import Node
from ..core.specs import SafetySpec
from ..dynamics import BatteryModel, BatteryState, DroneState, DynamicsModel
from ..geometry import Vec3, Workspace, state_memo
from ..planning import PlanValidator
from ..planning.faulty import Planner
from ..reachability import (
    SampledControllerReachability,
    StateSampler,
    WorstCaseReachability,
    states_as_arrays,
    synthesize_safe_tracker,
)
from ..simulation.drone import BatteryStatus
from .nodes import PlanForwardNode, PlannerNode, SafeLandingPlannerNode
from .topics import (
    ACTIVE_PLAN_TOPIC,
    BATTERY_TOPIC,
    COMMAND_TOPIC,
    GOAL_TOPIC,
    MOTION_PLAN_TOPIC,
    POSITION_TOPIC,
)


# --------------------------------------------------------------------------- #
# safe motion primitive module (Section V-A)
# --------------------------------------------------------------------------- #
@dataclass
class MotionPrimitiveModuleConfig:
    """Tunables of the RTA-protected motion primitive.

    ``use_query_cache`` routes every clearance threshold check of the
    module (φ_safe, φ_safer, ``ttf_2Δ``, the safe tracker's urgency law)
    through the workspace's shared :class:`~repro.geometry.ClearanceField`.
    Decisions are bit-for-bit identical either way; the flag exists so
    equivalence tests and benchmarks can compare the cached and uncached
    planes.
    """

    delta: float = 0.1
    node_period: float = 0.05
    collision_margin: float = 0.05
    ttf_margin: float = 0.15
    safer_extra_margin: float = 0.5
    safe_speed_fraction: float = 0.3
    plan_topic: str = ACTIVE_PLAN_TOPIC
    position_topic: str = POSITION_TOPIC
    command_topic: str = COMMAND_TOPIC
    use_query_cache: bool = True

    def __post_init__(self) -> None:
        if self.delta <= 0.0 or self.node_period <= 0.0:
            raise ValueError("periods must be positive")
        if self.node_period > self.delta + 1e-12:
            raise ValueError("the controller period must not exceed Δ (property P1a)")


@dataclass
class MotionPrimitiveModule:
    """The built module spec plus the pieces tests and benchmarks reuse."""

    spec: RTAModuleSpec
    advanced_node: MotionPrimitiveNode
    safe_node: MotionPrimitiveNode
    safe_tracker: SafeWaypointTracker
    reachability: WorstCaseReachability
    safer_clearance: float
    config: MotionPrimitiveModuleConfig


def build_safe_motion_primitive(
    workspace: Workspace,
    model: DynamicsModel,
    advanced_tracker: WaypointTracker,
    config: Optional[MotionPrimitiveModuleConfig] = None,
    name: str = "SafeMotionPrimitive",
) -> MotionPrimitiveModule:
    """Construct the RTA-protected motion primitive of Section V-A."""
    config = config or MotionPrimitiveModuleConfig()
    reach = WorstCaseReachability(model)
    two_delta = 2.0 * config.delta
    tracker_params, certificate = synthesize_safe_tracker(
        model, workspace, safe_speed_fraction=config.safe_speed_fraction
    )
    # φ_safer must satisfy two constraints:
    #  * P3: it lies outside the 2Δ backward reachable set of the obstacles
    #    (clearance above the worst-case travel distance over 2Δ), and
    #  * hysteresis (Remark 3.3): handing control back to the AC must not
    #    immediately re-trigger ttf_2Δ even once the AC accelerates back to
    #    cruise speed, so it also dominates the unavoidable-travel radius at
    #    the plant's maximum speed (R5 strictly inside R4 in Figure 10).
    reach_full = model.max_displacement(model.max_speed, two_delta)
    cruise_state = DroneState(velocity=Vec3(model.max_speed, 0.0, 0.0))
    cruise_radius = (
        reach.unavoidable_travel_radius(cruise_state, two_delta)
        + config.ttf_margin
        + config.collision_margin
    )
    safer_clearance = max(reach_full, cruise_radius) + config.safer_extra_margin

    # The module's clearance threshold checks all go through the shared
    # safety-query plane: the cached ClearanceField answers the common
    # far-from-obstacle case from its memo.
    field = workspace.clearance_field() if config.use_query_cache else None

    def _clearance_exceeds(position: Vec3, threshold: float) -> bool:
        if field is not None:
            return field.exceeds(position, threshold)
        return workspace.clearance(position) > threshold

    def _verdict(predicate):
        # On the cached plane each predicate judges a state object once:
        # the DM, the monitors and the coverage plane then share the verdict.
        return state_memo(workspace, predicate) if field is not None else predicate

    safe_spec: SafetySpec[DroneState] = SafetySpec(
        name="phi_obs",
        predicate=_verdict(
            lambda state: _clearance_exceeds(state.position, config.collision_margin)
        ),
        description="the drone is outside every obstacle and inside the workspace",
    )
    safer_spec: SafetySpec[DroneState] = SafetySpec(
        name="phi_obs_safer",
        predicate=_verdict(lambda state: _clearance_exceeds(state.position, safer_clearance)),
        description=f"clearance exceeds the 2Δ worst-case travel distance ({safer_clearance:.2f} m)",
    )

    def _ttf(state: DroneState) -> bool:
        # Switch while the safe controller can still brake: worst-case travel
        # over 2Δ plus the stopping distance from the speed attainable then
        # (the value-function-style switching surface; see
        # WorstCaseReachability.unavoidable_travel_radius).
        radius = reach.unavoidable_travel_radius(state, two_delta) + config.ttf_margin
        return not _clearance_exceeds(state.position, radius + config.collision_margin)

    ttf = _verdict(_ttf)

    safe_tracker = SafeWaypointTracker(
        params=tracker_params,
        workspace=workspace,
        recovery_clearance=safer_clearance + 0.3,
        clearance_field=field,
    )
    advanced_node = MotionPrimitiveNode(
        name=f"{name}.ac",
        tracker=advanced_tracker,
        plan_topic=config.plan_topic,
        position_topic=config.position_topic,
        command_topic=config.command_topic,
        period=config.node_period,
    )
    safe_node = MotionPrimitiveNode(
        name=f"{name}.sc",
        tracker=safe_tracker,
        plan_topic=config.plan_topic,
        position_topic=config.position_topic,
        command_topic=config.command_topic,
        period=config.node_period,
    )
    module_certificate = ModuleCertificate(
        p2a_justification=(
            "FaSTrack-style certificate: the safe tracker caps its speed at "
            f"{tracker_params.max_speed:.2f} m/s, giving a stopping distance of "
            f"{certificate.stopping_distance:.2f} m < its obstacle margin "
            f"{tracker_params.obstacle_margin:.2f} m, so once clear of obstacles it stays clear"
        ),
        p2b_justification=(
            "the safe tracker's repulsion term increases clearance at ≥ "
            f"{certificate.recovery_rate:.2f} m/s until it exceeds the φ_safer threshold "
            f"{safer_clearance:.2f} m"
        ),
        p3_justification=(
            "worst-case displacement over 2Δ is "
            f"{reach_full:.2f} m, strictly below the φ_safer clearance {safer_clearance:.2f} m, "
            "so any controller keeps the drone clear of obstacles for 2Δ"
        ),
    )
    spec = RTAModuleSpec(
        name=name,
        advanced=advanced_node,
        safe=safe_node,
        delta=config.delta,
        safe_spec=safe_spec,
        safer_spec=safer_spec,
        ttf=ttf,
        state_topics=(config.position_topic,),
        certificate=module_certificate,
        description="RTA-protected motion primitive (obstacle avoidance)",
    )
    return MotionPrimitiveModule(
        spec=spec,
        advanced_node=advanced_node,
        safe_node=safe_node,
        safe_tracker=safe_tracker,
        reachability=reach,
        safer_clearance=safer_clearance,
        config=config,
    )


class DroneClosedLoopModel:
    """Closed-loop hooks for the falsification-based well-formedness checks.

    The sampler draws states from the recoverable region (speeds up to the
    advanced controller's envelope, clearance above the safe tracker's
    stopping distance) — mirroring the regions-of-operation discussion of
    Figure 10: P2a/P2b are obligations about the states the DM can actually
    hand to the SC.
    """

    def __init__(
        self,
        module: MotionPrimitiveModule,
        model: DynamicsModel,
        workspace: Workspace,
        seed: int = 0,
        simulation_dt: float = 0.02,
    ) -> None:
        self.module = module
        self.model = model
        self.workspace = workspace
        self.reach = WorstCaseReachability(model)
        self.rollouts = SampledControllerReachability(model, dt=simulation_dt)
        margin = module.safe_tracker.params.obstacle_margin
        self._safe_sampler = StateSampler(
            workspace=workspace,
            max_speed=module.safe_tracker.params.max_speed * 1.5,
            position_margin=margin,
            seed=seed,
        )
        self._safer_sampler = StateSampler(
            workspace=workspace,
            max_speed=module.safe_tracker.params.max_speed,
            position_margin=module.safer_clearance,
            seed=seed + 1,
        )

    # -- sampling -------------------------------------------------------- #
    def sample_safe_state(self) -> DroneState:
        return self._safe_sampler.sample_satisfying(self.module.spec.safe_spec.contains, 1)[0]

    def sample_safer_state(self) -> DroneState:
        return self._safer_sampler.sample_satisfying(self.module.spec.safer_spec.contains, 1)[0]

    def sample_safe_state_batch(self, count: int) -> List[DroneState]:
        """``count`` φ_safe states, drawn from the same stream as repeated
        :meth:`sample_safe_state` calls (the batched checker relies on
        sample-for-sample agreement with the scalar path)."""
        return self._safe_sampler.sample_satisfying(self.module.spec.safe_spec.contains, count)

    def sample_safer_state_batch(self, count: int) -> List[DroneState]:
        """``count`` φ_safer states; stream-identical to the scalar sampler."""
        return self._safer_sampler.sample_satisfying(self.module.spec.safer_spec.contains, count)

    # -- closed-loop rollouts -------------------------------------------- #
    def rollout_under_safe_controller(self, state: DroneState, duration: float) -> Sequence[DroneState]:
        target = state.position

        def controller(current: DroneState, now: float):
            return self.module.safe_tracker.command(current, target, now)

        return self.rollouts.rollout(state, controller, duration)

    def _rollout_positions_batch(
        self, states: Sequence[DroneState], duration: float
    ) -> np.ndarray:
        """Roll all N samples out and return the raw ``(T+1, N, 3)`` positions.

        One ``(N, 6)`` state matrix integrates through
        :meth:`SafeWaypointTracker.command_batch` and the dynamics model's
        ``step_batch``, both bit-identical to their scalar laws, so row
        ``i`` equals the positions of :meth:`rollout_under_safe_controller`
        from ``states[i]``.
        """
        tracker = self.module.safe_tracker
        targets = np.array([s.position.as_tuple() for s in states], dtype=float).reshape(-1, 3)

        def controller_batch(positions: np.ndarray, velocities: np.ndarray, now: float) -> np.ndarray:
            return tracker.command_batch(positions, velocities, targets, now)

        position_history, _ = self.rollouts.rollout_batch(states, controller_batch, duration)
        return position_history

    def rollout_safe_flags_batch(self, count: int, duration: float):
        """Draw ``count`` φ_safe starts, roll them out, verdict φ_safe per state.

        The whole pass stays in structure-of-arrays form: one state matrix
        through the batched SC law and dynamics, then a single
        ``clearance_batch`` over every visited position.  The flags equal
        mapping ``spec.safe_spec.contains`` over the scalar rollouts —
        both reduce to the same ``clearance > collision_margin``
        comparison on the same (bit-identical) trajectories.
        """
        starts = self.sample_safe_state_batch(count)
        positions = self._rollout_positions_batch(starts, duration)
        steps, samples, _ = positions.shape
        clearances = self.workspace.clearance_batch(positions.reshape(-1, 3))
        flags = (clearances > self.module.config.collision_margin).reshape(steps, samples)
        return starts, flags.T  # (N, T+1)

    def rollout_safer_flags_batch(self, count: int, duration: float):
        """Like :meth:`rollout_safe_flags_batch` but with φ_safer verdicts
        (clearance above the module's φ_safer threshold) — the P2b plane."""
        starts = self.sample_safe_state_batch(count)
        positions = self._rollout_positions_batch(starts, duration)
        steps, samples, _ = positions.shape
        clearances = self.workspace.clearance_batch(positions.reshape(-1, 3))
        flags = (clearances > self.module.safer_clearance).reshape(steps, samples)
        return starts, flags.T

    def worst_case_stays_safe(self, state: DroneState, horizon: float) -> bool:
        return not self.reach.may_leave_safe(
            state, self.workspace, horizon, margin=self.module.config.collision_margin
        )

    def worst_case_stays_safe_batch(self, states: Sequence[DroneState], horizon: float):
        """Vectorised :meth:`worst_case_stays_safe` — one reachability query for N states."""
        positions, speeds = states_as_arrays(states)
        return ~self.reach.may_leave_safe_batch(
            positions, speeds, self.workspace, horizon, margin=self.module.config.collision_margin
        )


# --------------------------------------------------------------------------- #
# battery-safety module (Section V-B)
# --------------------------------------------------------------------------- #
@dataclass
class BatteryModuleConfig:
    """Tunables of the battery-safety RTA module.

    The topic fields default to the single-drone names; a multi-vehicle
    composition passes its vehicle namespace's names instead so every
    fleet member carries its own battery plane.
    """

    delta: float = 1.0
    node_period: float = 0.2
    safer_charge: float = 0.85
    motion_plan_topic: str = MOTION_PLAN_TOPIC
    active_plan_topic: str = ACTIVE_PLAN_TOPIC
    position_topic: str = POSITION_TOPIC
    battery_topic: str = BATTERY_TOPIC

    def __post_init__(self) -> None:
        if self.delta <= 0.0 or self.node_period <= 0.0:
            raise ValueError("periods must be positive")
        if self.node_period > self.delta + 1e-12:
            raise ValueError("the controller period must not exceed Δ (property P1a)")
        if not 0.0 < self.safer_charge < 1.0:
            raise ValueError("safer_charge must lie strictly between 0 and 1")


@dataclass
class BatteryModule:
    """The built battery module plus its component nodes."""

    spec: RTAModuleSpec
    forward_node: PlanForwardNode
    landing_node: SafeLandingPlannerNode
    battery_model: BatteryModel
    config: BatteryModuleConfig


def build_battery_safety(
    battery_model: Optional[BatteryModel] = None,
    config: Optional[BatteryModuleConfig] = None,
    name: str = "BatterySafety",
) -> BatteryModule:
    """Construct the battery-safety RTA module of Section V-B."""
    config = config or BatteryModuleConfig()
    battery_model = battery_model or BatteryModel()
    forward = PlanForwardNode(
        name=f"{name}.ac",
        period=config.node_period,
        input_topic=config.motion_plan_topic,
        output_topic=config.active_plan_topic,
    )
    landing = SafeLandingPlannerNode(
        name=f"{name}.sc",
        period=config.node_period,
        position_topic=config.position_topic,
        battery_topic=config.battery_topic,
        output_topic=config.active_plan_topic,
    )

    safe_spec: SafetySpec[BatteryStatus] = SafetySpec(
        name="phi_bat",
        predicate=lambda status: status.charge > 0.0 or status.altitude <= 0.2,
        description="the drone never runs out of charge while airborne",
    )
    safer_spec: SafetySpec[BatteryStatus] = SafetySpec(
        name="phi_bat_safer",
        predicate=lambda status: status.charge > config.safer_charge,
        description=f"the battery holds more than {config.safer_charge:.0%} charge",
    )
    two_delta = 2.0 * config.delta

    def ttf(status: BatteryStatus) -> bool:
        # T_max is the paper's conservative, offline bound: the charge needed
        # to land from the maximum altitude the mission allows (not from the
        # current altitude), so the check never under-estimates the reserve.
        return battery_model.time_to_failure_exceeded(
            BatteryState(charge=status.charge), two_delta, altitude=None
        )

    certificate = ModuleCertificate(
        p2a_justification=(
            "the safe-landing planner descends at a bounded rate; by construction of T_max the "
            "remaining charge when it engages suffices to reach the ground, so bt never hits 0 in the air"
        ),
        p2b_justification=(
            "φ_safer (bt > 85 %) is only re-entered if the mission starts with a charged battery; "
            "the module therefore stays in SC after a low-battery abort, which is the intended "
            "mission-abort behaviour of the paper"
        ),
        p3_justification=(
            "the worst-case discharge over 2Δ is cost*; ttf_2Δ switches while bt - cost* ≥ T_max, so "
            "from φ_safer (bt > 85 %) no controller can deplete the battery within 2Δ"
        ),
    )
    spec = RTAModuleSpec(
        name=name,
        advanced=forward,
        safe=landing,
        delta=config.delta,
        safe_spec=safe_spec,
        safer_spec=safer_spec,
        ttf=ttf,
        state_topics=(config.battery_topic,),
        certificate=certificate,
        description="RTA-protected battery safety (safe landing on low charge)",
    )
    return BatteryModule(
        spec=spec,
        forward_node=forward,
        landing_node=landing,
        battery_model=battery_model,
        config=config,
    )


# --------------------------------------------------------------------------- #
# safe motion planner module (Section V-C)
# --------------------------------------------------------------------------- #
@dataclass
class PlannerModuleConfig:
    """Tunables of the RTA-protected motion planner."""

    delta: float = 0.5
    node_period: float = 0.5
    plan_clearance: float = 0.8
    goal_topic: str = GOAL_TOPIC
    position_topic: str = POSITION_TOPIC
    plan_topic: str = MOTION_PLAN_TOPIC

    def __post_init__(self) -> None:
        if self.delta <= 0.0 or self.node_period <= 0.0:
            raise ValueError("periods must be positive")
        if self.node_period > self.delta + 1e-12:
            raise ValueError("the planner period must not exceed Δ (property P1a)")
        if self.plan_clearance < 0.0:
            raise ValueError("plan_clearance must be non-negative")


@dataclass
class PlannerModule:
    """The built planner module plus its component nodes."""

    spec: RTAModuleSpec
    advanced_node: PlannerNode
    safe_node: PlannerNode
    validator: PlanValidator
    config: PlannerModuleConfig


def build_safe_motion_planner(
    workspace: Workspace,
    advanced_planner: Planner,
    certified_planner: Planner,
    config: Optional[PlannerModuleConfig] = None,
    name: str = "SafeMotionPlanner",
) -> PlannerModule:
    """Construct the RTA-protected motion planner of Section V-C."""
    config = config or PlannerModuleConfig()
    validator = PlanValidator(workspace, clearance=config.plan_clearance)
    advanced_node = PlannerNode(
        name=f"{name}.ac",
        planner=advanced_planner,
        period=config.node_period,
        output_topic=config.plan_topic,
        goal_topic=config.goal_topic,
        position_topic=config.position_topic,
    )
    safe_node = PlannerNode(
        name=f"{name}.sc",
        planner=certified_planner,
        period=config.node_period,
        output_topic=config.plan_topic,
        goal_topic=config.goal_topic,
        position_topic=config.position_topic,
    )
    safe_spec = SafetySpec(
        name="phi_plan",
        predicate=validator.is_valid,
        description="the published motion plan keeps clearance from every obstacle",
    )
    safer_spec = SafetySpec(
        name="phi_plan_safer",
        predicate=validator.is_valid,
        description="a collision-free plan is available, so the advanced planner may be retried",
    )

    def ttf(plan) -> bool:
        return not validator.is_valid(plan)

    certificate = ModuleCertificate(
        p2a_justification=(
            "the certified grid planner only returns plans validated against the inflated occupancy "
            "grid, so while it is in control the published plan always satisfies φ_plan"
        ),
        p2b_justification=(
            "the certified planner produces a valid plan within one period whenever one exists, which "
            "re-establishes φ_safer immediately"
        ),
        p3_justification=(
            "plans are data, not dynamics: a valid plan stays valid in a static workspace for any 2Δ, "
            "and an invalid plan published by the advanced planner is replaced after at most Δ while the "
            "motion-primitive module independently protects the drone (compositional argument, Thm 4.1)"
        ),
    )
    spec = RTAModuleSpec(
        name=name,
        advanced=advanced_node,
        safe=safe_node,
        delta=config.delta,
        safe_spec=safe_spec,
        safer_spec=safer_spec,
        ttf=ttf,
        state_topics=(config.plan_topic,),
        certificate=certificate,
        description="RTA-protected motion planner (plan-level collision avoidance)",
    )
    return PlannerModule(
        spec=spec,
        advanced_node=advanced_node,
        safe_node=safe_node,
        validator=validator,
        config=config,
    )
