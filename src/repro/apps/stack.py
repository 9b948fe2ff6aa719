"""Builders for the full drone-surveillance software stack (Figure 8).

``build_stack`` assembles, from one :class:`StackConfig`, the complete
SOTER program — surveillance application, motion planner, battery module,
motion primitives — in any of the configurations the evaluation needs:

* the fully RTA-protected stack of Figure 8,
* the unprotected stack (advanced controllers only) used as the Figure 5
  baseline,
* the SC-only stack (conservative controllers only) used in the Figure 12a
  comparison,
* fault-injected variants of the planner and the advanced tracker.

The result bundles the compiled system with a ready-to-run co-simulation
and the mission-metric extraction used by every benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..control import (
    AggressiveTracker,
    LearnedTracker,
    MotionPrimitiveNode,
    SafeWaypointTracker,
    WaypointTracker,
)
from ..core.compiler import Program, SoterCompiler
from ..core.monitor import InvariantMonitor, MonitorSuite, SeparationMonitor, TopicSafetyMonitor
from ..core.semantics import SchedulingPolicy
from ..core.specs import SafetySpec
from ..core.system import RTASystem
from ..dynamics import (
    BatteryModel,
    BatteryParams,
    BoundedDoubleIntegrator,
    DoubleIntegratorParams,
    DroneState,
)
from ..geometry import Vec3, state_memo
from ..planning import FaultyPlanner, GridAStarPlanner, PlannerBug, RRTStarPlanner
from ..reachability import WorstCaseReachability, synthesize_safe_tracker
from ..runtime.faults import ChoiceFaultInjector, FaultSite
from ..simulation import (
    BatterySensor,
    DronePlant,
    DroneSimulation,
    MissionWorld,
    PlantChannel,
    SimulationResult,
    StateEstimator,
    surveillance_city,
)
from .metrics import MissionMetrics, metrics_from_result
from .modules import (
    BatteryModule,
    BatteryModuleConfig,
    MotionPrimitiveModule,
    MotionPrimitiveModuleConfig,
    PlannerModule,
    PlannerModuleConfig,
    build_battery_safety,
    build_safe_motion_planner,
    build_safe_motion_primitive,
)
from .nodes import PlanForwardNode, PlannerNode, StraightLinePlanner, SurveillanceNode
from .topics import DEFAULT_NAMESPACE, TopicNamespace, vehicle_namespace


@dataclass
class StackConfig:
    """One configuration of the drone software stack."""

    # world & mission ---------------------------------------------------- #
    world: MissionWorld = field(default_factory=surveillance_city)
    goals: Optional[Sequence[Vec3]] = None
    random_goals: int = 0
    loop_goals: bool = False
    goal_tolerance: float = 1.2
    start_position: Optional[Vec3] = None

    # which parts of the stack are RTA-protected ------------------------- #
    protect_motion_primitive: bool = True
    protect_battery: bool = True
    protect_planner: bool = False
    sc_only: bool = False  # unprotected variant that uses the certified tracker directly

    # controllers --------------------------------------------------------- #
    tracker: str = "aggressive"  # "aggressive" | "learned"
    cruise_speed: float = 3.5
    max_speed: float = 4.0
    max_acceleration: float = 6.0
    # A node-targeting FaultSite (or its encoded tuple form) wrapping the
    # tracker in a ChoiceFaultInjector, so fault timing/kind become labeled
    # choice points in the trail.  The injector takes the site's node name,
    # keeping trail labels and system node names consistent.
    tracker_fault_site: Optional[FaultSite] = None

    # planner -------------------------------------------------------------- #
    planner: str = "straight"  # "straight" | "rrt" | "astar"
    planner_clearance: float = 2.9
    planner_bug: Optional[PlannerBug] = None
    planner_bug_probability: float = 0.3

    # timing ---------------------------------------------------------------- #
    mp_delta: float = 0.1
    mp_period: float = 0.05
    planner_delta: float = 0.5
    planner_period: float = 0.5
    battery_delta: float = 1.0
    battery_period: float = 0.2
    surveillance_period: float = 0.5

    # battery ----------------------------------------------------------------- #
    initial_charge: float = 1.0
    battery_params: Optional[BatteryParams] = None

    # runtime / sensing --------------------------------------------------------- #
    scheduler: Optional[SchedulingPolicy] = None
    estimator_noise: float = 0.02
    with_invariant_monitor: bool = True
    safer_extra_margin: float = 0.5
    safe_speed_fraction: float = 0.35
    collision_margin: float = 0.05
    # Route clearance checks through the cached/batched safety-query plane
    # (bit-identical decisions; off only for equivalence tests/benchmarks).
    use_query_cache: bool = True
    seed: int = 0

    # Per-vehicle namespace over every topic, node, module and monitor name.
    # The default (empty-prefix) namespace reproduces the original
    # single-drone stack name for name; fleets give each vehicle its own
    # prefix so N protected stacks compose in one RTASystem.
    namespace: TopicNamespace = DEFAULT_NAMESPACE

    def mission_goals(self) -> Sequence[Vec3]:
        """The fixed goal sequence (the world's surveillance points by default)."""
        if self.goals is not None:
            return list(self.goals)
        return list(self.world.surveillance_points)


@dataclass
class BuiltStack:
    """A compiled stack plus its co-simulation and bookkeeping handles."""

    config: StackConfig
    program: Program
    system: RTASystem
    simulation: DroneSimulation
    plant: DronePlant
    surveillance: SurveillanceNode
    monitors: MonitorSuite
    motion_primitive: Optional[MotionPrimitiveModule] = None
    battery: Optional[BatteryModule] = None
    planner: Optional[PlannerModule] = None

    def run(self, duration: float) -> Tuple[MissionMetrics, SimulationResult]:
        """Run the mission and return its metrics plus the raw simulation result.

        The mission ends on a crash, once a non-looping tour is complete,
        or once a battery abort has landed the drone.
        """

        def stop(sim: DroneSimulation) -> bool:
            if self.surveillance.mission_complete and not self.config.loop_goals:
                return True
            if self.battery is not None and self._battery_abort_finished():
                return True
            return False

        result = self.simulation.run(duration, stop_when=stop)
        metrics = metrics_from_result(result, self.system, surveillance=self.surveillance)
        return metrics, result

    def _battery_abort_finished(self) -> bool:
        """True once a battery-triggered abort has ended with the drone on the ground."""
        assert self.battery is not None
        dm = self.system.module_named(self.battery.spec.name).decision
        aborted = any(switch.is_disengagement for switch in dm.switches)
        return aborted and self.plant.landed


def _make_tracker(config: StackConfig) -> WaypointTracker:
    if config.tracker == "aggressive":
        return AggressiveTracker(
            cruise_speed=config.cruise_speed, max_acceleration=config.max_acceleration
        )
    if config.tracker == "learned":
        return LearnedTracker(
            cruise_speed=min(config.cruise_speed, 3.5),
            max_acceleration=config.max_acceleration,
            seed=config.seed,
        )
    raise ValueError(f"unknown tracker {config.tracker!r} (expected 'aggressive' or 'learned')")


def _make_planner(config: StackConfig):
    workspace = config.world.workspace
    altitude = config.world.cruise_altitude
    if config.planner == "straight":
        planner = StraightLinePlanner(altitude=altitude)
    elif config.planner == "rrt":
        planner = RRTStarPlanner(
            workspace=workspace,
            clearance=config.planner_clearance,
            altitude=altitude,
            seed=config.seed,
        )
    elif config.planner == "astar":
        planner = GridAStarPlanner(
            workspace=workspace, clearance=config.planner_clearance, altitude=altitude
        )
    else:
        raise ValueError(f"unknown planner {config.planner!r}")
    if config.planner_bug is not None:
        planner = FaultyPlanner(
            inner=planner,
            bug=config.planner_bug,
            probability=config.planner_bug_probability,
            seed=config.seed,
        )
    return planner


@dataclass
class AssembledProgram:
    """The uncompiled drone program plus handles to its moving parts."""

    program: Program
    surveillance: SurveillanceNode
    model: BoundedDoubleIntegrator
    battery_model: BatteryModel
    planner_module: Optional[PlannerModule]
    battery_module: Optional[BatteryModule]
    mp_module: Optional[MotionPrimitiveModule]


def _assemble_program(config: StackConfig) -> AssembledProgram:
    """Assemble the (uncompiled) drone program described by ``config``.

    Every topic, node, module and monitor name is drawn from
    ``config.namespace``; the default namespace's empty prefix makes this
    exactly the original single-drone program, while per-vehicle prefixes
    let :func:`build_fleet_discrete_model` merge N assemblies into one
    composable system.
    """
    world = config.world
    workspace = world.workspace
    ns = config.namespace
    model = BoundedDoubleIntegrator(
        DoubleIntegratorParams(max_speed=config.max_speed, max_acceleration=config.max_acceleration)
    )
    battery_model = BatteryModel(config.battery_params or BatteryParams())

    program = Program(name=ns.scoped("drone-surveillance"), topics=ns.topics())

    # ----------------------------------------------------------------- #
    # application layer
    # ----------------------------------------------------------------- #
    surveillance = SurveillanceNode(
        goals=config.mission_goals(),
        workspace=workspace,
        name=ns.scoped("surveillance"),
        period=config.surveillance_period,
        goal_tolerance=config.goal_tolerance,
        loop=config.loop_goals,
        random_goals=config.random_goals,
        altitude=world.cruise_altitude,
        seed=config.seed,
        position_topic=ns.position,
        goal_topic=ns.goal,
    )
    program.add_node(surveillance)

    # ----------------------------------------------------------------- #
    # motion planner (plain or RTA-protected)
    # ----------------------------------------------------------------- #
    planner_module: Optional[PlannerModule] = None
    advanced_planner = _make_planner(config)
    if config.protect_planner:
        certified_planner = GridAStarPlanner(
            workspace=workspace,
            clearance=config.planner_clearance,
            altitude=world.cruise_altitude,
        )
        planner_module = build_safe_motion_planner(
            workspace=workspace,
            advanced_planner=advanced_planner,
            certified_planner=certified_planner,
            config=PlannerModuleConfig(
                delta=config.planner_delta,
                node_period=config.planner_period,
                plan_clearance=max(0.5, config.planner_clearance - 0.6),
                goal_topic=ns.goal,
                position_topic=ns.position,
                plan_topic=ns.motion_plan,
            ),
            name=ns.scoped("SafeMotionPlanner"),
        )
        program.add_module(planner_module.spec)
    else:
        program.add_node(
            PlannerNode(
                name=ns.scoped("motionPlanner"),
                planner=advanced_planner,
                period=config.planner_period,
                output_topic=ns.motion_plan,
                goal_topic=ns.goal,
                position_topic=ns.position,
            )
        )

    # ----------------------------------------------------------------- #
    # battery module (plain relay or RTA-protected)
    # ----------------------------------------------------------------- #
    battery_module: Optional[BatteryModule] = None
    if config.protect_battery:
        battery_module = build_battery_safety(
            battery_model=battery_model,
            config=BatteryModuleConfig(
                delta=config.battery_delta,
                node_period=config.battery_period,
                motion_plan_topic=ns.motion_plan,
                active_plan_topic=ns.active_plan,
                position_topic=ns.position,
                battery_topic=ns.battery,
            ),
            name=ns.scoped("BatterySafety"),
        )
        program.add_module(battery_module.spec)
    else:
        program.add_node(
            PlanForwardNode(
                name=ns.scoped("planRelay"),
                period=config.battery_period,
                input_topic=ns.motion_plan,
                output_topic=ns.active_plan,
            )
        )

    # ----------------------------------------------------------------- #
    # motion primitives (plain or RTA-protected)
    # ----------------------------------------------------------------- #
    mp_module: Optional[MotionPrimitiveModule] = None
    advanced_tracker: WaypointTracker = _make_tracker(config)
    tracker_site = FaultSite.coerce(config.tracker_fault_site)
    if config.protect_motion_primitive:
        mp_module = build_safe_motion_primitive(
            workspace=workspace,
            model=model,
            advanced_tracker=advanced_tracker,
            config=MotionPrimitiveModuleConfig(
                delta=config.mp_delta,
                node_period=config.mp_period,
                collision_margin=config.collision_margin,
                safer_extra_margin=config.safer_extra_margin,
                safe_speed_fraction=config.safe_speed_fraction,
                use_query_cache=config.use_query_cache,
                plan_topic=ns.active_plan,
                position_topic=ns.position,
                command_topic=ns.command,
            ),
            name=ns.scoped("SafeMotionPrimitive"),
        )
        if tracker_site is not None:
            faultable_ac = ChoiceFaultInjector(
                mp_module.advanced_node, tracker_site, rename=tracker_site.node
            )
            mp_module.spec.advanced = faultable_ac
            mp_module.advanced_node = faultable_ac  # type: ignore[assignment]
        program.add_module(mp_module.spec)
    else:
        if config.sc_only:
            params, _certificate = synthesize_safe_tracker(
                model, workspace, safe_speed_fraction=config.safe_speed_fraction
            )
            tracker: WaypointTracker = SafeWaypointTracker(params=params, workspace=workspace)
        else:
            tracker = advanced_tracker
        primitive = MotionPrimitiveNode(
            name=ns.scoped("motionPrimitive"),
            tracker=tracker,
            plan_topic=ns.active_plan,
            position_topic=ns.position,
            command_topic=ns.command,
            period=config.mp_period,
        )
        if tracker_site is not None:
            primitive = ChoiceFaultInjector(primitive, tracker_site, rename=tracker_site.node)
        program.add_node(primitive)

    return AssembledProgram(
        program=program,
        surveillance=surveillance,
        model=model,
        battery_model=battery_model,
        planner_module=planner_module,
        battery_module=battery_module,
        mp_module=mp_module,
    )


def _vehicle_monitors(
    config: StackConfig,
    system: RTASystem,
    model: BoundedDoubleIntegrator,
    mp_module: Optional[MotionPrimitiveModule],
) -> list:
    """One vehicle's monitors: the φ_obs topic monitor plus (optionally) φ_Inv.

    Both monitors' checks hit the workspace's cached
    :class:`ClearanceField` (when ``use_query_cache`` is on).  Names and
    topics come from the vehicle's namespace, so fleet compositions get
    one independent monitor set per vehicle.
    """
    workspace = config.world.workspace
    ns = config.namespace
    field = workspace.clearance_field() if config.use_query_cache else None
    monitors = []

    def _phi_obs(state) -> bool:
        if field is not None:
            return field.exceeds(state.position, 0.0)
        return workspace.clearance(state.position) > 0.0

    if field is not None:
        _phi_obs = state_memo(workspace, _phi_obs)  # one verdict per state object

    monitors.append(
        TopicSafetyMonitor(
            name=ns.scoped("phi_obs(estimated)"),
            topic=ns.position,
            spec=SafetySpec(name="phi_obs", predicate=_phi_obs),
        )
    )
    if config.with_invariant_monitor and mp_module is not None:
        reach = WorstCaseReachability(model)

        def _may_leave(state, horizon: float) -> bool:
            return reach.may_leave_safe(
                state, workspace, horizon, margin=config.collision_margin, field=field
            )

        if field is not None:
            _may_leave = state_memo(workspace, _may_leave)

        monitors.append(
            InvariantMonitor(
                module=system.module_named(mp_module.spec.name),
                may_leave_within=_may_leave,
            )
        )
    return monitors


def _safety_monitors(
    config: StackConfig,
    system: RTASystem,
    model: BoundedDoubleIntegrator,
    mp_module: Optional[MotionPrimitiveModule],
) -> MonitorSuite:
    """The single-vehicle monitor suite (see :func:`_vehicle_monitors`)."""
    return MonitorSuite(_vehicle_monitors(config, system, model, mp_module))


@dataclass
class DiscreteModel:
    """The compiled discrete model of the stack, without the plant co-simulation.

    This is what the systematic tester explores: the untrusted plant and
    sensors are *not* wired in — an abstract (nondeterministic)
    environment injects their topics instead, as Section V of the paper
    prescribes for the testing backend.
    """

    config: StackConfig
    program: Program
    system: RTASystem
    monitors: MonitorSuite
    surveillance: SurveillanceNode
    motion_primitive: Optional[MotionPrimitiveModule] = None
    battery: Optional[BatteryModule] = None
    planner: Optional[PlannerModule] = None


def build_discrete_model(config: Optional[StackConfig] = None) -> DiscreteModel:
    """Assemble and compile the stack's discrete model for systematic testing."""
    config = config or StackConfig()
    assembled = _assemble_program(config)
    system = SoterCompiler(strict=True).compile(assembled.program).system
    monitors = _safety_monitors(config, system, assembled.model, assembled.mp_module)
    return DiscreteModel(
        config=config,
        program=assembled.program,
        system=system,
        monitors=monitors,
        surveillance=assembled.surveillance,
        motion_primitive=assembled.mp_module,
        battery=assembled.battery_module,
        planner=assembled.planner_module,
    )


def build_stack(config: Optional[StackConfig] = None) -> BuiltStack:
    """Assemble, compile, and wire the drone software stack described by ``config``."""
    config = config or StackConfig()
    assembled = _assemble_program(config)
    system = SoterCompiler(strict=True).compile(assembled.program).system
    monitors = _safety_monitors(config, system, assembled.model, assembled.mp_module)
    channel = build_plant_channel(config, assembled.model, assembled.battery_model)
    simulation = DroneSimulation(
        system=system,
        channels=[channel],
        scheduler=config.scheduler,
        monitors=monitors,
    )
    return BuiltStack(
        config=config,
        program=assembled.program,
        system=system,
        simulation=simulation,
        plant=channel.plant,
        surveillance=assembled.surveillance,
        monitors=monitors,
        motion_primitive=assembled.mp_module,
        battery=assembled.battery_module,
        planner=assembled.planner_module,
    )


def build_plant_channel(
    config: StackConfig,
    model: BoundedDoubleIntegrator,
    battery_model: BatteryModel,
    index: int = 0,
) -> PlantChannel:
    """One vehicle's plant, sensors and namespace topics.

    The sensor and command topics follow the vehicle's namespace: with a
    prefixed namespace the default topic names would publish where no
    node listens (a dead, vacuously-safe mission).  The label is the
    namespace prefix, or ``drone<index>`` for the empty default prefix.
    """
    ns = config.namespace
    plant = DronePlant(
        model=model,
        workspace=config.world.workspace,
        battery_model=battery_model,
        initial_state=DroneState(position=config.start_position or config.world.home),
        initial_charge=config.initial_charge,
        collision_margin=0.0,
    )
    return PlantChannel(
        plant=plant,
        estimator=StateEstimator(
            position_noise=config.estimator_noise,
            velocity_noise=config.estimator_noise,
            seed=config.seed,
        ),
        battery_sensor=BatterySensor(seed=config.seed + 1),
        command_topic=ns.command,
        position_topic=ns.position,
        battery_topic=ns.battery,
        label=ns.prefix.rstrip("/") or f"drone{index}",
    )


def run_mission(
    config: Optional[StackConfig] = None, duration: float = 120.0
) -> Tuple[MissionMetrics, SimulationResult]:
    """Convenience wrapper: build the stack and run one mission."""
    return build_stack(config).run(duration)


# --------------------------------------------------------------------------- #
# multi-vehicle fleets: N protected stacks in one shared airspace
# --------------------------------------------------------------------------- #
@dataclass
class FleetConfig:
    """N per-vehicle stack configurations sharing one airspace.

    Every vehicle must carry a distinct :class:`TopicNamespace` (the
    composability precondition: disjoint node names and output topics) and
    the same workspace instance (the shared coordinate frame the
    separation monitor reasons about).  Use :func:`fleet_configs` to build
    a conforming list from a single base configuration.
    """

    vehicles: Sequence[StackConfig]
    name: str = "drone-fleet"
    min_separation: float = 2.0
    with_separation_monitor: bool = True

    def __post_init__(self) -> None:
        if not self.vehicles:
            raise ValueError("a fleet needs at least one vehicle")
        prefixes = [config.namespace.prefix for config in self.vehicles]
        if len(set(prefixes)) != len(prefixes):
            raise ValueError(f"vehicle namespaces must be distinct, got {prefixes}")
        workspace = self.vehicles[0].world.workspace
        for config in self.vehicles[1:]:
            if config.world.workspace is not workspace:
                raise ValueError(
                    "all fleet vehicles must share one workspace instance "
                    "(the separation monitor needs a common coordinate frame)"
                )
        if self.min_separation <= 0.0:
            raise ValueError("min_separation must be positive")


def fleet_configs(count: int, base: Optional[StackConfig] = None) -> List[StackConfig]:
    """``count`` per-vehicle configurations derived from one base config.

    Vehicle ``i`` gets the :func:`~repro.apps.topics.vehicle_namespace`
    convention, seed ``base.seed + 2*i`` (spaced by two because each
    vehicle derives *two* sensor streams from its seed — estimator at
    ``seed``, battery sensor at ``seed + 1`` — and adjacent seeds would
    alias one vehicle's battery stream with the next one's estimator),
    and (for ``i > 0``) the mission's goal cycle rotated by three points
    with a matching start position, so fleet members fly interleaved
    tours of the same surveillance circuit.  Vehicle 0 keeps the base
    configuration untouched — a fleet of one is exactly the single-drone
    stack.
    """
    if count < 1:
        raise ValueError("a fleet needs at least one vehicle")
    base = base or StackConfig()
    configs: List[StackConfig] = []
    goals = list(base.mission_goals())
    for index in range(count):
        namespace = vehicle_namespace(index, count)
        if index == 0:
            configs.append(replace(base, namespace=namespace))
            continue
        shift = (3 * index) % len(goals) if goals else 0
        rotated = goals[shift:] + goals[:shift]
        configs.append(
            replace(
                base,
                namespace=namespace,
                seed=base.seed + 2 * index,
                goals=rotated,
                start_position=rotated[0] if rotated else base.start_position,
            )
        )
    return configs


@dataclass
class FleetVehicle:
    """One vehicle's handles inside a composed fleet."""

    config: StackConfig
    surveillance: SurveillanceNode
    model: BoundedDoubleIntegrator
    battery_model: BatteryModel
    motion_primitive: Optional[MotionPrimitiveModule] = None
    battery: Optional[BatteryModule] = None
    planner: Optional[PlannerModule] = None


@dataclass
class FleetModel:
    """The compiled discrete model of an N-vehicle fleet (no plants)."""

    config: FleetConfig
    program: Program
    system: RTASystem
    monitors: MonitorSuite
    vehicles: List[FleetVehicle]
    separation: Optional[SeparationMonitor] = None


def _merge_fleet_program(config: FleetConfig, assemblies: Sequence[AssembledProgram]) -> Program:
    """One program holding every vehicle's topics, nodes and modules."""
    program = Program(name=config.name)
    for assembled in assemblies:
        program.topics.extend(assembled.program.topics)
        program.nodes.extend(assembled.program.nodes)
        program.modules.extend(assembled.program.modules)
    return program


def _fleet_vehicles(
    config: FleetConfig, assemblies: Sequence[AssembledProgram]
) -> List[FleetVehicle]:
    return [
        FleetVehicle(
            config=vehicle_config,
            surveillance=assembled.surveillance,
            model=assembled.model,
            battery_model=assembled.battery_model,
            motion_primitive=assembled.mp_module,
            battery=assembled.battery_module,
            planner=assembled.planner_module,
        )
        for vehicle_config, assembled in zip(config.vehicles, assemblies)
    ]


def _fleet_monitors(
    config: FleetConfig, system: RTASystem, assemblies: Sequence[AssembledProgram]
) -> Tuple[MonitorSuite, Optional[SeparationMonitor]]:
    """Per-vehicle monitor sets plus the shared-airspace separation monitor.

    The separation monitor is only added for actual fleets (two or more
    vehicles): with a single vehicle there are no pairs to separate, and
    omitting it keeps the N=1 composition bit-identical to the
    single-drone stack.
    """
    monitors = MonitorSuite()
    for vehicle_config, assembled in zip(config.vehicles, assemblies):
        for monitor in _vehicle_monitors(
            vehicle_config, system, assembled.model, assembled.mp_module
        ):
            monitors.add(monitor)
    separation: Optional[SeparationMonitor] = None
    if config.with_separation_monitor and len(config.vehicles) >= 2:
        separation = SeparationMonitor(
            topics=[vehicle.namespace.position for vehicle in config.vehicles],
            min_separation=config.min_separation,
        )
        monitors.add(separation)
    return monitors, separation


def build_fleet_discrete_model(config: FleetConfig) -> FleetModel:
    """Assemble and compile the fleet's discrete model for systematic testing.

    The per-vehicle programs are merged into one :class:`Program`
    (disjoint namespaces make the composition valid by construction,
    re-checked by the compiler) and every vehicle keeps its own φ_obs and
    φ_Inv monitors; fleets of two or more additionally get the pairwise
    :class:`~repro.core.monitor.SeparationMonitor` over all position
    topics.
    """
    assemblies = [_assemble_program(vehicle) for vehicle in config.vehicles]
    program = _merge_fleet_program(config, assemblies)
    system = SoterCompiler(strict=True).compile(program).system
    monitors, separation = _fleet_monitors(config, system, assemblies)
    return FleetModel(
        config=config,
        program=program,
        system=system,
        monitors=monitors,
        vehicles=_fleet_vehicles(config, assemblies),
        separation=separation,
    )


@dataclass
class FleetStack:
    """A compiled fleet plus its co-simulation and bookkeeping handles."""

    config: FleetConfig
    program: Program
    system: RTASystem
    simulation: DroneSimulation
    monitors: MonitorSuite
    vehicles: List[FleetVehicle]
    channels: List[PlantChannel]
    separation: Optional[SeparationMonitor] = None

    @property
    def mission_complete(self) -> bool:
        return all(vehicle.surveillance.mission_complete for vehicle in self.vehicles)

    def run(self, duration: float) -> SimulationResult:
        """Run the fleet mission (stopping on a crash or when every tour is complete)."""
        return self.simulation.run(duration, stop_when=lambda sim: self.mission_complete)


def build_fleet_stack(config: FleetConfig) -> FleetStack:
    """Assemble, compile, and wire the N-vehicle fleet with per-vehicle plants.

    Every vehicle gets its own :class:`DronePlant`, state estimator and
    battery sensor, publishing on its namespace's sensor topics; one
    semantics engine drives the composed program while all plants
    integrate in lock-step (see :class:`~repro.simulation.DroneSimulation`).
    The compiled system and monitors come from
    :func:`build_fleet_discrete_model`, so the simulated fleet and the
    discrete model the testers explore are the same composition by
    construction.
    """
    model = build_fleet_discrete_model(config)
    channels = [
        build_plant_channel(vehicle.config, vehicle.model, vehicle.battery_model, index)
        for index, vehicle in enumerate(model.vehicles)
    ]
    simulation = DroneSimulation(
        system=model.system,
        channels=channels,
        scheduler=config.vehicles[0].scheduler,
        monitors=model.monitors,
    )
    return FleetStack(
        config=config,
        program=model.program,
        system=model.system,
        simulation=simulation,
        monitors=model.monitors,
        vehicles=model.vehicles,
        channels=channels,
        separation=model.separation,
    )
