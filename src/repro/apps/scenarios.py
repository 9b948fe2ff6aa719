"""Registered systematic-testing scenarios built on the drone case study.

Each builder constructs the *discrete* model of a stack configuration
(:func:`repro.apps.stack.build_discrete_model` — no plant, no sensors) and
wires an abstract nondeterministic environment over the topics the plant
would normally publish, exactly as the paper's testing backend replaces
untrusted components by abstractions (Section V).

All builders are deterministic and registered in the scenario registry
(:mod:`repro.testing.scenarios`), so benchmarks, examples, and both the
serial and the parallel tester construct these workloads by name:

* ``drone-surveillance``     — the protected surveillance stack; safe by
  default, ``include_unsafe_position=True`` lets the abstraction teleport
  the estimate into a building.
* ``battery-safety-abort``   — the battery RTA module under adversarial
  battery readings; ``include_critical=True`` adds a reading that
  violates φ_bat.
* ``faulty-planner``         — an abstracted planner that may emit a
  corner-cutting plan; the tester must find the φ_plan violation.
* ``multi-obstacle-geofence``— position estimates ranging over a pillar
  field; ``include_breach=True`` adds a point inside a pillar.
* ``multi-drone-surveillance`` — N protected stacks composed in one
  shared airspace with the pairwise :class:`SeparationMonitor`; a fleet
  of one is bit-identical to ``drone-surveillance``, and
  ``include_conflict=True`` adds a shared rendezvous point two drones can
  pick simultaneously (separation 0).
* ``multi-drone-crossing``    — two drones flying crossing street paths
  through one intersection; counterexamples (both at the crossing) are
  plentiful.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from functools import lru_cache, wraps
from typing import Callable, List, Optional, TypeVar

from ..core.compiler import Program, SoterCompiler
from ..core.module import RTAModuleSpec
from ..core.monitor import DeadlineMonitor, MonitorSuite, TopicSafetyMonitor
from ..core.node import FunctionNode
from ..core.regions import Region, classify_region
from ..core.specs import SafetySpec
from ..core.topics import Topic
from ..dynamics import DroneState
from ..geometry import AABB, Vec3, empty_workspace
from ..geometry.workspace import Workspace
from ..planning import GridAStarPlanner, Plan
from ..planning.validation import PlanValidator
from ..runtime.faults import ChoiceFaultInjector, FaultPlan, FaultPlane, FaultSite
from ..simulation import MissionWorld, surveillance_city
from ..simulation.drone import BatteryStatus
from ..simulation.plantenv import PlantEnvironment
from ..testing.abstractions import AbstractEnvironment, NondeterministicNode, constant_environment
from ..testing.explorer import ModelInstance
from ..testing.scenarios import register_scenario
from .modules import PlannerModuleConfig, build_safe_motion_planner
from .nodes import PlanForwardNode, PlannerNode
from .stack import (
    FleetConfig,
    StackConfig,
    build_discrete_model,
    build_fleet_discrete_model,
    build_plant_channel,
    fleet_configs,
)
from .topics import (
    ACTIVE_PLAN_TOPIC,
    BATTERY_TOPIC,
    GOAL_TOPIC,
    MOTION_PLAN_TOPIC,
    POSITION_TOPIC,
    vehicle_namespace,
)


_T = TypeVar("_T")


def _build_once(factory: Callable[[], _T]) -> Callable[[], _T]:
    """Memoize a zero-argument world factory, building at most once.

    A plain ``lru_cache`` lets concurrent first callers (a mission
    server's HTTP handler and mission runners, a thread fleet's drones)
    each build and densify their own copy; the lock makes them wait for
    the one build and share it.  ``cache_clear()`` drops the memo as
    ``lru_cache`` does.  A forked child gets a fresh lock: a worker forked
    while another thread is mid-build would otherwise inherit the lock
    held, with no thread left to release it.
    """
    memo = lru_cache(maxsize=None)(factory)

    @wraps(factory)
    def build() -> _T:
        with build.lock:  # type: ignore[attr-defined]
            return memo()

    def rearm() -> None:
        build.lock = threading.Lock()  # type: ignore[attr-defined]

    rearm()
    if hasattr(os, "register_at_fork"):
        os.register_at_fork(after_in_child=rearm)
    build.cache_clear = memo.cache_clear  # type: ignore[attr-defined]
    return build


@_build_once
def _shared_world():
    """One surveillance-city world per process, shared across executions.

    Scenario builders run once per explored execution; the world geometry
    (and with it the workspace's lazily warmed
    :class:`~repro.geometry.ClearanceField` memo) is immutable, so every
    execution in a worker process reuses the same instance.  This is what
    "build the safety-query oracle once per worker, not per execution"
    means in practice — builders must treat the shared world as read-only.

    The clearance field is densified up front: one batched sweep turns
    every in-workspace threshold query into an array lookup (with the
    lazy/exact fallback untouched), amortised across every execution the
    worker will ever run.
    """
    world = surveillance_city()
    world.workspace.clearance_field().densify()
    return world


@register_scenario(
    "drone-surveillance",
    description=(
        "Discrete model of the RTA-protected surveillance stack; the abstract "
        "environment nondeterministically places the state estimate at the "
        "mission's surveillance points.  Safe by default; with "
        "include_unsafe_position=True the estimate may land inside a building, "
        "which φ_obs flags."
    ),
    tags=("drone", "stack"),
)
def build_drone_surveillance(
    include_unsafe_position: bool = False,
    horizon: float = 1.0,
    environment_period: float = 0.25,
    seed: int = 0,
    use_query_cache: bool = True,
) -> ModelInstance:
    world = _shared_world() if use_query_cache else surveillance_city()
    config = StackConfig(
        world=world,
        planner="straight",
        protect_battery=False,
        protect_motion_primitive=True,
        use_query_cache=use_query_cache,
        seed=seed,
    )
    model = build_discrete_model(config)
    positions = [
        DroneState(position=world.surveillance_points[0]),
        DroneState(position=world.surveillance_points[3]),
        DroneState(position=world.surveillance_points[8]),
    ]
    if include_unsafe_position:
        # The centre of the first building: zero clearance, so φ_obs fails
        # on any execution in which the abstraction picks this estimate.
        inside = world.workspace.obstacles[0].center
        positions.append(DroneState(position=inside))
    environment = AbstractEnvironment(
        menus={POSITION_TOPIC: positions}, period=environment_period
    )
    return ModelInstance(
        system=model.system, monitors=model.monitors, environment=environment, horizon=horizon
    )


_BATTERY_FLOOR = 0.08
_GROUND_ALTITUDE = 0.15


def _phi_bat(status: BatteryStatus) -> bool:
    return status.charge > _BATTERY_FLOOR or status.altitude <= _GROUND_ALTITUDE


@register_scenario(
    "battery-safety-abort",
    description=(
        "The battery RTA module fed adversarial battery readings while the "
        "drone cruises.  φ_bat requires the charge to stay above the hard "
        "floor unless the drone is on the ground; include_critical=True adds "
        "an in-air reading below the floor, which the tester must find."
    ),
    tags=("drone", "battery"),
)
def build_battery_safety_abort(
    include_critical: bool = False,
    horizon: float = 1.0,
    environment_period: float = 0.25,
    seed: int = 0,
) -> ModelInstance:
    world = _shared_world()
    config = StackConfig(
        world=world,
        planner="straight",
        protect_battery=True,
        protect_motion_primitive=False,
        with_invariant_monitor=False,
        seed=seed,
    )
    model = build_discrete_model(config)
    model.monitors.add(
        TopicSafetyMonitor(
            name="phi_bat",
            topic=BATTERY_TOPIC,
            spec=SafetySpec("charge>floor|landed", _phi_bat),
        )
    )
    charges = [
        BatteryStatus(charge=1.0, altitude=2.0),
        BatteryStatus(charge=0.55, altitude=2.0),
        BatteryStatus(charge=0.2, altitude=2.0),
    ]
    if include_critical:
        charges.append(BatteryStatus(charge=0.02, altitude=2.0))
    cruise = DroneState(position=world.surveillance_points[0])
    environment = AbstractEnvironment(
        menus={POSITION_TOPIC: [cruise], BATTERY_TOPIC: charges},
        period=environment_period,
    )
    return ModelInstance(
        system=model.system, monitors=model.monitors, environment=environment, horizon=horizon
    )


@register_scenario(
    "faulty-planner",
    description=(
        "The untrusted motion planner replaced by its abstraction: every "
        "period it nondeterministically emits either a street-following plan "
        "or a corner-cutting straight line through a building.  φ_plan "
        "(plan validation) fails on the corner-cut, so counterexamples are "
        "plentiful — the scenario exercises early-stop and replay."
    ),
    tags=("drone", "planner", "unsafe"),
)
def build_faulty_planner(
    horizon: float = 1.0,
    planner_period: float = 0.25,
    clearance: float = 0.5,
) -> ModelInstance:
    world = _shared_world()
    workspace = world.workspace
    altitude = world.cruise_altitude
    home = Vec3(4.0, 4.0, altitude)
    goal = Vec3(46.0, 46.0, altitude)
    # The detour follows the streets; the corner-cut goes straight through
    # the middle of the block grid.
    detour = Plan(
        waypoints=(home, Vec3(4.0, 46.0, altitude), goal), goal=goal, planner="street-detour"
    )
    corner_cut = Plan(waypoints=(home, goal), goal=goal, planner="corner-cut")
    planner_abstraction = NondeterministicNode(
        "planner.abs",
        menus={MOTION_PLAN_TOPIC: [detour, corner_cut]},
        period=planner_period,
    )
    program = Program(
        name="faulty-planner-testing",
        topics=[
            Topic(MOTION_PLAN_TOPIC, Plan, description="abstracted planner output"),
            Topic(ACTIVE_PLAN_TOPIC, Plan, description="plan forwarded downstream"),
        ],
        nodes=[planner_abstraction, PlanForwardNode(period=planner_period)],
    )
    system = SoterCompiler(strict=False).compile(program).system
    validator = PlanValidator(workspace, clearance=clearance)
    monitors = MonitorSuite(
        [
            TopicSafetyMonitor(
                name="phi_plan",
                topic=ACTIVE_PLAN_TOPIC,
                spec=SafetySpec("plan keeps clearance", validator.is_valid),
            )
        ]
    )
    return ModelInstance(system=system, monitors=monitors, environment=None, horizon=horizon)


@_build_once
def _geofence_workspace():
    # Cached per process for the same reason as _shared_world: the pillar
    # field is immutable and its ClearanceField warms across executions.
    workspace = empty_workspace(side=20.0, ceiling=10.0, name="geofence-field")
    workspace.add_obstacle(AABB.from_footprint(5.0, 5.0, 2.0, 2.0, 8.0))
    workspace.add_obstacle(AABB.from_footprint(11.0, 9.0, 2.0, 2.0, 8.0))
    workspace.add_obstacle(AABB.from_footprint(7.0, 13.0, 2.0, 2.0, 8.0))
    workspace.clearance_field().densify()  # dense grid, amortised per process
    return workspace


@register_scenario(
    "multi-obstacle-geofence",
    description=(
        "Position estimates over a three-pillar field checked against a "
        "geofence predicate (free with margin).  Safe by default; "
        "include_breach=True adds an estimate inside a pillar."
    ),
    tags=("geometry", "geofence"),
)
def build_multi_obstacle_geofence(
    include_breach: bool = False,
    horizon: float = 1.0,
    environment_period: float = 0.25,
    margin: float = 0.2,
) -> ModelInstance:
    workspace = _geofence_workspace()

    def watch(now: float, inputs) -> dict:
        position = inputs.get("position")
        if position is None:
            return {}
        return {"fenceClearance": workspace.clearance(position)}

    program = Program(
        name="geofence-testing",
        topics=[
            Topic("position", Vec3, description="injected position estimate"),
            Topic("fenceClearance", float, 0.0, description="clearance to the nearest pillar"),
        ],
        nodes=[
            FunctionNode(
                "geofenceWatch",
                watch,
                subscribes=("position",),
                publishes=("fenceClearance",),
                period=environment_period,
            )
        ],
    )
    system = SoterCompiler(strict=False).compile(program).system
    monitors = MonitorSuite(
        [
            TopicSafetyMonitor(
                name="phi_fence",
                topic="position",
                spec=SafetySpec(
                    "free with margin",
                    lambda point: workspace.is_free(point, margin=margin),
                ),
            )
        ]
    )
    points: List[Vec3] = [Vec3(2.0, 2.0, 2.0), Vec3(10.0, 4.0, 2.0), Vec3(17.0, 17.0, 2.0)]
    if include_breach:
        points.append(Vec3(6.0, 6.0, 2.0))  # inside the first pillar
    environment = AbstractEnvironment(menus={"position": points}, period=environment_period)
    return ModelInstance(
        system=system, monitors=monitors, environment=environment, horizon=horizon
    )


# --------------------------------------------------------------------- #
# coverage-hostile scenarios (the coverage plane's evaluation workloads)
# --------------------------------------------------------------------- #
#
# Both scenarios below are *coverage-hostile by construction*: most menu
# options keep the module deep inside φ_safer (region R5), so the rarely
# chosen options near an obstacle — and the mode transitions they cause —
# are what unlock new (vehicle, mode, region) pairs.  Reaching a pair
# like (SC, R4:nominal) needs a *sequence* (a switching-region estimate
# to force SC mode, then a nominal estimate while still in SC), which
# uniform random sampling over a deep menu rarely produces.  They exist
# to evaluate CoverageGuidedStrategy against RandomStrategy
# (benchmarks/bench_coverage_guided.py) and are registered like every
# other scenario so the testers build them by name.
#
# Both protect *two* modules — the motion primitive and the battery — so
# the coverage plane spans two vehicles' worth of (mode, region) pairs
# whose rare branches live in independent menus (position estimates and
# battery readings); covering the product takes joint exploration.

#: Adversarial battery readings spanning the battery module's regions:
#: six nominal mid-charges (R4) diluting one full-charge recovery reading
#: (R5, > 85 % — the only way the battery DM ever reaches AC mode) and one
#: reading just above empty (R3: ``ttf_2Δ`` fires, the DM must land).
#: None violates φ_bat (charge stays positive), so the default scenarios
#: remain counterexample-free.
_COVERAGE_BATTERY_MENU = (0.5, 0.6, 0.4, 0.3, 0.7, 0.2, 1.0, 0.02)


def _battery_menu_states() -> List[BatteryStatus]:
    return [BatteryStatus(charge=charge, altitude=2.0) for charge in _COVERAGE_BATTERY_MENU]


def _region_menu_points(
    spec: RTAModuleSpec, workspace: Workspace, altitude: float, step: float = 0.05
) -> dict:
    """Deterministic menu points per observable region, derived from the spec.

    Walks outward from the first obstacle's +x face and classifies each
    candidate with :func:`~repro.core.regions.classify_region`, so the
    returned points carry their region *by construction* — parameter
    drift in Δ, margins or the synthesized φ_safer threshold moves the
    points instead of silently re-labelling them.  ``SWITCHING`` is the
    outermost switching-shell point (maximal clearance while ``ttf_2Δ``
    still holds), which keeps the default scenarios φ_Inv-clean: the DM
    reacts one Δ later, and by then the worst-case Δ-reach ball still
    clears the obstacle.
    """
    box = workspace.obstacles[0]
    y = (box.lo.y + box.hi.y) / 2.0
    shell: Optional[Vec3] = None
    nominal: Optional[Vec3] = None
    safer: Optional[Vec3] = None
    radius = step
    while radius < 40.0 and (nominal is None or safer is None):
        point = Vec3(box.hi.x + radius, y, altitude)
        region = classify_region(spec, DroneState(position=point))
        if region is Region.SWITCHING:
            shell = point  # keep the outermost one seen
        elif region is Region.NOMINAL and nominal is None:
            nominal = point
        elif region is Region.SAFER and safer is None:
            safer = point
        radius += step
    if shell is None or nominal is None or safer is None:
        missing = [
            name
            for name, found in (("switching", shell), ("nominal", nominal), ("safer", safer))
            if found is None
        ]
        raise ValueError(f"no {'/'.join(missing)} point found along the probe ray")
    return {
        Region.UNSAFE: Vec3(box.center.x, box.center.y, altitude),
        Region.SWITCHING: shell,
        Region.NOMINAL: nominal,
        Region.SAFER: safer,
    }


def _region_grid_points(
    spec: RTAModuleSpec,
    workspace: Workspace,
    altitude: float,
    count: int,
    region: Region,
    spacing: float = 1.5,
) -> List[Vec3]:
    """The first ``count`` grid points classified into ``region``.

    A deterministic raster scan over the workspace floor plan; these are
    the "boring" menu options that dilute the interesting ones.
    """
    points: List[Vec3] = []
    lo, hi = workspace.bounds.lo, workspace.bounds.hi
    x = lo.x + 2.0
    while x < hi.x - 1.0 and len(points) < count:
        y = lo.y + 2.0
        while y < hi.y - 1.0 and len(points) < count:
            point = Vec3(x, y, altitude)
            if classify_region(spec, DroneState(position=point)) is region:
                points.append(point)
            y += spacing
        x += spacing
    if len(points) < count:
        raise ValueError(
            f"only found {len(points)} {region.value} grid points, wanted {count}"
        )
    return points


@_build_once
def _pillar_world() -> MissionWorld:
    """The three-pillar field as a mission world (shared per process)."""
    workspace = _geofence_workspace()
    return MissionWorld(
        workspace=workspace,
        surveillance_points=[Vec3(10.0, 4.0, 2.0), Vec3(17.0, 17.0, 2.0), Vec3(3.0, 10.0, 2.0)],
        home=Vec3(10.0, 4.0, 2.0),
        cruise_altitude=2.0,
    )


@register_scenario(
    "rare-branch-geofence",
    description=(
        "The doubly-protected stack (motion primitive + battery) over the "
        "three-pillar field with a sequence-hostile estimate menu: "
        "boring_options nominal (R4) points dilute exactly one deep-safe "
        "(R5) recovery point and one switching-shell (R3) point.  Both "
        "decision modules boot in SC and only reach AC through the rare "
        "recovery estimate, so every (AC, region) coverage pair hides "
        "behind a rare *sequence* of choices (recovery first, then the "
        "region).  Safe by default; include_breach=True adds an estimate "
        "inside the pillar (φ_obs), making time-to-first-counterexample "
        "measurable."
    ),
    tags=("drone", "stack", "coverage"),
)
def build_rare_branch_geofence(
    include_breach: bool = False,
    boring_options: int = 12,
    horizon: float = 0.5,
    environment_period: float = 0.25,
    seed: int = 0,
    use_query_cache: bool = True,
) -> ModelInstance:
    world = _pillar_world()
    config = StackConfig(
        world=world,
        planner="straight",
        protect_battery=True,
        protect_motion_primitive=True,
        use_query_cache=use_query_cache,
        seed=seed,
    )
    model = build_discrete_model(config)
    spec = model.motion_primitive.spec
    targets = _region_menu_points(spec, world.workspace, world.cruise_altitude)
    positions = [
        DroneState(position=point)
        for point in _region_grid_points(
            spec, world.workspace, world.cruise_altitude, boring_options, Region.NOMINAL
        )
    ]
    positions.append(DroneState(position=targets[Region.SAFER]))
    positions.append(DroneState(position=targets[Region.SWITCHING]))
    if include_breach:
        positions.append(DroneState(position=targets[Region.UNSAFE]))
    environment = AbstractEnvironment(
        menus={POSITION_TOPIC: positions, BATTERY_TOPIC: _battery_menu_states()},
        period=environment_period,
    )
    return ModelInstance(
        system=model.system, monitors=model.monitors, environment=environment, horizon=horizon
    )


@register_scenario(
    "deep-menu-surveillance",
    description=(
        "The doubly-protected surveillance-city stack with a *deep* "
        "estimate menu: the nine surveillance points plus deep_options "
        "more deep-safe street points (all R5) dilute one switching-shell "
        "and one nominal point near the first building to a thirty-plus "
        "option menu.  Uniform random draws keep re-sampling known "
        "deep-safe estimates (the coupon-collector tail) while the "
        "interesting shell/nominal branches — and the battery module's "
        "rare recovery/abort readings — go unvisited.  Safe by default; "
        "include_unsafe_position=True adds a building-centre estimate "
        "(φ_obs)."
    ),
    tags=("drone", "stack", "coverage"),
)
def build_deep_menu_surveillance(
    include_unsafe_position: bool = False,
    deep_options: int = 24,
    horizon: float = 0.5,
    environment_period: float = 0.25,
    seed: int = 0,
    use_query_cache: bool = True,
) -> ModelInstance:
    world = _shared_world() if use_query_cache else surveillance_city()
    config = StackConfig(
        world=world,
        planner="straight",
        protect_battery=True,
        protect_motion_primitive=True,
        use_query_cache=use_query_cache,
        seed=seed,
    )
    model = build_discrete_model(config)
    spec = model.motion_primitive.spec
    targets = _region_menu_points(spec, world.workspace, world.cruise_altitude)
    positions = [DroneState(position=point) for point in world.surveillance_points]
    positions.extend(
        DroneState(position=point)
        for point in _region_grid_points(
            spec, world.workspace, world.cruise_altitude, deep_options, Region.SAFER, spacing=2.5
        )
    )
    positions.append(DroneState(position=targets[Region.SWITCHING]))
    positions.append(DroneState(position=targets[Region.NOMINAL]))
    if include_unsafe_position:
        positions.append(DroneState(position=targets[Region.UNSAFE]))
    environment = AbstractEnvironment(
        menus={POSITION_TOPIC: positions, BATTERY_TOPIC: _battery_menu_states()},
        period=environment_period,
    )
    return ModelInstance(
        system=model.system, monitors=model.monitors, environment=environment, horizon=horizon
    )


# --------------------------------------------------------------------- #
# multi-drone shared-airspace scenarios
# --------------------------------------------------------------------- #

#: Rendezvous point shared by every vehicle's menu under include_conflict:
#: a free street point all drones may pick in the same window (separation 0).
_RENDEZVOUS_INDEX = 8


def _fleet_base_config(world, seed: int, use_query_cache: bool) -> StackConfig:
    """The per-vehicle stack configuration all fleet scenarios share.

    Identical to ``drone-surveillance``'s configuration, which is what
    makes the one-vehicle fleet composition bit-identical to the
    single-drone scenario.
    """
    return StackConfig(
        world=world,
        planner="straight",
        protect_battery=False,
        protect_motion_primitive=True,
        use_query_cache=use_query_cache,
        seed=seed,
    )


@register_scenario(
    "multi-drone-surveillance",
    description=(
        "N RTA-protected surveillance stacks composed in one shared airspace "
        "(per-vehicle topic namespaces) with a pairwise SeparationMonitor; the "
        "abstract environment places every vehicle's estimate at its own "
        "surveillance points.  Safe by default for up to three drones; "
        "include_conflict=True adds a shared rendezvous point that two drones "
        "can pick simultaneously (separation 0 < the minimum), and "
        "include_unsafe_position=True teleports drone 0 into a building "
        "(φ_obs).  A fleet of one is bit-identical to 'drone-surveillance'."
    ),
    tags=("drone", "stack", "fleet"),
)
def build_multi_drone_surveillance(
    drones: int = 2,
    include_conflict: bool = False,
    include_unsafe_position: bool = False,
    horizon: float = 1.0,
    environment_period: float = 0.25,
    seed: int = 0,
    use_query_cache: bool = True,
    min_separation: float = 2.0,
) -> ModelInstance:
    if drones < 1:
        raise ValueError("the fleet needs at least one drone")
    world = _shared_world() if use_query_cache else surveillance_city()
    base = _fleet_base_config(world, seed, use_query_cache)
    fleet = FleetConfig(
        vehicles=fleet_configs(drones, base),
        name="multi-drone-surveillance",
        min_separation=min_separation,
    )
    model = build_fleet_discrete_model(fleet)
    points = world.surveillance_points
    menus = {}
    for index, vehicle in enumerate(fleet.vehicles):
        if drones == 1:
            # The single-drone menu, exactly as 'drone-surveillance' builds it.
            indices = (0, 3, 8)
        else:
            # Disjoint menu triples per vehicle (up to three conflict-free
            # drones on the nine-point circuit; larger fleets share points
            # and separation counterexamples become findable by default).
            indices = tuple((offset + index) % len(points) for offset in (0, 3, 6))
        menu = [DroneState(position=points[i]) for i in indices]
        if include_conflict and drones >= 2 and _RENDEZVOUS_INDEX not in indices:
            # Vehicles whose base menu already covers the rendezvous point
            # (vehicle 2 of a 3-drone fleet) must not list it twice: a
            # duplicate choice skews random sweeps and makes exhaustive
            # enumeration explore identical branches twice.  With one drone
            # there is nothing to rendezvous with.
            menu.append(DroneState(position=points[_RENDEZVOUS_INDEX]))
        if include_unsafe_position and index == 0:
            menu.append(DroneState(position=world.workspace.obstacles[0].center))
        menus[vehicle.namespace.position] = menu
    environment = AbstractEnvironment(menus=menus, period=environment_period)
    return ModelInstance(
        system=model.system, monitors=model.monitors, environment=environment, horizon=horizon
    )


@register_scenario(
    "multi-drone-crossing",
    description=(
        "Two protected stacks flying crossing street paths through one "
        "intersection of the surveillance city; both menus contain the "
        "crossing point, so executions in which the drones occupy it in the "
        "same window violate the pairwise separation minimum — "
        "counterexamples are plentiful, exercising early-stop and replay on "
        "a composed fleet."
    ),
    tags=("drone", "fleet", "unsafe"),
)
def build_multi_drone_crossing(
    horizon: float = 1.0,
    environment_period: float = 0.25,
    seed: int = 0,
    min_separation: float = 2.0,
) -> ModelInstance:
    world = _shared_world()
    altitude = world.cruise_altitude
    crossing = Vec3(18.5, 18.5, altitude)  # free street intersection
    east_west = [Vec3(4.0, 18.5, altitude), crossing, Vec3(31.5, 18.5, altitude)]
    north_south = [Vec3(18.5, 4.0, altitude), crossing, Vec3(18.5, 31.5, altitude)]
    base = _fleet_base_config(world, seed, use_query_cache=True)
    vehicles = [
        replace(
            base,
            namespace=vehicle_namespace(index, 2),
            seed=seed + 2 * index,  # two sensor streams per vehicle seed
            goals=path,
            start_position=path[0],
        )
        for index, path in enumerate((east_west, north_south))
    ]
    fleet = FleetConfig(
        vehicles=vehicles,
        name="multi-drone-crossing",
        min_separation=min_separation,
    )
    model = build_fleet_discrete_model(fleet)
    menus = {
        vehicle.namespace.position: [DroneState(position=point) for point in path]
        for vehicle, path in zip(fleet.vehicles, (east_west, north_south))
    }
    environment = AbstractEnvironment(menus=menus, period=environment_period)
    return ModelInstance(
        system=model.system, monitors=model.monitors, environment=environment, horizon=horizon
    )


@register_scenario(
    "plant-surveillance",
    description=(
        "The RTA-protected surveillance stack closed through a real plant: a "
        "PlantEnvironment integrates one DronePlant per vehicle under the "
        "commands the stack publishes and feeds estimator/battery readings "
        "back, with a per-period wind-gust menu as the only nondeterminism.  "
        "Strong gusts can push a drone off the street grid, which φ_obs "
        "flags; drones>1 composes namespaced stacks whose plants share one "
        "airspace.  Every tester integrates the plants through the same "
        "scalar per-vehicle loop."
    ),
    tags=("drone", "stack", "plant"),
)
def build_plant_surveillance(
    drones: int = 1,
    gust_strength: float = 30.0,
    unsafe_start: bool = False,
    horizon: float = 1.0,
    environment_period: float = 0.25,
    physics_dt: float = 0.05,
    seed: int = 0,
    use_query_cache: bool = True,
    min_separation: float = 2.0,
) -> ModelInstance:
    if drones < 1:
        raise ValueError("the fleet needs at least one drone")
    world = _shared_world() if use_query_cache else surveillance_city()
    base = _fleet_base_config(world, seed, use_query_cache)
    if unsafe_start:
        # Vehicle 0 hovers half a metre west of the first building: two
        # consecutive +x gust windows out-accelerate the clamped control
        # authority and blow the plant through the wall (φ_obs + a real
        # collision latch), so counterexamples are findable by default.
        building = world.workspace.obstacles[0]
        base = replace(
            base,
            start_position=Vec3(
                building.lo.x - 0.5,
                (building.lo.y + building.hi.y) / 2.0,
                world.cruise_altitude,
            ),
        )
    fleet = FleetConfig(
        vehicles=fleet_configs(drones, base),
        name="plant-surveillance",
        min_separation=min_separation,
    )
    model = build_fleet_discrete_model(fleet)
    channels = [
        build_plant_channel(vehicle.config, vehicle.model, vehicle.battery_model, index)
        for index, vehicle in enumerate(model.vehicles)
    ]
    environment = PlantEnvironment(
        channels=channels,
        gust_menu=[
            Vec3.zero(),
            Vec3(gust_strength, 0.0, 0.0),
            Vec3(0.0, -gust_strength, 0.0),
        ],
        period=environment_period,
        physics_dt=physics_dt,
    )
    return ModelInstance(
        system=model.system, monitors=model.monitors, environment=environment, horizon=horizon
    )


# --------------------------------------------------------------------------- #
# fault-exploration scenarios (strategy-driven FaultPlan choice points)
# --------------------------------------------------------------------------- #

#: Injector node names of the fault-injected planner pair.  The site name
#: doubles as the injector's node name, so trail labels, coverage keys and
#: the compiled system agree on one identifier per variant.
PROTECTED_PLANNER_FAULT_NODE = "SafeMotionPlanner.ac.faultable"
UNPROTECTED_PLANNER_FAULT_NODE = "motionPlanner.faultable"


@register_scenario(
    "fault-injected-planner",
    description=(
        "The motion planner behind a strategy-driven ChoiceFaultInjector: a "
        "FaultPlan declares two activation windows in which the planner may "
        "substitute a corner-cutting plan or crash-and-restart, and each "
        "window's (activation, kind) is a labeled choice in the trail.  "
        "phi_plan_deadline tolerates transients shorter than the RTA "
        "recovery bound: with protected=True the Delta-bounded safe planner "
        "always recovers in time (zero violations across the exhaustive "
        "fault sweep); with protected=False a sustained substitution "
        "violates.  This pair is the resilience harness's differential."
    ),
    tags=("drone", "planner", "faults"),
)
def build_fault_injected_planner(
    protected: bool = True,
    horizon: float = 2.5,
    planner_period: float = 0.25,
    delta: float = 0.5,
    clearance: float = 0.5,
    grace: float = 1.0,
    fault_windows=((0.25, 1.25), (1.25, 2.5)),
    fault_kinds=("substitute", "crash"),
    environment_period: float = 0.5,
    fault_plan=None,
) -> ModelInstance:
    world = _shared_world()
    workspace = world.workspace
    altitude = world.cruise_altitude
    home = Vec3(4.0, 4.0, altitude)
    goal = Vec3(46.0, 46.0, altitude)
    # The corner-cut goes straight through the block grid: invalid at any
    # positive clearance, and the SUBSTITUTE payload of the fault site.
    corner_cut = Plan(waypoints=(home, goal), goal=goal, planner="corner-cut")
    planner = GridAStarPlanner(workspace=workspace, altitude=altitude)
    node_name = PROTECTED_PLANNER_FAULT_NODE if protected else UNPROTECTED_PLANNER_FAULT_NODE
    if fault_plan is not None:
        # An explicit plan (object or its encoded wire form) overrides the
        # declarative knobs — this is how swarm shards carry fault plans.
        plan = FaultPlan.coerce(fault_plan)
        node_sites = plan.node_sites()
        if len(node_sites) != 1:
            raise ValueError("fault-injected-planner needs exactly one node fault site")
        site = node_sites[0]
    else:
        site = FaultSite(
            kinds=tuple(fault_kinds), windows=tuple(fault_windows), node=node_name
        )
        plan = FaultPlan(sites=(site,))
    substitutes = {MOTION_PLAN_TOPIC: corner_cut}
    topics = [
        Topic(GOAL_TOPIC, Vec3, description="mission goal (constant)"),
        Topic(POSITION_TOPIC, DroneState, description="state estimate (constant)"),
        Topic(MOTION_PLAN_TOPIC, Plan, description="published motion plan"),
    ]
    if protected:
        module = build_safe_motion_planner(
            workspace,
            advanced_planner=planner,
            certified_planner=planner,
            config=PlannerModuleConfig(
                delta=delta, node_period=planner_period, plan_clearance=clearance
            ),
        )
        injector = ChoiceFaultInjector(
            module.advanced_node, site, rename=site.node, substitutes=substitutes
        )
        module.spec.advanced = injector
        module.advanced_node = injector  # type: ignore[assignment]
        program = Program(name="fault-injected-planner", topics=topics)
        program.add_module(module.spec)
        validator = module.validator
    else:
        inner = PlannerNode(name="motionPlanner", planner=planner, period=planner_period)
        injector = ChoiceFaultInjector(inner, site, rename=site.node, substitutes=substitutes)
        program = Program(name="fault-injected-planner-unprotected", topics=topics, nodes=[injector])
        validator = PlanValidator(workspace, clearance=clearance)
    system = SoterCompiler(strict=False).compile(program).system
    monitors = MonitorSuite(
        [
            DeadlineMonitor(
                name="phi_plan_deadline",
                topic=MOTION_PLAN_TOPIC,
                spec=SafetySpec("plan keeps clearance", validator.is_valid),
                grace=grace,
            )
        ]
    )
    environment = constant_environment(
        {GOAL_TOPIC: goal, POSITION_TOPIC: DroneState(position=home)},
        period=environment_period,
    )
    plane = FaultPlane(plan, environment=environment).adopt(system)
    return ModelInstance(system=system, monitors=monitors, environment=plane, horizon=horizon)


#: Injector node name of the fault-injected surveillance stack.
SURVEILLANCE_TRACKER_FAULT_NODE = "SafeMotionPrimitive.ac.faultable"


@register_scenario(
    "fault-injected-surveillance",
    description=(
        "The RTA-protected surveillance stack with a widened fault surface: "
        "the advanced tracker behind a ChoiceFaultInjector (invert / stuck / "
        "crash per window) and, at the TopicBoard, position-estimate message "
        "loss, freezes and delivery delay.  Safe by construction (the "
        "environment menu only offers safe estimates and the RTA plane "
        "absorbs command faults), so it exercises the fault axis of the "
        "coverage plane and the no-fault-overhead benchmark rather than "
        "hunting counterexamples."
    ),
    tags=("drone", "stack", "faults"),
)
def build_fault_injected_surveillance(
    horizon: float = 1.0,
    environment_period: float = 0.25,
    seed: int = 0,
    use_query_cache: bool = True,
    tracker_windows=((0.0, 0.5), (0.5, 1.0)),
    tracker_kinds=("invert", "stuck", "crash"),
    include_position_faults: bool = True,
    position_windows=((0.25, 0.75),),
    position_kinds=("drop", "stuck", "delay"),
) -> ModelInstance:
    world = _shared_world() if use_query_cache else surveillance_city()
    tracker_site = FaultSite(
        kinds=tuple(tracker_kinds),
        windows=tuple(tracker_windows),
        node=SURVEILLANCE_TRACKER_FAULT_NODE,
    )
    config = StackConfig(
        world=world,
        planner="straight",
        protect_battery=False,
        protect_motion_primitive=True,
        use_query_cache=use_query_cache,
        seed=seed,
        tracker_fault_site=tracker_site,
    )
    model = build_discrete_model(config)
    sites = [tracker_site]
    if include_position_faults:
        sites.append(
            FaultSite(
                kinds=tuple(position_kinds),
                windows=tuple(position_windows),
                topic=POSITION_TOPIC,
                delay=environment_period,
            )
        )
    positions = [
        DroneState(position=world.surveillance_points[0]),
        DroneState(position=world.surveillance_points[3]),
        DroneState(position=world.surveillance_points[8]),
    ]
    environment = AbstractEnvironment(
        menus={POSITION_TOPIC: positions}, period=environment_period
    )
    plane = FaultPlane(FaultPlan(sites=tuple(sites)), environment=environment).adopt(model.system)
    return ModelInstance(
        system=model.system, monitors=model.monitors, environment=plane, horizon=horizon
    )
