"""A seeded planner behind a tester: its sampler rewinds with the model.

``RRTStarPlanner`` and ``FaultyPlanner`` draw from a private RNG.  A
reused model instance must re-seed it on reset and a population snapshot
must capture and restore it, or the plans (and every verdict that reads
them) depend on how many executions ran before.  Every record here keeps
the plans its violations carry, waypoint for waypoint.
"""

import pytest

from repro.apps.nodes import PlannerNode, StraightLinePlanner
from repro.apps.topics import GOAL_TOPIC, MOTION_PLAN_TOPIC, POSITION_TOPIC
from repro.core.compiler import Program, SoterCompiler
from repro.core.monitor import MonitorSuite, TopicSafetyMonitor
from repro.core.specs import SafetySpec
from repro.core.topics import Topic
from repro.dynamics import DroneState
from repro.geometry import AABB, Vec3, empty_workspace
from repro.planning import FaultyPlanner, GridAStarPlanner, PlannerBug, RRTStarPlanner
from repro.planning.plan import Plan
from repro.testing import PopulationTester, RandomStrategy, SystematicTester
from repro.testing import population as population_module
from repro.testing.abstractions import NondeterministicNode
from repro.testing.explorer import ModelInstance

#: A block between the start and goal positions, so every plan detours
#: through a sampled waypoint.
WORKSPACE = empty_workspace()
WORKSPACE.add_obstacle(AABB.from_footprint(6.0, 6.0, 6.0, 6.0, 8.0))


def _factory():
    chooser = NondeterministicNode(
        "chooser",
        {
            GOAL_TOPIC: [Vec3(15.0, 15.0, 2.0), Vec3(9.0, 17.0, 2.0)],
            POSITION_TOPIC: [
                DroneState(position=Vec3(2.0, 2.0, 2.0)),
                DroneState(position=Vec3(10.0, 3.0, 2.0)),
            ],
        },
        period=0.25,
    )
    planner = PlannerNode(
        "planner", RRTStarPlanner(WORKSPACE, seed=1, max_iterations=60), period=0.25
    )
    program = Program(
        name="seeded-planner",
        topics=[
            Topic(GOAL_TOPIC, Vec3),
            Topic(POSITION_TOPIC, DroneState),
            Topic(MOTION_PLAN_TOPIC, Plan),
        ],
        nodes=[chooser, planner],
    )
    # Every plan violates: the records carry every plan the run produced.
    monitor = TopicSafetyMonitor(
        name="phi_plan", topic=MOTION_PLAN_TOPIC, spec=SafetySpec("no plan", lambda plan: False)
    )
    return ModelInstance(
        system=SoterCompiler(strict=False).compile(program).system,
        monitors=MonitorSuite([monitor]),
        environment=None,
        horizon=1.0,
    )


def _records(report):
    return [
        (
            record.index,
            record.steps,
            tuple(record.trail or ()),
            tuple(
                (v.time, v.message, tuple(w.as_tuple() for w in v.state.waypoints))
                for v in record.violations
            ),
        )
        for record in report.executions
    ]


def _sweep(tester_type, **options):
    tester = tester_type(_factory, RandomStrategy(seed=2, max_executions=20), **options)
    return _records(tester.explore())


def test_reused_instance_plans_what_a_fresh_build_plans():
    fresh = _sweep(SystematicTester, reuse_instances=False)
    assert _sweep(SystematicTester, reuse_instances=True) == fresh
    assert all(violations for *_, violations in fresh)


def test_population_plans_what_the_serial_tester_plans(monkeypatch):
    # Eager snapshots, so restores rewind the planner mid-sweep.
    monkeypatch.setattr(population_module, "SNAPSHOT_AFTER", 1)
    monkeypatch.setattr(population_module, "SNAPSHOT_MIN_STEPS", 1)
    population = PopulationTester(_factory, RandomStrategy(seed=2, max_executions=20))
    assert _records(population.explore()) == _sweep(SystematicTester)
    assert population.stats.restores > 0
    assert population.stats.snapshot_fallbacks == 0


def _faulty_rrt():
    return FaultyPlanner(
        RRTStarPlanner(WORKSPACE, seed=3, max_iterations=40),
        bug=PlannerBug.WAYPOINT_CORRUPTION,
        probability=0.9,
        seed=5,
    )


@pytest.mark.parametrize(
    "make",
    [lambda: RRTStarPlanner(WORKSPACE, seed=3, max_iterations=40), _faulty_rrt],
    ids=["rrt-star", "faulty-rrt-star"],
)
def test_seeded_planners_reset_and_rewind(make):
    def plans(planner):
        made = [planner.plan(Vec3(2.0, 2.0, 2.0), Vec3(x, 15.0, 2.0)) for x in (15.0, 5.0, 10.0)]
        return [tuple(w.as_tuple() for w in plan.waypoints) for plan in made]

    planner = make()
    first = plans(planner)
    mark = planner.capture_delta_state()
    then = plans(planner)
    assert then != first  # the sampler moved on
    planner.restore_delta_state(mark)
    assert plans(planner) == then
    planner.reset()
    assert plans(planner) == first


def test_faulty_planner_rewinds_its_fault_count():
    planner = _faulty_rrt()
    mark = planner.capture_delta_state()
    for x in (15.0, 5.0, 10.0, 12.0):
        planner.plan(Vec3(2.0, 2.0, 2.0), Vec3(x, 15.0, 2.0))
    assert planner.injected_faults > 0
    planner.restore_delta_state(mark)
    assert planner.injected_faults == 0
    planner.plan(Vec3(2.0, 2.0, 2.0), Vec3(15.0, 15.0, 2.0))
    faults = planner.injected_faults
    planner.reset()
    assert planner.injected_faults == 0
    planner.plan(Vec3(2.0, 2.0, 2.0), Vec3(15.0, 15.0, 2.0))
    assert planner.injected_faults == faults


@pytest.mark.parametrize(
    "planner",
    [StraightLinePlanner(), GridAStarPlanner(WORKSPACE)],
    ids=["straight-line", "grid-astar"],
)
def test_stateless_planners_reset_and_snapshot_nothing(planner):
    planner.reset()
    assert planner.capture_delta_state() is None
    planner.restore_delta_state(None)
