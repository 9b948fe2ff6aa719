"""Section V-C — RTA-protected motion planner with a bug-injected RRT*.

Paper result: bugs injected into the third-party RRT* implementation make
it occasionally emit motion plans that collide with obstacles; wrapping the
planner in an RTA module (certified grid planner as the safe counterpart,
plan validation as φ_plan) prevents the colliding plans from ever steering
the drone into an obstacle.  The benchmark compares the fully unprotected
stack against the planner-protected stack on the same faulty planner.
"""

from __future__ import annotations

from repro.apps import StackConfig, build_stack
from repro.planning import PlannerBug
from repro.simulation import surveillance_city

SEEDS = range(2)
MISSION_TIMEOUT = 250.0


def _mission(protect: bool, seed: int):
    world = surveillance_city()
    # Diagonal goals force routes around buildings, so corner-cutting plans collide.
    goals = [world.surveillance_points[0], world.surveillance_points[4], world.surveillance_points[6]]
    config = StackConfig(
        world=world,
        goals=goals,
        loop_goals=False,
        planner="rrt",
        planner_bug=PlannerBug.CORNER_CUTTING,
        planner_bug_probability=0.5,
        protect_planner=protect,
        protect_motion_primitive=protect,
        protect_battery=False,
        seed=seed,
    )
    stack = build_stack(config)
    metrics, _ = stack.run(duration=MISSION_TIMEOUT)
    rejected = 0
    if stack.planner is not None:
        rejected = len(stack.system.module_named("SafeMotionPlanner").decision.disengagements)
    return metrics, rejected


def test_sec5c_faulty_planner_protection(table_printer):
    protected_runs = [_mission(True, seed) for seed in SEEDS]
    unprotected_runs = [_mission(False, seed) for seed in SEEDS]
    protected_collisions = sum(int(metrics.collided) for metrics, _ in protected_runs)
    unprotected_collisions = sum(int(metrics.collided) for metrics, _ in unprotected_runs)
    plans_rejected = sum(rejected for _, rejected in protected_runs)
    table_printer(
        "Section V-C: bug-injected RRT* planner (corner-cutting, p=0.5)",
        ["configuration", "collisions", "colliding plans rejected", f"missions (n={len(list(SEEDS))})"],
        [
            ["RTA-protected planner + primitives", protected_collisions, plans_rejected, len(protected_runs)],
            ["unprotected stack", unprotected_collisions, "-", len(unprotected_runs)],
        ],
    )
    # Shape: the RTA-protected stack never collides and actually catches bad
    # plans; the unprotected stack collides in at least one mission.
    assert protected_collisions == 0
    assert plans_rejected >= 1
    assert unprotected_collisions >= 1
