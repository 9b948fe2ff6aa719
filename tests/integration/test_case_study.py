"""Integration tests: the qualitative claims of the paper's evaluation.

Each test here is a scaled-down version of one of the evaluation's
experiments (the full-size versions live in ``benchmarks/``): it checks
the *shape* of the result — who is safe, who is faster, when control is
handed over — rather than absolute numbers.
"""

import pytest

from repro.apps import StackConfig, build_stack
from repro.core.decision import Mode
from repro.dynamics import BatteryParams
from repro.planning import PlannerBug
from repro.runtime import OverloadScheduler
from repro.simulation import waypoint_range


def _range_config(**kwargs):
    world = waypoint_range()
    defaults = dict(
        world=world,
        goals=world.surveillance_points,
        loop_goals=False,
        planner="straight",
        protect_battery=False,
        seed=3,
    )
    defaults.update(kwargs)
    return StackConfig(**defaults)


class TestFigure5Shape:
    """Untrusted controllers are unsafe without runtime assurance."""

    def test_unprotected_aggressive_controller_collides(self):
        metrics, _ = build_stack(_range_config(protect_motion_primitive=False)).run(duration=120.0)
        assert metrics.collided

    def test_rta_protects_the_same_controller(self):
        metrics, _ = build_stack(_range_config(protect_motion_primitive=True)).run(duration=200.0)
        assert not metrics.collided
        assert metrics.completed
        assert metrics.total_disengagements >= 1


class TestFigure12aShape:
    """Mission time ordering: AC-only < RTA-protected < SC-only (all goals)."""

    def test_time_ordering_and_safety(self):
        ac_metrics, _ = build_stack(_range_config(protect_motion_primitive=False)).run(duration=300.0)
        rta_metrics, _ = build_stack(_range_config(protect_motion_primitive=True)).run(duration=300.0)
        sc_metrics, _ = build_stack(
            _range_config(protect_motion_primitive=False, sc_only=True)
        ).run(duration=300.0)
        # Safety: only the unprotected aggressive stack collides.
        assert ac_metrics.collided
        assert not rta_metrics.collided and rta_metrics.completed
        assert not sc_metrics.collided and sc_metrics.completed
        # Performance: the RTA stack is slower than AC-only but faster than SC-only.
        assert ac_metrics.mission_time < rta_metrics.mission_time < sc_metrics.mission_time

    def test_control_returns_to_ac_after_recovery(self):
        metrics, result = build_stack(_range_config(protect_motion_primitive=True)).run(duration=300.0)
        dm_switches = result.trace.switches_of("SafeMotionPrimitive")
        kinds = [(switch.previous, switch.new) for switch in dm_switches]
        assert ("AC", "SC") in kinds and ("SC", "AC") in kinds


class TestFigure12cShape:
    """Battery safety: the RTA module lands the drone before the charge runs out."""

    def _battery_config(self, protect):
        fast_drain = BatteryParams(idle_rate=0.008, accel_rate=0.002)
        world = waypoint_range()
        return StackConfig(
            world=world,
            goals=world.surveillance_points,
            loop_goals=True,
            planner="straight",
            protect_battery=protect,
            battery_params=fast_drain,
            seed=2,
        )

    def test_protected_stack_lands_safely(self):
        stack = build_stack(self._battery_config(protect=True))
        metrics, _ = stack.run(duration=400.0)
        assert not metrics.battery_depleted_in_air
        assert metrics.landed_safely
        assert metrics.disengagements["BatterySafety"] == 1
        battery_dm = stack.system.module_named("BatterySafety").decision
        assert battery_dm.mode is Mode.SC

    def test_unprotected_stack_crashes_on_empty_battery(self):
        metrics, _ = build_stack(self._battery_config(protect=False)).run(duration=400.0)
        assert metrics.battery_depleted_in_air
        assert metrics.crashed


class TestSectionVCShape:
    """A bug-injected planner is caught by the planner RTA module."""

    def test_planner_module_rejects_colliding_plans(self, city_world):
        # Diagonal goals force the route around buildings, so a corner-cutting
        # (straight-line) plan is guaranteed to collide and must be rejected.
        goals = [city_world.surveillance_points[0], city_world.surveillance_points[4]]
        config = StackConfig(
            world=city_world,
            goals=goals,
            loop_goals=False,
            planner="astar",
            planner_bug=PlannerBug.CORNER_CUTTING,
            planner_bug_probability=1.0,
            protect_planner=True,
            protect_battery=False,
            seed=0,
        )
        stack = build_stack(config)
        metrics, _ = stack.run(duration=300.0)
        planner_dm = stack.system.module_named("SafeMotionPlanner").decision
        assert not metrics.collided
        assert len(planner_dm.disengagements) >= 1


class TestSectionVDShape:
    """Crashes only occur when the safe controller is not scheduled in time."""

    def test_starving_the_safe_controller_defeats_the_rta(self):
        # A pathological scheduler that never runs the SC reproduces the
        # paper's observed failure mode: the DM switches, but the safe
        # controller is not scheduled in time, so the stale advanced-control
        # command keeps driving the drone toward the obstacle.
        from repro.geometry import Vec3

        config = _range_config(protect_motion_primitive=True)
        config.start_position = Vec3(20.0, 7.0, 2.0)  # start clear of obstacles, in AC mode
        config.scheduler = OverloadScheduler(
            starved_nodes=["SafeMotionPrimitive.sc"], start_time=0.0, end_time=1e9
        )
        metrics, _ = build_stack(config).run(duration=120.0)
        assert metrics.collided

    def test_perfect_scheduling_keeps_the_mission_safe(self):
        metrics, _ = build_stack(_range_config(protect_motion_primitive=True)).run(duration=300.0)
        assert not metrics.collided
