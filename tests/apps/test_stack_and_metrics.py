"""Tests for the full-stack builder and the mission metrics."""

import pytest

from repro.apps import (
    CampaignMetrics,
    MissionMetrics,
    StackConfig,
    build_stack,
)
from repro.planning import PlannerBug
from repro.runtime import ChoiceFaultInjector, FaultSite


class TestStackBuilder:
    def test_default_stack_has_two_modules(self, city_world):
        stack = build_stack(StackConfig(world=city_world, goals=city_world.surveillance_points[:2]))
        names = {module.name for module in stack.system.modules}
        assert names == {"SafeMotionPrimitive", "BatterySafety"}
        assert stack.motion_primitive is not None and stack.battery is not None
        assert stack.planner is None

    def test_planner_protection_adds_third_module(self, city_world):
        config = StackConfig(
            world=city_world, goals=city_world.surveillance_points[:2], protect_planner=True, planner="astar"
        )
        stack = build_stack(config)
        assert {module.name for module in stack.system.modules} == {
            "SafeMotionPrimitive", "BatterySafety", "SafeMotionPlanner",
        }

    def test_unprotected_stack_has_plain_nodes_only(self, city_world):
        config = StackConfig(
            world=city_world,
            goals=city_world.surveillance_points[:2],
            protect_motion_primitive=False,
            protect_battery=False,
        )
        stack = build_stack(config)
        assert stack.system.modules == []
        node_names = {node.name for node in stack.system.nodes}
        assert {"surveillance", "motionPlanner", "planRelay", "motionPrimitive"} <= node_names

    def test_sc_only_variant_uses_safe_tracker(self, city_world):
        config = StackConfig(
            world=city_world,
            goals=city_world.surveillance_points[:2],
            protect_motion_primitive=False,
            sc_only=True,
        )
        stack = build_stack(config)
        primitive = stack.system.node_named("motionPrimitive")
        assert primitive.tracker.name == "safe-tracker"

    def test_tracker_selection_and_validation(self, city_world):
        learned = build_stack(
            StackConfig(world=city_world, goals=city_world.surveillance_points[:1], tracker="learned")
        )
        assert learned.motion_primitive.advanced_node.tracker.name == "learned-tracker"
        with pytest.raises(ValueError):
            build_stack(StackConfig(world=city_world, goals=[city_world.home], tracker="mystery"))
        with pytest.raises(ValueError):
            build_stack(StackConfig(world=city_world, goals=[city_world.home], planner="mystery"))

    @pytest.mark.parametrize("protected", [True, False])
    def test_tracker_fault_site_wraps_the_tracker(self, city_world, protected):
        site = FaultSite(kinds=("invert", "crash"), windows=((0.0, 1.0),), node="tracker.faultable")

        def build(tracker_fault_site):
            return build_stack(
                StackConfig(
                    world=city_world,
                    goals=city_world.surveillance_points[:1],
                    protect_motion_primitive=protected,
                    tracker_fault_site=tracker_fault_site,
                )
            )

        stack = build(site)
        injector = stack.system.node_named(site.node)
        assert isinstance(injector, ChoiceFaultInjector)
        assert injector.site == site
        if protected:
            assert stack.motion_primitive.spec.advanced is injector
            assert stack.motion_primitive.advanced_node is injector
        else:
            assert stack.motion_primitive is None
            assert injector.inner.name == "motionPrimitive"
        # The encoded tuple form builds the same stack as the object.
        encoded = build(site.encode())
        assert [node.name for node in encoded.system.all_nodes()] == [
            node.name for node in stack.system.all_nodes()
        ]
        assert encoded.system.node_named(site.node).site == site

    def test_planner_bug_wraps_the_planner(self, city_world):
        config = StackConfig(
            world=city_world,
            goals=city_world.surveillance_points[:1],
            planner="astar",
            planner_bug=PlannerBug.CORNER_CUTTING,
        )
        stack = build_stack(config)
        planner_node = stack.system.node_named("motionPlanner")
        assert "corner-cutting" in planner_node.planner.name

    def test_mission_goals_default_to_world_points(self, city_world):
        config = StackConfig(world=city_world)
        assert list(config.mission_goals()) == list(city_world.surveillance_points)


class TestShortMissions:
    def test_protected_mission_completes_and_is_safe(self, city_world):
        config = StackConfig(
            world=city_world, goals=city_world.surveillance_points[:3], loop_goals=False, seed=5
        )
        stack = build_stack(config)
        metrics, result = stack.run(duration=200.0)
        assert metrics.completed
        assert metrics.safe
        assert metrics.goals_visited == 3
        assert metrics.monitor_violations == 0
        assert metrics.mission_time < 200.0

    def test_metrics_summary_is_readable(self, city_world):
        config = StackConfig(world=city_world, goals=city_world.surveillance_points[:2], seed=1)
        metrics, _ = build_stack(config).run(duration=150.0)
        text = metrics.summary()
        assert "mission time" in text and "disengagements" in text

    def test_metrics_mode_fractions_per_module(self, city_world):
        config = StackConfig(world=city_world, goals=city_world.surveillance_points[:2], seed=1)
        metrics, _ = build_stack(config).run(duration=150.0)
        assert set(metrics.ac_time_fraction.keys()) == {"SafeMotionPrimitive", "BatterySafety"}
        assert 0.0 <= metrics.overall_ac_fraction() <= 1.0


class TestCampaignMetrics:
    def _mission(self, crashed=False, disengagements=0, ac=1.0, time=100.0):
        return MissionMetrics(
            mission_time=time,
            distance_flown=time * 2.0,
            completed=not crashed,
            collided=crashed,
            crashed=crashed,
            landed_safely=False,
            battery_depleted_in_air=False,
            goals_visited=5,
            min_clearance=1.0,
            final_charge=0.8,
            disengagements={"SafeMotionPrimitive": disengagements},
            reengagements={"SafeMotionPrimitive": disengagements},
            ac_time_fraction={"SafeMotionPrimitive": ac},
        )

    def test_aggregation(self):
        campaign = CampaignMetrics()
        campaign.add(self._mission(disengagements=2, ac=0.9))
        campaign.add(self._mission(crashed=True, disengagements=1, ac=0.95))
        assert campaign.mission_count == 2
        assert campaign.total_disengagements == 3
        assert campaign.crashes == 1
        assert campaign.collisions == 1
        assert campaign.total_flight_time == pytest.approx(200.0)
        assert campaign.mean_ac_fraction() == pytest.approx(0.925)
        assert "missions" in campaign.summary()

    def test_empty_campaign(self):
        campaign = CampaignMetrics()
        assert campaign.mean_ac_fraction() == 1.0
        assert campaign.crashes == 0

    def test_total_disengagements_property(self):
        metrics = self._mission(disengagements=3)
        assert metrics.total_disengagements == 3
        assert metrics.total_reengagements == 3
        assert metrics.safe
