"""Tests for the scenario registry and the registered scenarios."""

import pickle

import pytest

from repro.testing import (
    ModelInstance,
    ParallelTester,
    RandomStrategy,
    SystematicTester,
    build_scenario,
    register_scenario,
    registered_scenarios,
    scenario,
    scenario_factory,
)

EXPECTED_SCENARIOS = {
    "toy-closed-loop",
    "drone-surveillance",
    "battery-safety-abort",
    "faulty-planner",
    "multi-obstacle-geofence",
    "multi-drone-surveillance",
    "multi-drone-crossing",
}


class TestRegistry:
    def test_all_expected_scenarios_are_registered(self):
        assert EXPECTED_SCENARIOS <= set(registered_scenarios())

    def test_every_registered_name_round_trips(self):
        for name in registered_scenarios():
            entry = scenario(name)
            assert entry.name == name
            assert entry.description
            instance = build_scenario(name)
            assert isinstance(instance, ModelInstance)
            assert instance.system is not None
            assert instance.monitors.monitors

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="toy-closed-loop"):
            scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_scenario("toy-closed-loop")(lambda: None)

    def test_factory_is_picklable_and_rebuilds(self):
        factory = scenario_factory("toy-closed-loop", broken_ttf=True)
        clone = pickle.loads(pickle.dumps(factory))
        instance = clone()
        assert isinstance(instance, ModelInstance)
        # Two calls build independent instances (fresh monitors).
        assert clone() is not clone()

    def test_factory_rejects_unknown_name_eagerly(self):
        with pytest.raises(KeyError):
            scenario_factory("no-such-scenario")

    def test_factory_rejects_unknown_override_eagerly(self):
        with pytest.raises(TypeError, match="'toy-closed-loop'.*'bogus'"):
            scenario_factory("toy-closed-loop", bogus=1)
        with pytest.raises(TypeError, match="'bogus'"):
            ParallelTester(scenario="toy-closed-loop", scenario_overrides={"bogus": 1})


class TestRegisteredScenarioBehaviour:
    def _explore(self, name, stop_early=False, **overrides):
        tester = SystematicTester(
            scenario_factory(name, **overrides),
            strategy=RandomStrategy(seed=0, max_executions=8),
        )
        return tester.explore(stop_at_first_violation=stop_early)

    def test_toy_closed_loop_safe_and_broken(self):
        assert self._explore("toy-closed-loop").ok
        assert not self._explore("toy-closed-loop", stop_early=True, broken_ttf=True).ok

    def test_drone_surveillance_safe_and_unsafe(self):
        assert self._explore("drone-surveillance").ok
        report = self._explore(
            "drone-surveillance", stop_early=True, include_unsafe_position=True
        )
        assert not report.ok
        assert any("phi_obs" in v.monitor for r in report.failing for v in r.violations)

    def test_battery_abort_safe_and_critical(self):
        assert self._explore("battery-safety-abort").ok
        report = self._explore("battery-safety-abort", stop_early=True, include_critical=True)
        assert not report.ok
        assert any(v.monitor == "phi_bat" for r in report.failing for v in r.violations)

    def test_faulty_planner_finds_phi_plan_violation(self):
        report = self._explore("faulty-planner", stop_early=True)
        assert not report.ok
        assert any(v.monitor == "phi_plan" for r in report.failing for v in r.violations)

    def test_geofence_safe_and_breached(self):
        assert self._explore("multi-obstacle-geofence").ok
        report = self._explore("multi-obstacle-geofence", stop_early=True, include_breach=True)
        assert not report.ok

    def test_scenario_counterexamples_replay_deterministically(self):
        factory = scenario_factory("faulty-planner")
        tester = SystematicTester(factory, strategy=RandomStrategy(seed=0, max_executions=8))
        report = tester.explore(stop_at_first_violation=True)
        counterexample = report.first_counterexample()
        assert counterexample is not None
        replayed = tester.replay(counterexample.trail, counterexample.index)
        assert [(v.monitor, v.time) for v in replayed.violations] == [
            (v.monitor, v.time) for v in counterexample.violations
        ]
