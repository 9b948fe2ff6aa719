"""Tests for the systematic testing engine (strategies, abstractions, explorer)."""

import pytest

from repro.core import Program, SafetySpec, SoterCompiler, Topic
from repro.core.monitor import MonitorSuite, TopicSafetyMonitor
from repro.testing import (
    AbstractEnvironment,
    BoundedAsynchronyScheduler,
    ExhaustiveStrategy,
    ModelInstance,
    NondeterministicNode,
    RandomStrategy,
    ReplayStrategy,
    SystematicTester,
    constant_environment,
)

from ..core.toy import build_toy_module


class TestStrategies:
    def test_random_strategy_is_seeded_and_bounded(self):
        a = RandomStrategy(seed=1, max_executions=5)
        b = RandomStrategy(seed=1, max_executions=5)
        assert [a.choose(4) for _ in range(10)] == [b.choose(4) for _ in range(10)]
        for _ in range(5):
            assert a.has_more_executions()
            a.begin_execution()
        assert not a.has_more_executions()

    def test_random_strategy_validation(self):
        with pytest.raises(ValueError):
            RandomStrategy(max_executions=0)
        with pytest.raises(ValueError):
            RandomStrategy().choose(0)

    def test_exhaustive_strategy_enumerates_all_combinations(self):
        strategy = ExhaustiveStrategy(max_depth=8)
        seen = set()
        while strategy.has_more_executions():
            strategy.begin_execution()
            if strategy._exhausted:
                break
            trail = (strategy.choose(2), strategy.choose(3))
            seen.add(trail)
        assert seen == {(i, j) for i in range(2) for j in range(3)}

    def test_exhaustive_strategy_depth_bound(self):
        strategy = ExhaustiveStrategy(max_depth=1)
        strategy.begin_execution()
        assert strategy.choose(3) == 0
        assert strategy.choose(3) == 0  # beyond depth: defaults to option 0

    def test_replay_strategy(self):
        strategy = ReplayStrategy(trail=[2, 1])
        strategy.begin_execution()
        assert strategy.choose(3) == 2
        assert strategy.choose(3) == 1
        assert strategy.choose(3) == 0  # past the trail
        assert not strategy.has_more_executions()


class TestAbstractions:
    def test_nondeterministic_node_uses_strategy(self):
        node = NondeterministicNode("abs", menus={"out": ["a", "b", "c"]}, period=0.1)
        node.bind_strategy(ReplayStrategy(trail=[2]))
        node.strategy.begin_execution()
        assert node.step(0.0, {})["out"] == "c"
        assert node.choices_made == 1

    def test_nondeterministic_node_defaults_to_first_option(self):
        node = NondeterministicNode("abs", menus={"out": ["a", "b"]})
        assert node.step(0.0, {})["out"] == "a"

    def test_menus_must_be_non_empty(self):
        with pytest.raises(ValueError):
            NondeterministicNode("abs", menus={})
        with pytest.raises(ValueError):
            NondeterministicNode("abs", menus={"out": []})

    def test_abstract_environment_injects_choices(self):
        from repro.core import ConstantNode

        program = Program(name="p", topics=[Topic("x")], nodes=[ConstantNode("n", {"y": 1}, period=0.1)])
        system = SoterCompiler().compile(program).system
        from repro.core.semantics import SemanticsEngine

        engine = SemanticsEngine(system)
        environment = AbstractEnvironment(menus={"x": [10, 20]}, period=0.1)
        environment.bind_strategy(ReplayStrategy(trail=[1]))
        environment.strategy.begin_execution()
        environment.apply(engine, 0.0)
        assert engine.read_topic("x") == 20

    def test_constant_environment(self):
        environment = constant_environment({"x": 5})
        assert environment.menus == {"x": [5]}

    def test_environment_validation(self):
        with pytest.raises(ValueError):
            AbstractEnvironment(menus={"x": []})
        with pytest.raises(ValueError):
            AbstractEnvironment(menus={"x": [1]}, period=0.0)


class TestBoundedAsynchrony:
    def test_ordering_is_a_permutation(self):
        scheduler = BoundedAsynchronyScheduler(RandomStrategy(seed=0))
        due = ["a", "b", "c"]
        ordered = scheduler.order(due)
        assert sorted(ordered) == sorted(due)

    def test_single_node_needs_no_choice(self):
        scheduler = BoundedAsynchronyScheduler(RandomStrategy(seed=0))
        assert scheduler.order(["a"]) == ["a"]
        assert scheduler.orderings_chosen == 0

    def test_large_sets_keep_default_order(self):
        scheduler = BoundedAsynchronyScheduler(RandomStrategy(seed=0), max_permuted=2)
        due = ["a", "b", "c", "d"]
        assert scheduler.order(due) == due

    def test_max_permuted_validation(self):
        with pytest.raises(ValueError):
            BoundedAsynchronyScheduler(RandomStrategy(), max_permuted=0)


class TestSystematicTester:
    def _toy_harness(self):
        """The toy RTA module driven by a nondeterministic environment."""
        program = Program(
            name="toy-testing",
            topics=[Topic("state", float, None), Topic("cmd", float, 0.0)],
            modules=[build_toy_module()],
        )
        system = SoterCompiler().compile(program).system
        monitors = MonitorSuite(
            [TopicSafetyMonitor("phi_safe", "state", SafetySpec("x<9", lambda x: x < 9.0))]
        )
        environment = AbstractEnvironment(menus={"state": [0.0, 4.0, 8.0]}, period=0.1)
        return ModelInstance(system=system, monitors=monitors, environment=environment, horizon=1.0)

    def test_random_exploration_finds_no_violation_in_safe_model(self):
        tester = SystematicTester(self._toy_harness, strategy=RandomStrategy(seed=0, max_executions=10))
        report = tester.explore()
        assert report.execution_count == 10
        assert report.ok
        assert report.first_counterexample() is None
        assert "10 execution" in report.summary()

    def test_random_exploration_detects_violations(self):
        def unsafe_harness():
            harness = self._toy_harness()
            # An environment able to put the plant beyond the cliff directly.
            harness.environment = AbstractEnvironment(menus={"state": [5.0, 9.5]}, period=0.1)
            return harness

        tester = SystematicTester(unsafe_harness, strategy=RandomStrategy(seed=1, max_executions=20))
        report = tester.explore(stop_at_first_violation=True)
        assert not report.ok
        counterexample = report.first_counterexample()
        assert counterexample is not None
        assert counterexample.violations

    def test_exhaustive_exploration_covers_choices(self):
        def tiny_harness():
            harness = self._toy_harness()
            harness.horizon = 0.1
            harness.environment = AbstractEnvironment(menus={"state": [0.0, 8.0]}, period=0.1)
            return harness

        tester = SystematicTester(
            tiny_harness, strategy=ExhaustiveStrategy(max_depth=6, max_executions=200)
        )
        report = tester.explore()
        assert report.execution_count > 1
        assert report.ok
