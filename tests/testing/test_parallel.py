"""Tests for the parallel systematic-testing engine.

The load-bearing properties:

* determinism — same seed ⇒ the parallel tester reports exactly the
  violation set and replayable trails of the serial tester, regardless of
  worker count;
* partitioning — sharding exhaustive enumeration by trail prefix covers
  exactly the serial enumeration, no more, no less;
* confirmation — every parallel-found counterexample replays to the same
  violation on the serial engine.
"""

import pytest

from repro.testing import (
    ExhaustiveStrategy,
    ModelInstance,
    ParallelTester,
    RandomStrategy,
    ReplayStrategy,
    SystematicTester,
    record_trail,
    scenario_factory,
)


def _trails(report):
    return sorted(tuple(record.trail) for record in report.executions)


def _violation_keys(report):
    return sorted(
        (violation.time, violation.monitor, violation.message)
        for record in report.executions
        for violation in record.violations
    )


class TestStrategySharding:
    def test_random_strategy_is_deterministic_per_execution_index(self):
        a = RandomStrategy(seed=7, max_executions=10)
        choices = {}
        for index in range(6):
            a.begin_execution()
            choices[index] = [a.choose(4) for _ in range(8)]
        b = RandomStrategy(seed=7, max_executions=10)
        for index in (5, 1, 3):  # out of order, as a worker would run them
            b.seek(index)
            b.begin_execution()
            assert [b.choose(4) for _ in range(8)] == choices[index]

    def test_random_strategy_records_replayable_trail(self):
        strategy = RandomStrategy(seed=0)
        strategy.begin_execution()
        made = [strategy.choose(3) for _ in range(5)]
        assert record_trail(strategy) == made
        replay = ReplayStrategy(trail=record_trail(strategy))
        replay.begin_execution()
        assert [replay.choose(3) for _ in range(5)] == made

    def test_seek_rejects_negative_index(self):
        with pytest.raises(ValueError):
            RandomStrategy(seed=0).seek(-1)

    def test_exhaustive_prefix_pins_leading_choices(self):
        strategy = ExhaustiveStrategy(max_depth=8, prefix=(1,))
        seen = set()
        while strategy.has_more_executions():
            strategy.begin_execution()
            if strategy._exhausted:
                break
            seen.add((strategy.choose(2), strategy.choose(3)))
        assert seen == {(1, j) for j in range(3)}

    def test_exhaustive_prefixes_partition_the_tree(self):
        def enumerate_with(prefix):
            strategy = ExhaustiveStrategy(max_depth=8, prefix=prefix)
            seen = []
            while strategy.has_more_executions():
                strategy.begin_execution()
                if strategy._exhausted:
                    break
                strategy.choose(2)
                strategy.choose(3)
                seen.append(tuple(record_trail(strategy)))
            return seen

        whole = enumerate_with(())
        sharded = enumerate_with((0,)) + enumerate_with((1,))
        assert sorted(sharded) == sorted(whole)
        assert len(whole) == 6

    def test_prefix_must_fit_under_max_depth(self):
        with pytest.raises(ValueError):
            ExhaustiveStrategy(max_depth=2, prefix=(0, 1))


class TestParallelRandomEquivalence:
    def test_same_seed_same_trails_and_violations_safe_model(self):
        serial = SystematicTester(
            scenario_factory("toy-closed-loop"),
            strategy=RandomStrategy(seed=3, max_executions=12),
        )
        serial_report = serial.explore()
        parallel = ParallelTester(
            "toy-closed-loop",
            strategy=RandomStrategy(seed=3, max_executions=12),
            workers=3,
        )
        parallel_report = parallel.explore()
        assert parallel_report.execution_count == serial_report.execution_count
        assert _trails(parallel_report) == _trails(serial_report)
        assert parallel_report.ok and serial_report.ok

    def test_same_seed_same_violation_set_broken_model(self):
        strategy = RandomStrategy(seed=1, max_executions=16)
        serial = SystematicTester(
            scenario_factory("toy-closed-loop", broken_ttf=True), strategy=strategy
        )
        serial_report = serial.explore()
        assert not serial_report.ok
        parallel = ParallelTester(
            "toy-closed-loop",
            scenario_overrides={"broken_ttf": True},
            strategy=RandomStrategy(seed=1, max_executions=16),
            workers=4,
        )
        parallel_report = parallel.explore()
        assert _trails(parallel_report) == _trails(serial_report)
        assert _violation_keys(parallel_report) == _violation_keys(serial_report)

    def test_worker_count_does_not_change_the_result(self):
        reports = [
            ParallelTester(
                "toy-closed-loop",
                scenario_overrides={"broken_ttf": True},
                strategy=RandomStrategy(seed=5, max_executions=10),
                workers=workers,
            ).explore()
            for workers in (1, 2, 4)
        ]
        assert _trails(reports[0]) == _trails(reports[1]) == _trails(reports[2])
        assert (
            _violation_keys(reports[0])
            == _violation_keys(reports[1])
            == _violation_keys(reports[2])
        )


class TestParallelExhaustivePartitioning:
    def test_partition_covers_exactly_the_serial_enumeration(self):
        serial = SystematicTester(
            scenario_factory("multi-obstacle-geofence", horizon=0.6),
            strategy=ExhaustiveStrategy(max_depth=10, max_executions=2000),
        )
        serial_report = serial.explore()
        parallel = ParallelTester(
            "multi-obstacle-geofence",
            scenario_overrides={"horizon": 0.6},
            strategy=ExhaustiveStrategy(max_depth=10, max_executions=2000),
            workers=3,
        )
        parallel_report = parallel.explore()
        assert _trails(parallel_report) == _trails(serial_report)
        assert parallel_report.partitions  # disjoint subtrees were assigned

    def test_partition_prefixes_are_disjoint_and_complete(self):
        parallel = ParallelTester(
            "multi-obstacle-geofence",
            scenario_overrides={"horizon": 0.6},
            strategy=ExhaustiveStrategy(max_depth=10),
            workers=3,
        )
        prefixes = parallel.partition_prefixes(target=3)
        assert len(set(prefixes)) == len(prefixes)
        # Every prefix extends a distinct first choice of the 3-option menu.
        assert sorted(prefix[0] for prefix in prefixes) == [0, 1, 2]

    def test_truncating_budget_matches_serial_exactly(self):
        # max_executions cuts the 27-execution enumeration short; the
        # parallel tester must keep exactly the serial prefix of the
        # depth-first order, not num_subtrees x max_executions records.
        serial = SystematicTester(
            scenario_factory("multi-obstacle-geofence", horizon=0.6),
            strategy=ExhaustiveStrategy(max_depth=10, max_executions=5),
        )
        serial_report = serial.explore()
        assert serial_report.execution_count == 5
        parallel = ParallelTester(
            "multi-obstacle-geofence",
            scenario_overrides={"horizon": 0.6},
            strategy=ExhaustiveStrategy(max_depth=10, max_executions=5),
            workers=3,
        )
        parallel_report = parallel.explore()
        assert parallel_report.execution_count == 5
        assert _trails(parallel_report) == _trails(serial_report)

    def test_exhaustive_finds_the_violations_serial_finds(self):
        strategy = ExhaustiveStrategy(max_depth=10, max_executions=2000)
        serial = SystematicTester(
            scenario_factory("multi-obstacle-geofence", horizon=0.6, include_breach=True),
            strategy=strategy,
        )
        serial_report = serial.explore()
        assert not serial_report.ok
        parallel = ParallelTester(
            "multi-obstacle-geofence",
            scenario_overrides={"horizon": 0.6, "include_breach": True},
            strategy=ExhaustiveStrategy(max_depth=10, max_executions=2000),
            workers=4,
        )
        parallel_report = parallel.explore()
        assert _violation_keys(parallel_report) == _violation_keys(serial_report)
        assert parallel_report.all_confirmed


class TestCounterexampleConfirmation:
    def test_every_counterexample_replays_on_the_serial_engine(self):
        parallel = ParallelTester(
            "toy-closed-loop",
            scenario_overrides={"broken_ttf": True},
            strategy=RandomStrategy(seed=0, max_executions=12),
            workers=3,
        )
        report = parallel.explore()
        assert not report.ok
        assert report.confirmations
        assert report.all_confirmed
        serial = SystematicTester(scenario_factory("toy-closed-loop", broken_ttf=True))
        for confirmation in report.confirmations:
            replayed = serial.replay(confirmation.trail)
            assert replayed.violations

    def test_early_stop_returns_a_confirmed_counterexample(self):
        parallel = ParallelTester(
            "faulty-planner",
            strategy=RandomStrategy(seed=0, max_executions=64),
            workers=2,
        )
        report = parallel.explore(stop_at_first_violation=True)
        assert not report.ok
        # Early stop prunes the sweep: nowhere near all 64 executions ran.
        assert report.execution_count < 64
        assert report.all_confirmed


class TestParallelTesterAPI:
    def test_requires_exactly_one_workload(self):
        with pytest.raises(ValueError):
            ParallelTester()
        with pytest.raises(ValueError):
            ParallelTester(
                "toy-closed-loop",
                harness_factory=scenario_factory("toy-closed-loop"),
            )

    def test_rejects_replay_strategy(self):
        with pytest.raises(TypeError):
            ParallelTester("toy-closed-loop", strategy=ReplayStrategy(trail=[0]))

    def test_overrides_require_scenario(self):
        with pytest.raises(ValueError):
            ParallelTester(
                harness_factory=scenario_factory("toy-closed-loop"),
                scenario_overrides={"broken_ttf": True},
            )

    def test_accepts_plain_harness_factory(self):
        report = ParallelTester(
            harness_factory=scenario_factory("toy-closed-loop"),
            strategy=RandomStrategy(seed=0, max_executions=4),
            workers=2,
        ).explore()
        assert report.execution_count == 4

    def test_single_worker_runs_inline(self):
        report = ParallelTester(
            "toy-closed-loop",
            strategy=RandomStrategy(seed=0, max_executions=3),
            workers=1,
        ).explore()
        assert report.execution_count == 3
        assert report.workers == 1

    def test_model_instance_is_not_collected_as_a_test(self):
        assert ModelInstance.__test__ is False
