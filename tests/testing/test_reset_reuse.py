"""Reset-vs-rebuild equivalence: the zero-rebuild hot path changes nothing.

The systematic tester's default reset-and-reuse path must be observably
identical to rebuilding the model instance from the factory for every
execution: byte-identical trails, step counts, and violation sequences,
across every registered scenario and strategy kind, including replay of a
recorded counterexample on a reused instance.
"""

import pytest

from repro.core import Mode, SemanticsEngine
from repro.simulation import PlantEnvironment
from repro.testing import (
    CoverageGuidedStrategy,
    ExhaustiveStrategy,
    ParallelTester,
    RandomStrategy,
    SystematicTester,
    build_scenario,
    scenario_factory,
)

#: Every registered scenario, with overrides that make violations likely so
#: the equivalence claim covers non-empty violation sequences too.  The
#: multi-drone entries prove the Resettable contract holds for N-vehicle
#: fleet compositions (N stacks, per-vehicle monitors, and the pairwise
#: separation monitor all rewind in place).
SCENARIOS = [
    ("toy-closed-loop", {"broken_ttf": True}),
    ("drone-surveillance", {"include_unsafe_position": True}),
    ("battery-safety-abort", {"include_critical": True}),
    ("faulty-planner", {}),
    ("multi-obstacle-geofence", {"include_breach": True}),
    ("multi-drone-surveillance", {"drones": 2, "include_conflict": True}),
    ("multi-drone-crossing", {}),
    ("rare-branch-geofence", {"include_breach": True}),
    ("deep-menu-surveillance", {"include_unsafe_position": True}),
    ("plant-surveillance", {"unsafe_start": True, "drones": 2}),
]


def _record_key(record):
    """Everything an ExecutionRecord observably contains.

    Violation state is compared by type, not repr: some payloads (plans)
    carry a process-global serial number that differs between any two
    sweeps — fresh-build runs included — without being semantic state.
    """
    return (
        record.index,
        record.steps,
        tuple(record.trail or ()),
        tuple(
            (violation.time, violation.monitor, violation.message, type(violation.state).__name__)
            for violation in record.violations
        ),
    )


def _report_keys(report):
    return [_record_key(record) for record in report.executions]


class TestResetVsRebuildEquivalence:
    @pytest.mark.parametrize("name,overrides", SCENARIOS, ids=[s[0] for s in SCENARIOS])
    def test_random_sweep_identical(self, name, overrides):
        factory = scenario_factory(name, **overrides)
        reports = {}
        for reuse in (False, True):
            tester = SystematicTester(
                factory,
                RandomStrategy(seed=3, max_executions=12),
                reuse_instances=reuse,
            )
            reports[reuse] = tester.explore()
        assert _report_keys(reports[True]) == _report_keys(reports[False])
        # The sweeps must actually exercise violations for most scenarios.
        if name != "toy-closed-loop":
            assert not reports[True].ok

    @pytest.mark.parametrize("name,overrides", SCENARIOS, ids=[s[0] for s in SCENARIOS])
    def test_exhaustive_enumeration_identical(self, name, overrides):
        factory = scenario_factory(name, **overrides)
        reports = {}
        for reuse in (False, True):
            tester = SystematicTester(
                factory,
                ExhaustiveStrategy(max_depth=4, max_executions=20),
                reuse_instances=reuse,
            )
            reports[reuse] = tester.explore()
        assert _report_keys(reports[True]) == _report_keys(reports[False])

    @pytest.mark.parametrize(
        "name,overrides",
        [
            ("rare-branch-geofence", {"include_breach": True}),
            ("deep-menu-surveillance", {}),
        ],
        ids=["rare-branch-geofence", "deep-menu-surveillance"],
    )
    def test_coverage_guided_sweep_identical(self, name, overrides):
        # The coverage plane obeys the reset contract too: the per-execution
        # map is cleared by the in-place instance reset while the cumulative
        # map lives with the tester, so reset-and-reuse changes neither the
        # explored executions nor the accumulated coverage.
        factory = scenario_factory(name, **overrides)
        reports = {}
        for reuse in (False, True):
            tester = SystematicTester(
                factory,
                CoverageGuidedStrategy(seed=3, max_executions=12),
                reuse_instances=reuse,
            )
            reports[reuse] = tester.explore()
        assert _report_keys(reports[True]) == _report_keys(reports[False])
        assert reports[True].coverage.counts == reports[False].coverage.counts
        assert reports[True].coverage

    def test_replay_on_reused_instance_matches_original(self):
        factory = scenario_factory("drone-surveillance", include_unsafe_position=True)
        tester = SystematicTester(
            factory, RandomStrategy(seed=5, max_executions=20), reuse_instances=True
        )
        report = tester.explore()
        counterexample = report.first_counterexample()
        assert counterexample is not None
        # Replay runs on the same (reset) instance the sweep just used.
        replayed = tester.replay(counterexample.trail, index=counterexample.index)
        assert _record_key(replayed) == _record_key(counterexample)
        # And the exploration strategy survives the replay untouched.
        assert isinstance(tester.strategy, RandomStrategy)

    def test_replay_on_reused_multi_drone_instance_matches_original(self):
        # A separation counterexample replays on the reused 2-drone fleet
        # instance: the composed system, per-vehicle monitors and the
        # pairwise separation monitor all rewind in place.
        factory = scenario_factory(
            "multi-drone-surveillance", drones=2, include_conflict=True
        )
        tester = SystematicTester(
            factory, RandomStrategy(seed=5, max_executions=25), reuse_instances=True
        )
        report = tester.explore()
        counterexample = report.first_counterexample()
        assert counterexample is not None
        assert any(v.monitor == "phi_separation" for v in counterexample.violations)
        replayed = tester.replay(counterexample.trail, index=counterexample.index)
        assert _record_key(replayed) == _record_key(counterexample)

    def test_reuse_builds_the_instance_exactly_once(self):
        builds = []
        base = scenario_factory("toy-closed-loop")

        def counting_factory():
            builds.append(1)
            return base()

        tester = SystematicTester(
            counting_factory, RandomStrategy(seed=0, max_executions=8), reuse_instances=True
        )
        tester.explore()
        assert len(builds) == 1

    def test_fresh_path_builds_per_execution(self):
        builds = []
        base = scenario_factory("toy-closed-loop")

        def counting_factory():
            builds.append(1)
            return base()

        tester = SystematicTester(
            counting_factory, RandomStrategy(seed=0, max_executions=8), reuse_instances=False
        )
        tester.explore()
        assert len(builds) == 8

    @pytest.mark.parametrize("reuse, resets", [(True, 7), (False, 0)])
    def test_environment_resets_once_per_reused_execution(self, monkeypatch, reuse, resets):
        # The reuse path rewinds the environment with the instance; a fresh
        # build starts rewound.  Nothing else may reset it again.
        calls = []
        reset = PlantEnvironment.reset

        def counting_reset(self):
            calls.append(1)
            reset(self)

        monkeypatch.setattr(PlantEnvironment, "reset", counting_reset)
        tester = SystematicTester(
            scenario_factory("plant-surveillance", unsafe_start=True),
            RandomStrategy(seed=0, max_executions=8),
            reuse_instances=reuse,
        )
        tester.explore()
        assert len(calls) == resets


class TestParallelReuseEquivalence:
    def test_parallel_random_identical_across_reuse(self):
        # The pool always reuses; the serial fresh-build path is the oracle.
        fresh = SystematicTester(
            scenario_factory("multi-obstacle-geofence", include_breach=True),
            RandomStrategy(seed=9, max_executions=10),
            reuse_instances=False,
        ).explore()
        parallel = ParallelTester(
            scenario="multi-obstacle-geofence",
            scenario_overrides={"include_breach": True},
            strategy=RandomStrategy(seed=9, max_executions=10),
            workers=2,
        ).explore()
        assert _report_keys(parallel) == _report_keys(fresh)
        assert parallel.all_confirmed

    def test_parallel_exhaustive_matches_serial_with_reuse(self):
        serial = SystematicTester(
            scenario_factory("toy-closed-loop", broken_ttf=True),
            ExhaustiveStrategy(max_depth=3, max_executions=40),
            reuse_instances=True,
        ).explore()
        parallel = ParallelTester(
            scenario="toy-closed-loop",
            scenario_overrides={"broken_ttf": True},
            strategy=ExhaustiveStrategy(max_depth=3, max_executions=40),
            workers=2,
        ).explore()
        assert _report_keys(parallel) == _report_keys(serial)


class TestEngineReset:
    def test_engine_reset_restores_construction_state(self):
        instance = build_scenario("toy-closed-loop")
        engine = SemanticsEngine(instance.system)
        dm = instance.system.modules[0].decision
        for _ in range(6):
            engine.set_input("state", 8.9)
            engine.step()
        assert engine.current_time > 0.0
        assert engine.stats.node_firings > 0
        engine.reset()
        assert engine.current_time == 0.0
        assert engine.stats.node_firings == 0
        assert engine.stats.time_progress_steps == 0
        assert engine.read_topic("state") is None
        assert engine.calendar.next_time() == 0.0
        assert dm.mode is Mode.SC and dm.switches == []
        # SC enabled, AC disabled: the boot output-enable map.
        module = instance.system.modules[0]
        assert engine.output_enabled[module.spec.safe.name]
        assert not engine.output_enabled[module.spec.advanced.name]

    def test_reset_engine_reruns_identically(self):
        instance = build_scenario("toy-closed-loop")
        engine = SemanticsEngine(instance.system)

        def run():
            trace = []
            for _ in range(8):
                engine.set_input("state", 7.5)
                time, fired = engine.step()
                trace.append((time, tuple(fired), engine.read_topic("cmd")))
            return trace

        first = run()
        engine.reset()
        assert run() == first

    def test_monitor_suite_reset_forgets_violations(self):
        instance = build_scenario("multi-obstacle-geofence", include_breach=True)
        tester = SystematicTester(
            lambda: instance, RandomStrategy(seed=1, max_executions=6), reuse_instances=True
        )
        report = tester.explore()
        assert not report.ok
        instance.monitors.reset()
        assert instance.monitors.ok
        assert instance.monitors.violations == []


class TestStrategyPublicApi:
    def test_exhaustive_exposes_exhaustion_publicly(self):
        strategy = ExhaustiveStrategy(max_depth=4)
        assert not strategy.is_exhausted
        assert strategy.execution_started()
        strategy.choose(2)
        assert strategy.execution_started()  # the second branch
        strategy.choose(2)
        assert not strategy.execution_started()  # odometer exhausted
        assert strategy.is_exhausted

    def test_random_is_never_exhausted(self):
        strategy = RandomStrategy(seed=0, max_executions=2)
        assert strategy.execution_started()
        assert not strategy.is_exhausted

    def test_replay_exhausts_after_its_single_run(self):
        from repro.testing import ReplayStrategy

        strategy = ReplayStrategy(trail=[1, 0])
        assert not strategy.is_exhausted
        assert strategy.execution_started()
        assert not strategy.has_more_executions()
        assert strategy.is_exhausted
        assert not strategy.execution_started()

    def test_minimal_third_party_strategy_still_works(self):
        class Minimal:
            def __init__(self):
                self.runs = 0

            def choose(self, options, label=""):
                return 0

            def begin_execution(self):
                self.runs += 1

            def has_more_executions(self):
                return self.runs < 3

        tester = SystematicTester(
            scenario_factory("toy-closed-loop"), Minimal(), reuse_instances=True
        )
        report = tester.explore()
        assert report.execution_count == 3


class TestReportCaching:
    def test_incremental_failing_and_totals(self):
        from repro.core.monitor import Violation
        from repro.testing.explorer import ExecutionRecord, TestReport

        report = TestReport()
        bad = Violation(time=0.5, monitor="m", message="boom")
        report.add(ExecutionRecord(index=0, steps=3, violations=[]))
        assert report.ok and report.total_violations == 0
        report.add(ExecutionRecord(index=1, steps=3, violations=[bad]))
        report.add(ExecutionRecord(index=2, steps=3, violations=[bad, bad]))
        assert [r.index for r in report.failing] == [1, 2]
        assert report.total_violations == 3
        assert report.first_counterexample().index == 1
        # Direct appends (the old API) are still folded in lazily.
        report.executions.append(ExecutionRecord(index=3, steps=1, violations=[bad]))
        assert [r.index for r in report.failing] == [1, 2, 3]
        assert report.total_violations == 4

    def test_invalidate_after_list_surgery(self):
        from repro.core.monitor import Violation
        from repro.testing.explorer import ExecutionRecord, TestReport

        bad = Violation(time=0.5, monitor="m", message="boom")
        report = TestReport()
        for index in range(4):
            report.add(ExecutionRecord(index=index, steps=1, violations=[bad] if index % 2 else []))
        assert len(report.failing) == 2
        report.executions.sort(key=lambda record: -record.index)
        report.invalidate_caches()
        assert [r.index for r in report.failing] == [3, 1]
        del report.executions[1:]
        assert len(report.failing) == 1  # shrink is detected automatically
        assert report.total_violations == 1
