"""Fault choice points ride the exploration stack end to end.

The tentpole claim: a :class:`~repro.runtime.faults.FaultPlan` lifts fault
timing and kind into the choice trail, so the existing testers — serial,
exhaustive, parallel, population, coverage-guided — enumerate, replay and
compact fault executions with no fault-specific code of their own.  These
tests pin the fault-space size, bit-identical replay, the coverage plane's
fault axis, and byte-equal parallel/population parity on the registered
fault scenarios.
"""

import pytest

from repro.testing import (
    ExhaustiveStrategy,
    ParallelTester,
    PopulationTester,
    RandomStrategy,
    SystematicTester,
    scenario_factory,
)
from repro.testing import population as population_module

PLANNER = "fault-injected-planner"
SURVEILLANCE = "fault-injected-surveillance"


def _record_key(record):
    return (
        record.index,
        record.steps,
        tuple(record.trail or ()),
        tuple((v.time, v.monitor, v.message) for v in record.violations),
    )


def _report_keys(report):
    return [_record_key(record) for record in report.executions]


class TestExhaustiveFaultSweep:
    def test_fault_space_size_is_the_product_of_window_menus(self):
        # Two windows x (no-fault | substitute | crash) = 3 * 3 = 9.
        factory = scenario_factory(PLANNER, protected=True)
        strategy = ExhaustiveStrategy(max_depth=64, max_executions=256)
        report = SystematicTester(factory, strategy, max_permuted=1).explore()
        assert report.execution_count == 9
        assert report.ok  # the SOTER guarantee: protected stack never violates

    def test_unprotected_twin_violates_and_replays_bit_identically(self):
        factory = scenario_factory(PLANNER, protected=False)
        strategy = ExhaustiveStrategy(max_depth=64, max_executions=256)
        tester = SystematicTester(factory, strategy, max_permuted=1)
        report = tester.explore()
        assert report.execution_count == 9
        assert not report.ok
        for record in report.failing:
            replayed = tester.replay(list(record.trail or ()))
            assert tuple(replayed.trail or ()) == tuple(record.trail or ())
            assert [(v.time, v.monitor, v.message) for v in replayed.violations] == [
                (v.time, v.monitor, v.message) for v in record.violations
            ]

    def test_trail_labels_name_the_fault_choice_points(self):
        factory = scenario_factory(PLANNER, protected=True)

        class LabelSpy(ExhaustiveStrategy):
            labels = []

            def choose(self, options, label=None):
                if label:
                    self.labels.append(label)
                return super().choose(options, label=label)

        strategy = LabelSpy(max_depth=64, max_executions=4)
        SystematicTester(factory, strategy, max_permuted=1).explore()
        site_labels = {l for l in strategy.labels if l.startswith("fault:")}
        assert site_labels == {
            "fault:node:SafeMotionPlanner.ac.faultable:w0",
            "fault:node:SafeMotionPlanner.ac.faultable:w1",
        }


class TestCoverageFaultAxis:
    def test_random_sweep_covers_fault_kinds_per_window(self):
        factory = scenario_factory(SURVEILLANCE)
        tester = SystematicTester(
            factory,
            RandomStrategy(seed=2, max_executions=24),
            max_permuted=1,
            track_coverage=True,
        )
        report = tester.explore()
        assert report.ok  # safe by construction
        fault_keys = {k for k in tester.coverage.counts if k[0].startswith("fault:")}
        # Node site: (ok|invert|stuck|crash) x 2 windows; topic site:
        # (ok|drop|stuck|delay) x 1 window.
        node_keys = {k for k in fault_keys if "SafeMotionPrimitive" in k[0]}
        topic_keys = {k for k in fault_keys if k[0] == "fault:topic:localPosition"}
        assert {k[1] for k in node_keys} == {"ok", "invert", "stuck", "crash"}
        assert {k[2] for k in node_keys} == {"w0", "w1"}
        assert {k[1] for k in topic_keys} == {"ok", "drop", "stuck", "delay"}
        # The usual mode/region plane is still there alongside the fault axis.
        assert any(not k[0].startswith("fault:") for k in tester.coverage.counts)


class TestParallelAndPopulationParity:
    def test_parallel_exhaustive_matches_serial_byte_for_byte(self):
        serial = SystematicTester(
            scenario_factory(PLANNER, protected=False),
            ExhaustiveStrategy(max_depth=64, max_executions=256),
            max_permuted=1,
        )
        serial_report = serial.explore()
        parallel = ParallelTester(
            PLANNER,
            scenario_overrides={"protected": False},
            strategy=ExhaustiveStrategy(max_depth=64, max_executions=256),
            workers=2,
            max_permuted=1,
        )
        parallel_report = parallel.explore()
        assert sorted(_report_keys(parallel_report)) == sorted(_report_keys(serial_report))
        assert parallel_report.all_confirmed

    def test_population_compaction_matches_serial_byte_for_byte(self, monkeypatch):
        monkeypatch.setattr(population_module, "POPULATION_SIZE", 16)
        factory = scenario_factory(SURVEILLANCE)
        serial = SystematicTester(
            factory, RandomStrategy(seed=5, max_executions=40), max_permuted=1
        )
        population = PopulationTester(
            factory,
            RandomStrategy(seed=5, max_executions=40),
            max_permuted=1,
        )
        serial_report = serial.explore()
        population_report = population.explore()
        assert _report_keys(population_report) == _report_keys(serial_report)
        # The trie actually compacted shared fault prefixes.
        assert population.stats.executions == 40

    def test_explicit_fault_plan_override_reaches_the_scenario(self):
        from repro.runtime import FaultPlan, FaultSite

        site = FaultSite(
            kinds=("crash",),
            windows=((0.25, 0.75),),
            node="motionPlanner.faultable",
        )
        factory = scenario_factory(
            PLANNER, protected=False, fault_plan=FaultPlan(sites=(site,)).encode()
        )
        strategy = ExhaustiveStrategy(max_depth=64, max_executions=64)
        report = SystematicTester(factory, strategy, max_permuted=1).explore()
        assert report.execution_count == 2  # one window, (no-fault | crash)
