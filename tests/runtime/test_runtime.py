"""Tests for schedulers, tracing and the engine loop's stop condition."""

import pytest

from repro.core import ConstantNode, Program, SoterCompiler, Topic
from repro.core.semantics import SemanticsEngine
from repro.runtime import (
    ExecutionTrace,
    JitteryOSScheduler,
    OverloadScheduler,
    PerfectScheduler,
)


def _counting_system(period=0.1):
    node = ConstantNode("ticker", {"ticks": 1}, period=period)
    program = Program(name="count", topics=[Topic("ticks", int, 0)], nodes=[node])
    return SoterCompiler().compile(program).system


class TestSchedulers:
    def test_perfect_scheduler(self):
        node = ConstantNode("n", {"x": 1})
        scheduler = PerfectScheduler()
        assert scheduler.release_jitter(node, 0.0) == 0.0
        assert not scheduler.drops_execution(node, 0.0)

    def test_jittery_scheduler_bounds_and_reproducibility(self):
        node = ConstantNode("n", {"x": 1})
        a = JitteryOSScheduler(max_jitter=0.05, drop_rate=0.1, seed=3)
        b = JitteryOSScheduler(max_jitter=0.05, drop_rate=0.1, seed=3)
        jitters_a = [a.release_jitter(node, t) for t in range(20)]
        jitters_b = [b.release_jitter(node, t) for t in range(20)]
        assert jitters_a == jitters_b
        assert all(0.0 <= j <= 0.05 for j in jitters_a)

    def test_jittery_scheduler_only_affects_listed_nodes(self):
        target = ConstantNode("target", {"x": 1})
        other = ConstantNode("other", {"y": 1})
        scheduler = JitteryOSScheduler(max_jitter=0.5, drop_rate=1.0, seed=0, only_nodes=["target"])
        assert scheduler.drops_execution(target, 0.0)
        assert not scheduler.drops_execution(other, 0.0)
        assert scheduler.release_jitter(other, 0.0) == 0.0

    def test_jittery_scheduler_validation(self):
        from repro.core.errors import SchedulingError

        with pytest.raises(SchedulingError):
            JitteryOSScheduler(max_jitter=-0.1)
        with pytest.raises(SchedulingError):
            JitteryOSScheduler(drop_rate=1.5)

    def test_overload_scheduler_window(self):
        node = ConstantNode("victim", {"x": 1})
        scheduler = OverloadScheduler(starved_nodes=["victim"], start_time=1.0, end_time=2.0)
        assert not scheduler.drops_execution(node, 0.5)
        assert scheduler.drops_execution(node, 1.5)
        assert not scheduler.drops_execution(node, 2.5)

    def test_jitter_slows_down_firing_cadence(self):
        system = _counting_system(period=0.1)
        engine = SemanticsEngine(system, scheduler=JitteryOSScheduler(max_jitter=0.08, drop_rate=0.0, seed=1))
        engine.run_until(2.0)
        jittered_firings = engine.stats.node_firings
        baseline = SemanticsEngine(_counting_system(period=0.1))
        baseline.run_until(2.0)
        assert jittered_firings <= baseline.stats.node_firings


class TestExecutionTrace:
    def test_trace_collects_events(self):
        system = _counting_system()
        trace = ExecutionTrace()
        engine = SemanticsEngine(system, listeners=[trace])
        engine.set_input("wind", 1.0)
        engine.run_until(0.5)
        assert len(trace.firings) == 6
        assert trace.inputs == 1
        assert trace.firings_of("ticker")
        summary = trace.summary()
        assert summary["firings"] == 6

    def test_samples_and_signals(self):
        trace = ExecutionTrace()
        trace.add_sample(0.0, "clearance", 3.0)
        trace.add_sample(1.0, "clearance", 2.0)
        trace.note("something happened")
        assert trace.signal("clearance") == [(0.0, 3.0), (1.0, 2.0)]
        assert trace.min_signal("clearance") == 2.0
        assert trace.min_signal("missing") is None
        assert trace.duration() == pytest.approx(1.0)
        assert trace.notes == ["something happened"]

    def test_switch_export_csv(self):
        from repro.core.decision import Mode

        trace = ExecutionTrace()
        trace.on_mode_switch(1.0, "m", Mode.AC, Mode.SC, "test")
        csv_text = trace.switches_to_csv()
        assert "module" in csv_text and "m" in csv_text
        assert trace.disengagements("m")
        assert not trace.disengagements("other")


class TestRunUntil:
    def test_stop_when_is_checked_after_each_step(self):
        trace = ExecutionTrace()
        engine = SemanticsEngine(_counting_system(period=0.1), listeners=[trace])
        engine.run_until(10.0, stop_when=lambda inner: inner.current_time >= 0.3)
        assert engine.current_time == pytest.approx(0.3)
        assert len(trace.firings) == 4  # t = 0, 0.1, 0.2, 0.3
