"""Executor re-entrancy: a second run() must not inherit the first run's state.

Regression pin for the service work: both executors used to reuse
``self.monitors`` across calls without resetting it, so a second ``run()``
started with the first run's recorded violations.  One long-running service
process re-running missions on a warm executor would double-count every
verdict.
"""

import pytest

from repro.core import ConstantNode, Program, SafetySpec, SoterCompiler, Topic
from repro.core.monitor import MonitorSuite, TopicSafetyMonitor
from repro.runtime import SimulatedTimeExecutor, WallClockExecutor


def _bad_tick_system(period=0.05):
    node = ConstantNode("ticker", {"ticks": -1}, period=period)
    program = Program(name="count", topics=[Topic("ticks", int, None)], nodes=[node])
    return SoterCompiler().compile(program).system


def _suite():
    return MonitorSuite(
        [TopicSafetyMonitor("positive", "ticks", SafetySpec("pos", lambda x: x > 0))]
    )


def _keys(violations):
    return [(v.time, v.monitor, v.message) for v in violations]


class TestSimulatedTimeReentrancy:
    def test_second_run_reports_independent_violations(self):
        monitors = _suite()
        executor = SimulatedTimeExecutor(
            _bad_tick_system(), monitors=monitors, monitor_period=0.1
        )
        executor.run(0.5)
        first = _keys(monitors.violations)
        assert first  # the spec must actually fire
        executor.run(0.5)
        second = _keys(monitors.violations)
        # Identical runs, identical verdicts — NOT first + first again.
        assert second == first

    def test_matches_a_fresh_executor(self):
        warm = SimulatedTimeExecutor(
            _bad_tick_system(), monitors=_suite(), monitor_period=0.1
        )
        warm.run(0.5)
        warm_result = warm.run(0.5)
        fresh = SimulatedTimeExecutor(
            _bad_tick_system(), monitors=_suite(), monitor_period=0.1
        )
        fresh_result = fresh.run(0.5)
        assert _keys(warm_result.monitors.violations) == _keys(
            fresh_result.monitors.violations
        )


    def test_aborted_run_does_not_leak_into_the_next(self):
        # An environment hook that blows up mid-run leaves violations and a
        # half-advanced cadence behind; the next run must start clean.
        monitors = _suite()
        executor = SimulatedTimeExecutor(
            _bad_tick_system(), monitors=monitors, monitor_period=0.05
        )

        def exploding(engine, upcoming):
            if upcoming > 0.2:
                raise RuntimeError("mid-run crash")

        with pytest.raises(RuntimeError):
            executor.run(1.0, environment=exploding)
        assert monitors.violations  # the stale state the reset clears
        assert executor.cadence.next_time > 0.2
        # A mission shorter than the aborted one: stale verdicts, or a
        # cadence still waiting for its next instant past 0.2, would show.
        executor.run(0.1)
        clean = SimulatedTimeExecutor(
            _bad_tick_system(), monitors=_suite(), monitor_period=0.05
        )
        clean.run(0.1)
        assert _keys(monitors.violations) == _keys(clean.monitors.violations)
        assert len(clean.monitors.violations) == 2


class TestWallClockReentrancy:
    def test_second_run_reports_independent_violations(self):
        monitors = _suite()
        executor = WallClockExecutor(
            _bad_tick_system(), time_scale=100.0, monitors=monitors, monitor_period=0.1
        )
        executor.run(0.5)
        first = _keys(monitors.violations)
        assert first
        executor.run(0.5)
        assert _keys(monitors.violations) == first
