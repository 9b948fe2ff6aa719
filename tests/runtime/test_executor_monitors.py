"""Executor monitor paths: WallClock monitors and its parity with SimulatedTime."""

import pytest

from repro.core import ConstantNode, Program, SafetySpec, SoterCompiler, Topic
from repro.core.monitor import MonitorSuite, TopicSafetyMonitor
from repro.runtime import SimulatedTimeExecutor, WallClockExecutor


def _bad_tick_system(period=0.05):
    # A node whose published value violates the spec on every sample.
    node = ConstantNode("ticker", {"ticks": -1}, period=period)
    program = Program(name="count", topics=[Topic("ticks", int, None)], nodes=[node])
    return SoterCompiler().compile(program).system


def _suite():
    return MonitorSuite(
        [TopicSafetyMonitor("positive", "ticks", SafetySpec("pos", lambda x: x > 0))]
    )


class TestWallClockExecutorMonitors:
    def test_monitors_are_checked_on_schedule(self):
        monitors = _suite()
        executor = WallClockExecutor(
            _bad_tick_system(),
            time_scale=100.0,
            monitors=monitors,
            monitor_period=0.1,
        )
        result = executor.run(0.5)
        assert result.monitors is monitors
        assert not result.safe
        # One check per monitor period that had a published value by then.
        assert 3 <= len(monitors.violations) <= 6
        times = [v.time for v in monitors.violations]
        assert times == sorted(times)

    def test_runs_without_monitors_as_before(self):
        result = WallClockExecutor(_bad_tick_system(), time_scale=100.0).run(0.2)
        assert result.safe  # no monitors -> nothing to violate
        assert result.end_time > 0.0

    def test_monitor_period_validated(self):
        with pytest.raises(ValueError):
            WallClockExecutor(_bad_tick_system(), monitor_period=0.0)


class TestSimulatedTimeExecutorMonitors:
    @pytest.mark.parametrize("period", [0.05, 0.1, 0.2])
    def test_one_check_per_monitor_period(self, period):
        monitors = _suite()
        SimulatedTimeExecutor(
            _bad_tick_system(), monitors=monitors, monitor_period=period
        ).run(1.0)
        # The sample due at k*period is taken right before the step at that
        # instant, so it is stamped with the previous step's time (steps are
        # 0.05 s apart); the sample at 0.0 sees no published value yet.
        count = round(1.0 / period)
        expected = [k * period - 0.05 for k in range(1, count + 1)]
        assert [v.time for v in monitors.violations] == pytest.approx(expected)

    def test_monitor_period_validated(self):
        with pytest.raises(ValueError):
            SimulatedTimeExecutor(_bad_tick_system(), monitor_period=0.0)


class TestWallClockParity:
    """Paced execution is the virtual-time semantics plus sleeps, nothing else."""

    @staticmethod
    def _run(executor_cls, name, scenario_kw, seed, **executor_kw):
        import repro.apps.scenarios  # noqa: F401 — registers the built-in scenarios
        from repro.testing import RandomStrategy, scenario_factory

        instance = scenario_factory(name, **scenario_kw)()
        strategy = RandomStrategy(seed=seed)
        if instance.environment is not None:
            instance.environment.reset()
            instance.environment.bind_strategy(strategy)
        for node in instance.system.all_nodes():
            bind = getattr(node, "bind_strategy", None)
            if bind is not None:
                bind(strategy)
        strategy.execution_started()
        executor = executor_cls(
            instance.system, monitors=instance.monitors, monitor_period=0.1, **executor_kw
        )
        environment = instance.environment.apply if instance.environment is not None else None
        result = executor.run(instance.horizon - 0.03, environment=environment)
        return (
            [(event.time, event.node) for event in result.trace.firings],
            [(v.time, v.monitor, v.message) for v in result.monitors.violations],
            result.end_time,
        )

    @pytest.mark.parametrize(
        "name, scenario_kw",
        [("toy-closed-loop", {"broken_ttf": True}), ("drone-surveillance", {})],
    )
    def test_wall_clock_fires_and_flags_like_simulated_time(self, name, scenario_kw):
        simulated = self._run(SimulatedTimeExecutor, name, scenario_kw, seed=3)
        paced = self._run(WallClockExecutor, name, scenario_kw, seed=3, time_scale=1e4)
        assert simulated[0]  # the system actually fired
        if scenario_kw:
            assert simulated[1]  # the broken time-to-failure bound is caught
        assert paced == simulated
