"""``SemanticsEngine.run_until`` is the one engine loop, and its runs are reproducible.

A mission drives it with an environment hook that closes the plant loop
and advances a :class:`~repro.core.monitor.MonitorCadence`
(:class:`~repro.simulation.DroneSimulation` is that hook).  On every
registered scenario such a run must be reproducible — a fresh instance,
and the same instance reset and re-run with the same cadence, give
identical traces, monitor verdicts, engine statistics and end times.
"""

import pytest

import repro.apps.scenarios  # noqa: F401 — registers the built-in scenarios
from repro.core import ConstantNode, FunctionNode, Program, SafetySpec, SoterCompiler, Topic
from repro.core.monitor import MonitorCadence, MonitorSuite, TopicSafetyMonitor
from repro.core.semantics import SemanticsEngine
from repro.runtime import ExecutionTrace
from repro.testing import RandomStrategy, registered_scenarios, scenario_factory


def _bind(instance, strategy):
    """Mimic ``SystematicTester._bind_strategy`` for a bare engine run."""
    if instance.environment is not None:
        instance.environment.reset()
        instance.environment.bind_strategy(strategy)
    for node in instance.system.all_nodes():
        bind = getattr(node, "bind_strategy", None)
        if bind is not None:
            bind(strategy)
    strategy.execution_started()


def _run(instance, cadence=None):
    """One run: a fresh engine, the scenario's environment and a monitor cadence.

    Returns everything reproducibility cares about, in comparable form.
    Violations compare by identity key rather than dataclass equality
    because ``Violation.state`` may hold rich engine objects.
    """
    cadence = cadence or MonitorCadence(instance.monitors, 0.05)
    cadence.reset()
    trace = ExecutionTrace()
    engine = SemanticsEngine(instance.system, listeners=[trace])
    environment = instance.environment

    def hook(inner, upcoming):
        if environment is not None:
            environment.apply(inner, upcoming)
        cadence.advance(inner, upcoming)

    engine.run_until(instance.horizon, environment=hook)
    return (
        trace.firings,
        trace.switches,
        trace.samples,
        trace.inputs,
        [(v.time, v.monitor, v.message) for v in cadence.suite.violations],
        engine.stats,
        engine.current_time,
    )


@pytest.mark.parametrize("name", registered_scenarios())
def test_run_is_reproducible_on_every_registered_scenario(name):
    # Unbound strategies degrade to deterministic option 0, so two fresh
    # instances of the same scenario are directly comparable.
    instance = scenario_factory(name)()
    cadence = MonitorCadence(instance.monitors, 0.05)
    first = _run(instance, cadence)
    assert first[0]  # the scenario actually fired nodes

    fresh = _run(scenario_factory(name)())
    assert fresh == first

    # Re-entrancy on real scenarios: reset the instance, re-run with the
    # same cadence, and nothing of the first run leaks into the second.
    instance.reset()
    again = _run(instance, cadence)
    assert again == first


@pytest.mark.parametrize("name", ["drone-surveillance", "fault-injected-planner"])
@pytest.mark.parametrize("seed", [3, 11])
def test_run_is_reproducible_under_a_bound_random_strategy(name, seed):
    # Same-seeded strategies make identical choices on both instances, so
    # the nondeterministic paths (environment injections, fault windows)
    # are exercised too.
    runs = []
    for _ in range(2):
        instance = scenario_factory(name)()
        _bind(instance, RandomStrategy(seed=seed))
        runs.append(_run(instance))
    assert runs[0] == runs[1]


def _ticker_system(period=0.05, ticks=1):
    node = ConstantNode("ticker", {"ticks": ticks}, period=period)
    program = Program(name="tick", topics=[Topic("ticks", int, None)], nodes=[node])
    return SoterCompiler().compile(program).system


def test_environment_hook_runs_once_before_each_step():
    seen = []
    trace = ExecutionTrace()
    engine = SemanticsEngine(_ticker_system(period=0.1), listeners=[trace])
    engine.run_until(0.5, environment=lambda inner, upcoming: seen.append(upcoming))
    firing_times = sorted({firing.time for firing in trace.firings})
    assert seen == pytest.approx(firing_times)
    assert len(seen) == engine.stats.time_progress_steps


@pytest.mark.parametrize("period", [0.05, 0.1, 0.2])
def test_the_cadence_checks_once_per_monitor_period(period):
    # ticks=-1 violates x > 0 at every sample that sees a published value.
    monitors = MonitorSuite(
        [TopicSafetyMonitor("positive", "ticks", SafetySpec("pos", lambda x: x > 0))]
    )
    cadence = MonitorCadence(monitors, period)
    engine = SemanticsEngine(_ticker_system(ticks=-1))
    engine.run_until(1.0, environment=cadence.advance)
    # The sample due at k*period is taken right before the step at that
    # instant, so it is stamped with the previous step's time (steps are
    # 0.05 s apart); the sample at 0.0 sees no published value yet.
    count = round(1.0 / period)
    expected = [k * period - 0.05 for k in range(1, count + 1)]
    assert [v.time for v in monitors.violations] == pytest.approx(expected)


def _negative_tick_suite():
    return MonitorSuite(
        [TopicSafetyMonitor("positive", "ticks", SafetySpec("pos", lambda x: x > 0))]
    )


def _run_with_cadence(system, cadence, end_time, environment=None):
    """A bare mission loop: a fresh engine, the hook, then the cadence."""
    cadence.reset()
    trace = ExecutionTrace()
    engine = SemanticsEngine(system, listeners=[trace])

    def hook(inner, upcoming):
        if environment is not None:
            environment(inner, upcoming)
        cadence.advance(inner, upcoming)

    engine.run_until(end_time, environment=hook)
    return engine, trace


def _keys(violations):
    return [(v.time, v.monitor, v.message) for v in violations]


def test_a_safe_run_under_the_cadence_fires_and_records_no_violation():
    monitors = MonitorSuite(
        [TopicSafetyMonitor("ticks-positive", "ticks", SafetySpec("pos", lambda x: x >= 0))]
    )
    engine, trace = _run_with_cadence(_ticker_system(), MonitorCadence(monitors, 0.1), 1.0)
    assert monitors.ok and not monitors.violations
    assert engine.current_time == pytest.approx(1.0)
    assert trace.firings


def test_the_hook_sets_inputs_the_next_step_reads():
    node = FunctionNode(
        "echo", lambda now, inputs: {"echoed": inputs.get("signal")},
        subscribes=("signal",), publishes=("echoed",), period=0.1,
    )
    program = Program(name="echo", topics=[Topic("signal"), Topic("echoed")], nodes=[node])
    system = SoterCompiler().compile(program).system
    engine = SemanticsEngine(system)
    engine.run_until(0.5, environment=lambda inner, upcoming: inner.set_input("signal", upcoming))
    assert engine.read_topic("echoed") == pytest.approx(0.5)


class TestCadenceReentrancy:
    """A reset cadence must not carry the previous run's verdicts or instants.

    A long-running service re-runs missions on a warm cadence; one that
    kept its violations, or its next sampling instant, would double-count
    every verdict or skip the next run's first samples.
    """

    def test_a_second_run_reports_independent_violations(self):
        monitors = _negative_tick_suite()
        cadence = MonitorCadence(monitors, 0.1)
        _run_with_cadence(_ticker_system(ticks=-1), cadence, 0.5)
        first = _keys(monitors.violations)
        assert first  # the spec must actually fire
        _run_with_cadence(_ticker_system(ticks=-1), cadence, 0.5)
        # Identical runs, identical verdicts — not first + first again.
        assert _keys(monitors.violations) == first

    def test_a_warm_cadence_matches_a_fresh_one(self):
        warm = MonitorCadence(_negative_tick_suite(), 0.1)
        _run_with_cadence(_ticker_system(ticks=-1), warm, 0.7)
        _run_with_cadence(_ticker_system(ticks=-1), warm, 0.5)
        fresh = MonitorCadence(_negative_tick_suite(), 0.1)
        _run_with_cadence(_ticker_system(ticks=-1), fresh, 0.5)
        assert _keys(warm.suite.violations) == _keys(fresh.suite.violations)

    def test_an_aborted_run_does_not_leak_into_the_next(self):
        # A hook that blows up mid-run leaves violations and a half-advanced
        # cadence behind; the next run must start clean.
        cadence = MonitorCadence(_negative_tick_suite(), 0.05)

        def exploding(inner, upcoming):
            if upcoming > 0.2:
                raise RuntimeError("mid-run crash")

        with pytest.raises(RuntimeError):
            _run_with_cadence(_ticker_system(ticks=-1), cadence, 1.0, environment=exploding)
        assert cadence.suite.violations  # the stale state the reset clears
        assert cadence.next_time > 0.2
        # A run shorter than the aborted one: stale verdicts, or a cadence
        # still waiting for its next instant past 0.2, would show.
        _run_with_cadence(_ticker_system(ticks=-1), cadence, 0.1)
        clean = MonitorCadence(_negative_tick_suite(), 0.05)
        _run_with_cadence(_ticker_system(ticks=-1), clean, 0.1)
        assert _keys(cadence.suite.violations) == _keys(clean.suite.violations)
        assert len(clean.suite.violations) == 2
