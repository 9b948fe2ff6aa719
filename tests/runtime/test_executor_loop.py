"""The executors drive the one engine loop, and their runs are reproducible.

``SemanticsEngine.run_until`` is the only engine loop: the simulated-time
executor adds a trace listener and the monitor cadence around it, and the
wall-clock executor adds pacing and nothing else.  On every registered
scenario an executor run must be reproducible — a fresh instance, and the
same instance reset and re-run on the same executor, give identical
traces, monitor verdicts, engine statistics and end times.
"""

import pytest

import repro.apps.scenarios  # noqa: F401 — registers the built-in scenarios
from repro.core import ConstantNode, Program, SafetySpec, SoterCompiler, Topic
from repro.core.monitor import MonitorCadence, MonitorSuite, TopicSafetyMonitor
from repro.core.semantics import SemanticsEngine
from repro.runtime import ExecutionTrace, SimulatedTimeExecutor, WallClockExecutor
from repro.testing import RandomStrategy, registered_scenarios, scenario_factory


def _bind(instance, strategy):
    """Mimic ``SystematicTester._bind_strategy`` for a bare executor run."""
    if instance.environment is not None:
        instance.environment.reset()
        instance.environment.bind_strategy(strategy)
    for node in instance.system.all_nodes():
        bind = getattr(node, "bind_strategy", None)
        if bind is not None:
            bind(strategy)
    strategy.execution_started()


def _fingerprint(result):
    """Everything reproducibility cares about, in comparable form.

    Violations compare by identity key rather than dataclass equality
    because ``Violation.state`` may hold rich engine objects.
    """
    return (
        result.trace.firings,
        result.trace.switches,
        result.trace.samples,
        result.trace.inputs,
        [(v.time, v.monitor, v.message) for v in result.monitors.violations],
        result.end_time,
        result.engine.stats,
        result.engine.current_time,
    )


def _executor(instance):
    return SimulatedTimeExecutor(instance.system, monitors=instance.monitors)


def _run(instance, executor=None):
    executor = executor or _executor(instance)
    env = instance.environment.apply if instance.environment is not None else None
    return executor.run(instance.horizon, environment=env)


@pytest.mark.parametrize("name", registered_scenarios())
def test_run_is_reproducible_on_every_registered_scenario(name):
    # Unbound strategies degrade to deterministic option 0, so two fresh
    # instances of the same scenario are directly comparable.
    instance = scenario_factory(name)()
    executor = _executor(instance)
    first = _fingerprint(_run(instance, executor))
    assert first[0]  # the scenario actually fired nodes

    fresh = _fingerprint(_run(scenario_factory(name)()))
    assert fresh == first

    # Re-entrancy on real scenarios: reset the instance, re-run the same
    # executor, and nothing of the first run leaks into the second.
    instance.reset()
    again = _fingerprint(_run(instance, executor))
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
        runs.append(_fingerprint(_run(instance)))
    assert runs[0] == runs[1]


def test_executor_is_run_until_plus_the_monitor_cadence():
    # The executor owns no loop of its own: driving ``run_until`` by hand
    # with the environment hook and a ``MonitorCadence`` reproduces it.
    name = "drone-surveillance"
    by_executor = _fingerprint(_run(scenario_factory(name)()))

    instance = scenario_factory(name)()
    trace = ExecutionTrace()
    engine = SemanticsEngine(instance.system, listeners=[trace])
    cadence = MonitorCadence(instance.monitors, 0.05)
    cadence.reset()

    def hook(inner, upcoming):
        instance.environment.apply(inner, upcoming)
        cadence.advance(inner, upcoming)

    engine.run_until(instance.horizon, environment=hook)
    by_hand = (
        trace.firings,
        trace.switches,
        trace.samples,
        trace.inputs,
        [(v.time, v.monitor, v.message) for v in instance.monitors.violations],
        engine.current_time,
        engine.stats,
        engine.current_time,
    )
    assert by_hand == by_executor


def _ticker_system(period=0.05):
    node = ConstantNode("ticker", {"ticks": 1}, period=period)
    program = Program(name="tick", topics=[Topic("ticks", int, None)], nodes=[node])
    return SoterCompiler().compile(program).system


def _suite():
    return MonitorSuite(
        [TopicSafetyMonitor("negative", "ticks", SafetySpec("neg", lambda x: x < 0))]
    )


def test_wall_clock_executor_matches_simulated_time():
    # Apart from the pacing it is the simulated-time executor: same loop,
    # same firing order, same monitor cadence.  A large time scale keeps
    # the paced run to a few milliseconds of wall time.
    simulated = SimulatedTimeExecutor(
        _ticker_system(), monitors=_suite(), monitor_period=0.1
    ).run(0.5)
    paced = WallClockExecutor(
        _ticker_system(), time_scale=1000.0, monitors=_suite(), monitor_period=0.1
    ).run(0.5)
    assert simulated.monitors.violations  # ticks=1 violates x<0 at every sample
    assert _fingerprint(paced) == _fingerprint(simulated)


def test_environment_hook_runs_once_before_each_step():
    seen = []
    result = SimulatedTimeExecutor(_ticker_system(period=0.1)).run(
        0.5, environment=lambda engine, upcoming: seen.append(upcoming)
    )
    firing_times = sorted({firing.time for firing in result.trace.firings})
    assert seen == pytest.approx(firing_times)
    assert len(seen) == result.engine.stats.time_progress_steps
