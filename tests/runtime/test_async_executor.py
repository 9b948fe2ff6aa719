"""AsyncSimulatedTimeExecutor: step-for-step parity with the sync executor.

The asyncio twin must be indistinguishable from ``SimulatedTimeExecutor``
on hook-free (and plain-sync-hook) workloads: identical traces, monitor
verdicts, engine stats and end times on every registered scenario.  Its
one new capability — awaitable environment hooks — must suspend the
mission at the hook point without perturbing the semantics, so several
missions interleave on one event loop and each still matches its solo
run.
"""

import asyncio

import pytest

import repro.apps.scenarios  # noqa: F401 — registers the built-in scenarios
from repro.core import ConstantNode, Program, SafetySpec, SoterCompiler, Topic
from repro.core.monitor import MonitorSuite, TopicSafetyMonitor
from repro.runtime import AsyncSimulatedTimeExecutor, SimulatedTimeExecutor
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
    """Everything parity cares about, in comparable form.

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


def _run_sync(instance, strategy=None, **executor_kw):
    if strategy is not None:
        _bind(instance, strategy)
    executor = SimulatedTimeExecutor(
        instance.system, monitors=instance.monitors, **executor_kw
    )
    env = instance.environment.apply if instance.environment is not None else None
    return executor.run(instance.horizon, environment=env)


def _run_async(instance, strategy=None, **executor_kw):
    if strategy is not None:
        _bind(instance, strategy)
    executor = AsyncSimulatedTimeExecutor(
        instance.system, monitors=instance.monitors, **executor_kw
    )
    env = instance.environment.apply if instance.environment is not None else None
    return asyncio.run(executor.run(instance.horizon, environment=env))


@pytest.mark.parametrize("name", registered_scenarios())
def test_parity_on_every_registered_scenario(name):
    # Unbound strategies degrade to deterministic option 0, so two fresh
    # instances of the same scenario are directly comparable.
    sync_result = _run_sync(scenario_factory(name)())
    async_result = _run_async(scenario_factory(name)())
    assert _fingerprint(async_result) == _fingerprint(sync_result)


@pytest.mark.parametrize("name", ["drone-surveillance", "fault-injected-planner"])
@pytest.mark.parametrize("seed", [3, 11])
def test_parity_under_a_bound_random_strategy(name, seed):
    # Same-seeded strategies make identical choices on both instances, so
    # the nondeterministic paths (environment injections, fault windows)
    # are exercised too.
    sync_result = _run_sync(
        scenario_factory(name)(), strategy=RandomStrategy(seed=seed)
    )
    async_result = _run_async(
        scenario_factory(name)(), strategy=RandomStrategy(seed=seed)
    )
    assert _fingerprint(async_result) == _fingerprint(sync_result)


def test_parity_with_yield_every():
    name = "drone-surveillance"
    sync_result = _run_sync(scenario_factory(name)())
    async_result = _run_async(scenario_factory(name)(), yield_every=7)
    assert _fingerprint(async_result) == _fingerprint(sync_result)


def _ticker_system(period=0.05):
    node = ConstantNode("ticker", {"ticks": 1}, period=period)
    program = Program(name="tick", topics=[Topic("ticks", int, None)], nodes=[node])
    return SoterCompiler().compile(program).system


def _suite():
    return MonitorSuite(
        [TopicSafetyMonitor("positive", "ticks", SafetySpec("pos", lambda x: x > 0))]
    )


def test_async_hook_is_awaited_and_semantics_match_sync():
    awaited = []

    async def async_hook(engine, upcoming):
        awaited.append(upcoming)
        await asyncio.sleep(0)

    async_executor = AsyncSimulatedTimeExecutor(
        _ticker_system(), monitors=_suite(), monitor_period=0.1
    )
    async_result = asyncio.run(async_executor.run(0.5, environment=async_hook))
    assert awaited  # the coroutine hook actually ran (and was awaited)

    sync_executor = SimulatedTimeExecutor(
        _ticker_system(), monitors=_suite(), monitor_period=0.1
    )
    sync_result = sync_executor.run(0.5)
    assert _fingerprint(async_result) == _fingerprint(sync_result)


def test_missions_interleave_on_one_event_loop():
    # Two missions whose hooks yield at every step must make interleaved
    # progress — neither monopolises the loop — and still match solo runs.
    log = []

    def mission(tag):
        executor = AsyncSimulatedTimeExecutor(
            _ticker_system(), monitors=_suite(), monitor_period=0.1
        )

        async def hook(engine, upcoming):
            log.append(tag)
            await asyncio.sleep(0)

        return executor.run(1.0, environment=hook)

    async def both():
        return await asyncio.gather(mission("a"), mission("b"))

    result_a, result_b = asyncio.run(both())
    assert _fingerprint(result_a) == _fingerprint(result_b)
    # Interleaved, not a→a→…→a then b→b→…→b.
    first_b = log.index("b")
    assert "a" in log[first_b:]

    solo = asyncio.run(mission("solo"))
    assert _fingerprint(solo) == _fingerprint(result_a)


def test_stop_when_checked_after_each_step():
    executor = AsyncSimulatedTimeExecutor(_ticker_system(period=0.1))
    result = asyncio.run(
        executor.run(10.0, stop_when=lambda engine: engine.current_time >= 0.3)
    )
    sync = SimulatedTimeExecutor(_ticker_system(period=0.1)).run(
        10.0, stop_when=lambda engine: engine.current_time >= 0.3
    )
    assert result.end_time == sync.end_time
    assert _fingerprint(result) == _fingerprint(sync)


def test_run_is_reentrant():
    monitors = MonitorSuite(
        [TopicSafetyMonitor("negative", "ticks", SafetySpec("neg", lambda x: x < 0))]
    )
    executor = AsyncSimulatedTimeExecutor(
        _ticker_system(), monitors=monitors, monitor_period=0.1
    )
    asyncio.run(executor.run(0.5))
    first = [(v.time, v.monitor, v.message) for v in monitors.violations]
    assert first  # ticks=1 violates x<0 at every sample
    asyncio.run(executor.run(0.5))
    assert [(v.time, v.monitor, v.message) for v in monitors.violations] == first


@pytest.mark.parametrize(
    "kwargs",
    [
        {"monitor_period": 0.0},
        {"yield_every": -1},
    ],
)
def test_constructor_validation(kwargs):
    with pytest.raises(ValueError):
        AsyncSimulatedTimeExecutor(_ticker_system(), **kwargs)
