"""Executors: drive a compiled RTA system forward in (simulated or wall) time.

The generated C runtime in the paper executes the program "according to
the program's operational semantics" with OS timers providing the periodic
behaviour.  The Python runtime offers three equivalents:

* :class:`SimulatedTimeExecutor` — runs the discrete-event semantics as
  fast as possible in virtual time (used by all tests and benchmarks);
* :class:`AsyncSimulatedTimeExecutor` — the asyncio twin: the same
  virtual-time semantics, but the environment hook may be a coroutine so
  wall-clock-bound work (sensor IO, fleet co-simulation) of many missions
  can overlap in one event loop;
* :class:`WallClockExecutor` — the simulated-time executor with a pacing
  hook that delays each discrete step until its virtual time has elapsed
  on the wall clock (a thin demonstration of on-line execution; not used
  by the benchmarks).

All three sample their monitors on one cadence,
:class:`~repro.core.monitor.MonitorCadence`: every ``monitor_period``
seconds of virtual time, right before the discrete step that follows.
The synchronous two drive :meth:`SemanticsEngine.run_until
<repro.core.semantics.SemanticsEngine.run_until>`; the asyncio twin keeps
its own copy of that loop because it must ``await`` inside it, and its
parity tests prove the copy equal.

Re-entrancy
-----------
Every executor's :meth:`run` resets its monitor suite before driving the
engine, so one executor (and one shared suite) can serve many missions
back to back without the second run inheriting the first run's recorded
violations.  Note that the suite object is
shared across runs: a previously returned :class:`ExecutionResult` reads
whatever the suite currently holds, so snapshot violations before
re-running if you need the old run's verdicts.
"""

from __future__ import annotations

import asyncio
import inspect
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..core.monitor import MonitorCadence, MonitorSuite
from ..core.semantics import SchedulingPolicy, SemanticsEngine
from ..core.system import RTASystem
from .tracing import ExecutionTrace

EnvironmentHook = Callable[[SemanticsEngine, float], None]
#: An async-capable hook: may return ``None`` (plain call) or an awaitable.
AsyncEnvironmentHook = Callable[[SemanticsEngine, float], Any]
StopCondition = Callable[[SemanticsEngine], bool]


@dataclass
class ExecutionResult:
    """What an executor run produced."""

    engine: SemanticsEngine
    trace: ExecutionTrace
    monitors: MonitorSuite
    wall_time: float
    end_time: float

    @property
    def safe(self) -> bool:
        """True if no monitor recorded a violation."""
        return self.monitors.ok


class _Executor:
    """What every executor shares: the system, the policy, the monitor cadence."""

    def __init__(
        self,
        system: RTASystem,
        scheduler: Optional[SchedulingPolicy] = None,
        monitors: Optional[MonitorSuite] = None,
        monitor_period: float = 0.05,
    ) -> None:
        self.system = system
        self.scheduler = scheduler
        self.monitors = monitors or MonitorSuite()
        self.cadence = MonitorCadence(self.monitors, monitor_period)

    def _start(self) -> Tuple[SemanticsEngine, ExecutionTrace]:
        """Reset the monitors (re-entrancy) and build a traced engine."""
        self.cadence.reset()
        trace = ExecutionTrace()
        return SemanticsEngine(self.system, scheduler=self.scheduler, listeners=[trace]), trace

    def _result(
        self, engine: SemanticsEngine, trace: ExecutionTrace, started: float
    ) -> ExecutionResult:
        return ExecutionResult(
            engine=engine,
            trace=trace,
            monitors=self.monitors,
            wall_time=_time.perf_counter() - started,
            end_time=engine.current_time,
        )


class SimulatedTimeExecutor(_Executor):
    """Runs an RTA system in virtual time with optional monitors and environment."""

    def run(
        self,
        duration: float,
        environment: Optional[EnvironmentHook] = None,
        stop_when: Optional[StopCondition] = None,
    ) -> ExecutionResult:
        """Execute for ``duration`` seconds of virtual time.

        The monitor suite is reset first, so repeated ``run()`` calls on
        one executor produce independent verdicts (no violations
        inherited from an earlier mission).
        """
        engine, trace = self._start()
        started = _time.perf_counter()
        cadence = self.cadence

        def hook(inner_engine: SemanticsEngine, upcoming: float) -> None:
            if environment is not None:
                environment(inner_engine, upcoming)
            cadence.advance(inner_engine, upcoming)

        engine.run_until(duration, environment=hook, stop_when=stop_when)
        return self._result(engine, trace, started)


class AsyncSimulatedTimeExecutor(_Executor):
    """The asyncio twin of :class:`SimulatedTimeExecutor`.

    Drives the identical virtual-time semantics — same step order, same
    monitor cadence — but the environment
    hook may be a coroutine function (or return an awaitable), so hooks
    that perform IO or co-simulate a remote fleet suspend the mission at
    well-defined points and let other missions of the same event loop
    make progress.  With a plain synchronous hook (or none) the execution
    is step-for-step identical to the synchronous executor: the engine
    never observes the event loop.

    ``yield_every`` optionally inserts an ``await asyncio.sleep(0)``
    every that many discrete steps, so a long hook-free mission still
    cooperates with its loop neighbours; ``0`` (the default) never yields
    and relies on the hook's own awaits.
    """

    def __init__(
        self,
        system: RTASystem,
        scheduler: Optional[SchedulingPolicy] = None,
        monitors: Optional[MonitorSuite] = None,
        monitor_period: float = 0.05,
        yield_every: int = 0,
    ) -> None:
        super().__init__(system, scheduler, monitors, monitor_period)
        if yield_every < 0:
            raise ValueError("yield_every must be non-negative")
        self.yield_every = yield_every

    async def run(
        self,
        duration: float,
        environment: Optional[AsyncEnvironmentHook] = None,
        stop_when: Optional[StopCondition] = None,
    ) -> ExecutionResult:
        """Execute for ``duration`` seconds of virtual time (awaitable).

        Mirrors :meth:`SimulatedTimeExecutor.run` exactly: monitors are
        reset first (re-entrancy), then the environment hook and the
        monitor cadence run before each discrete step.  Awaitables returned
        by the hook are awaited in place — the only points where the
        mission can suspend besides the optional ``yield_every``
        heartbeat.  This loop is the
        awaiting copy of :meth:`SemanticsEngine.run_until
        <repro.core.semantics.SemanticsEngine.run_until>`.
        """
        engine, trace = self._start()
        started = _time.perf_counter()
        cadence = self.cadence
        steps = 0
        while True:
            next_time = engine.peek_next_time()
            if next_time is None or next_time > duration + 1e-12:
                break
            if environment is not None:
                pending = environment(engine, next_time)
                if inspect.isawaitable(pending):
                    await pending
            cadence.advance(engine, next_time)
            engine.step()
            steps += 1
            if self.yield_every and steps % self.yield_every == 0:
                await asyncio.sleep(0)
            if stop_when is not None and stop_when(engine):
                break
        return self._result(engine, trace, started)


class WallClockExecutor(SimulatedTimeExecutor):
    """Paces the discrete-event execution against the wall clock.

    Every discrete step is delayed until its virtual time has elapsed in
    real time (scaled by ``time_scale``).  This mirrors deploying the
    generated program with OS timers; it exists for demonstration and for
    the quickstart example, not for the benchmarks.  Apart from the
    pacing it is the :class:`SimulatedTimeExecutor`: same loop, same
    firing order, same monitor cadence.
    """

    def __init__(
        self,
        system: RTASystem,
        time_scale: float = 1.0,
        scheduler: Optional[SchedulingPolicy] = None,
        monitors: Optional[MonitorSuite] = None,
        monitor_period: float = 0.05,
    ) -> None:
        if time_scale <= 0.0:
            raise ValueError("time_scale must be positive")
        super().__init__(system, scheduler, monitors, monitor_period)
        self.time_scale = time_scale

    def run(  # type: ignore[override]
        self, duration: float, environment: Optional[EnvironmentHook] = None
    ) -> ExecutionResult:
        """Execute for ``duration`` seconds of virtual time, paced in real time.

        Monitors passed to the constructor are checked on the same
        ``monitor_period`` schedule the :class:`SimulatedTimeExecutor`
        uses, right before each discrete step whose time they precede.
        The suite is reset first, so repeated runs stay independent.
        """
        start_wall = _time.perf_counter()

        def paced(engine: SemanticsEngine, upcoming: float) -> None:
            delay = start_wall + upcoming / self.time_scale - _time.perf_counter()
            if delay > 0:
                _time.sleep(min(delay, 0.05))
            if environment is not None:
                environment(engine, upcoming)

        return super().run(duration, environment=paced)
