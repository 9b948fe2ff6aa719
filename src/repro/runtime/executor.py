"""Executors: drive a compiled RTA system forward in (simulated or wall) time.

The generated C runtime in the paper executes the program "according to
the program's operational semantics" with OS timers providing the periodic
behaviour.  The Python runtime offers two equivalents:

* :class:`SimulatedTimeExecutor` — runs the discrete-event semantics as
  fast as possible in virtual time (used by all tests and benchmarks);
* :class:`WallClockExecutor` — the simulated-time executor with a pacing
  hook that delays each discrete step until its virtual time has elapsed
  on the wall clock (a thin demonstration of on-line execution; not used
  by the benchmarks).

Both drive :meth:`SemanticsEngine.run_until
<repro.core.semantics.SemanticsEngine.run_until>`, the one engine loop,
and sample their monitors on one cadence,
:class:`~repro.core.monitor.MonitorCadence`: every ``monitor_period``
seconds of virtual time, right before the discrete step that follows.

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

import time as _time
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.monitor import MonitorCadence, MonitorSuite
from ..core.semantics import SchedulingPolicy, SemanticsEngine
from ..core.system import RTASystem
from .tracing import ExecutionTrace

EnvironmentHook = Callable[[SemanticsEngine, float], None]
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


class SimulatedTimeExecutor:
    """Runs an RTA system in virtual time with optional monitors and environment."""

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
        cadence = self.cadence
        cadence.reset()
        trace = ExecutionTrace()
        engine = SemanticsEngine(self.system, scheduler=self.scheduler, listeners=[trace])
        started = _time.perf_counter()

        def hook(inner_engine: SemanticsEngine, upcoming: float) -> None:
            if environment is not None:
                environment(inner_engine, upcoming)
            cadence.advance(inner_engine, upcoming)

        engine.run_until(duration, environment=hook, stop_when=stop_when)
        return ExecutionResult(
            engine=engine,
            trace=trace,
            monitors=self.monitors,
            wall_time=_time.perf_counter() - started,
            end_time=engine.current_time,
        )


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
