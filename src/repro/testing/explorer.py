"""The systematic testing engine: enumerate executions, check monitors.

This is the reproduction of the SOTER tool chain's "backend systematic
testing engine" (Section V): it executes the discrete model of the program
many times, each time resolving scheduling and abstraction choices through
a strategy (random or exhaustive), evaluates the safety monitors after
every discrete step, and reports any execution that violates them together
with the choice trail needed to replay it.

Reset-and-reuse hot path
------------------------
Exploration throughput lives and dies by per-execution overhead.  With the
safety queries cached and batched (see :mod:`repro.geometry.clearance`),
the dominant remaining cost used to be *rebuilding the model* — every
execution re-ran the harness factory, reconstructing nodes, topics,
wiring, calendar, monitors, and a fresh semantics engine.  By default the
tester now builds the model instance **once**, resets it between
executions through the :class:`~repro.core.resettable.Resettable`
protocol, and reuses the engine, scheduler and violation buffer.
``reuse_instances=False`` restores the fresh-build-per-execution path; the
two are proven equivalent (identical trails, step counts and violation
sequences) in ``tests/testing/test_reset_reuse.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..core.monitor import MonitorSuite, Violation
from ..core.semantics import SemanticsEngine
from ..core.system import RTASystem
from .abstractions import AbstractEnvironment
from .coverage import CoverageMap, CoverageTracker
from .scheduler import BoundedAsynchronyScheduler
from .strategies import (
    ChoiceStrategy,
    ExhaustiveStrategy,
    RandomStrategy,
    ReplayStrategy,
    record_trail,
    start_execution,
)


@dataclass
class ModelInstance:
    """One built instance of the model under test.

    The factory passed to :class:`SystematicTester` must return an
    independent instance on every call (node local state re-created,
    monitors empty).  With the default reset-and-reuse path the tester
    calls the factory once and rewinds the instance between executions
    via :meth:`reset`; with ``reuse_instances=False`` it calls the
    factory once per execution.
    """

    # Not a pytest test class, despite living in a module named "testing".
    __test__ = False

    system: RTASystem
    monitors: MonitorSuite
    environment: Optional[AbstractEnvironment] = None
    horizon: float = 5.0

    def reset(self) -> None:
        """Restore the instance's own components to their just-built state.

        Rewinds node local state, recorded monitor violations, and the
        abstract environment's injection clock.  Engine-held execution
        state (time, topic board, calendar, OE map) belongs to whoever
        built the :class:`~repro.core.semantics.SemanticsEngine` and must
        be rewound with ``engine.reset()`` — the tester's reuse path does
        both (the node resets compose idempotently).
        """
        self.system.reset()
        self.monitors.reset()
        if self.environment is not None:
            self.environment.reset()

    @property
    def fault_plane(self) -> Optional[AbstractEnvironment]:
        """The instance's fault plane, if its environment is one.

        Scenario builders that declare a fault space wrap the real
        environment in a :class:`~repro.runtime.faults.FaultPlane`
        (duck-typing the environment interface), so the testers need no
        extra hook; this property recognises the wrapper by its
        ``fault_sites`` attribute so the coverage plane can pick up the
        fault axis.
        """
        if self.environment is not None and hasattr(self.environment, "fault_sites"):
            return self.environment
        return None


@dataclass
class ExecutionRecord:
    """Outcome of a single explored execution.

    Attributes:
        index: the execution's position in the sweep (serial order).
        steps: discrete time-progress steps the execution took.
        violations: every monitor violation the execution triggered,
            in the order the monitors reported them.
        trail: the recorded choice sequence — replay it with
            :meth:`SystematicTester.replay` to re-execute this execution
            bit-identically.
        worker: the parallel worker that ran it (``None`` when serial).
    """

    index: int
    steps: int
    violations: List[Violation]
    trail: Optional[List[int]] = None
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        """True when the execution triggered no monitor violation."""
        return not self.violations


@dataclass
class TestReport:
    """Aggregated result of a systematic testing run.

    The failing-execution list and violation totals are maintained
    incrementally: records appended to :attr:`executions` are folded into
    the caches on the next property access, so hot loops that poll
    ``report.ok`` after every execution stay O(new records) instead of
    rescanning the whole history.  Code that reorders or removes records
    (the parallel aggregator does both) must call
    :meth:`invalidate_caches` afterwards.

    :attr:`coverage` is the run's cumulative
    :class:`~repro.testing.coverage.CoverageMap` — the distinct
    ``(vehicle, mode, region)`` pairs the sweep visited with per-pair
    sample counts.  It is only populated when the tester tracks coverage
    (``track_coverage=True``, or automatically under
    :class:`~repro.testing.strategies.CoverageGuidedStrategy`).

    >>> from repro.core.monitor import Violation
    >>> report = TestReport()
    >>> report.add(ExecutionRecord(index=0, steps=4, violations=[]))
    >>> report.add(ExecutionRecord(
    ...     index=1, steps=4,
    ...     violations=[Violation(time=0.5, monitor="phi", message="boom")]))
    >>> report.ok, report.execution_count, report.total_violations
    (False, 2, 1)
    >>> report.first_counterexample().index
    1
    """

    __test__ = False

    executions: List[ExecutionRecord] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)

    def __post_init__(self) -> None:
        self._failing_cache: List[ExecutionRecord] = []
        self._violation_total = 0
        self._scanned = 0

    # -- incremental bookkeeping ---------------------------------------- #
    def invalidate_caches(self) -> None:
        """Drop the incremental caches after out-of-band list surgery."""
        self._failing_cache = []
        self._violation_total = 0
        self._scanned = 0

    def _refresh(self) -> None:
        if self._scanned > len(self.executions):
            # Records were removed; the incremental prefix no longer exists.
            self.invalidate_caches()
        for record in self.executions[self._scanned :]:
            if not record.ok:
                self._failing_cache.append(record)
            self._violation_total += len(record.violations)
        self._scanned = len(self.executions)

    def add(self, record: ExecutionRecord) -> None:
        """Append a record (the preferred way to grow the report)."""
        self.executions.append(record)

    @property
    def execution_count(self) -> int:
        return len(self.executions)

    @property
    def failing(self) -> List[ExecutionRecord]:
        self._refresh()
        return list(self._failing_cache)

    @property
    def ok(self) -> bool:
        self._refresh()
        return not self._failing_cache

    @property
    def total_violations(self) -> int:
        self._refresh()
        return self._violation_total

    def first_counterexample(self) -> Optional[ExecutionRecord]:
        """The first failing record, without materialising the failing list."""
        self._refresh()
        return self._failing_cache[0] if self._failing_cache else None

    def summary(self) -> str:
        """One line: executions explored, failures, violations, coverage."""
        self._refresh()
        failing = len(self._failing_cache)
        status = "all executions safe" if not failing else f"{failing} failing execution(s)"
        line = (
            f"systematic testing: {self.execution_count} execution(s) explored, {status}, "
            f"{self.total_violations} violation(s) recorded"
        )
        if self.coverage:
            line += f", {len(self.coverage)} (vehicle, mode, region) pair(s) covered"
        return line


class SystematicTester:
    """Explores executions of a SOTER model under a choice strategy.

    ``reuse_instances`` (default) builds the model instance and semantics
    engine once and resets them between executions — the zero-rebuild hot
    path.  Pass ``reuse_instances=False`` to rebuild everything from the
    factory per execution (the original behaviour; kept as an escape hatch
    and as the oracle for the equivalence tests).

    ``track_coverage`` attaches a
    :class:`~repro.testing.coverage.CoverageTracker` to the model
    instance's monitor suite: every execution's ``(vehicle, mode,
    region)`` occupancy is merged into the tester-level cumulative
    :attr:`coverage` (published as ``report.coverage`` by
    :meth:`explore`) and fed back to strategies that implement
    ``observe_coverage``.  The default ``None`` enables tracking exactly
    when the strategy asks for it (``strategy.wants_coverage``, e.g.
    :class:`~repro.testing.strategies.CoverageGuidedStrategy`), so the
    random/exhaustive hot paths pay nothing unless a caller opts in.

    >>> from repro.testing import RandomStrategy, scenario_factory
    >>> tester = SystematicTester(
    ...     scenario_factory("toy-closed-loop", broken_ttf=True),
    ...     RandomStrategy(seed=0, max_executions=10))
    >>> report = tester.explore(stop_at_first_violation=True)
    >>> report.ok
    False
    >>> replayed = tester.replay(report.first_counterexample().trail)
    >>> replayed.violations[0].monitor
    'phi_inv[toyRover]'
    """

    def __init__(
        self,
        harness_factory: Callable[[], ModelInstance],
        strategy: Optional[ChoiceStrategy] = None,
        max_permuted: int = 6,
        reuse_instances: bool = True,
        track_coverage: Optional[bool] = None,
    ) -> None:
        self.harness_factory = harness_factory
        self.strategy: ChoiceStrategy = strategy or RandomStrategy()
        self.max_permuted = max_permuted
        self.reuse_instances = reuse_instances
        self._track_coverage_option = track_coverage
        #: Cumulative coverage of every execution this tester ran (reset at
        #: the start of each :meth:`explore`); empty unless tracking is on.
        self.coverage = CoverageMap()
        #: The map :meth:`_credit_coverage` credited last: the coverage of
        #: the latest execution while tracking is on.
        self.last_execution_coverage = CoverageMap()
        # Reused across executions on the hot path: the built instance,
        # its engine, the strategy-bound scheduler, and the violation
        # accumulation buffer (cleared, never reallocated).
        self._instance: Optional[ModelInstance] = None
        self._engine: Optional[SemanticsEngine] = None
        self._scheduler: Optional[BoundedAsynchronyScheduler] = None
        self._violation_buffer: List[Violation] = []
        self._tracker: Optional[CoverageTracker] = None
        #: The choice source the reused instance was last bound to.
        self._bound_source: Optional[ChoiceStrategy] = None

    @property
    def track_coverage(self) -> bool:
        """Whether executions feed the coverage plane.

        Explicit ``track_coverage=True/False`` wins; ``None`` defers to
        the current strategy's ``wants_coverage`` marker, so swapping a
        coverage-guided strategy in (as the parallel workers swap
        strategies per shard) enables tracking automatically.
        """
        if self._track_coverage_option is not None:
            return self._track_coverage_option
        return bool(getattr(self.strategy, "wants_coverage", False))

    # ------------------------------------------------------------------ #
    # instance lifecycle
    # ------------------------------------------------------------------ #
    def _acquire(self) -> tuple[ModelInstance, SemanticsEngine]:
        """The model instance + engine for the next execution.

        Fresh-build path: a new instance and engine per call.  Reuse path:
        build once, then rewind in place — the engine reset restores time,
        topics, calendar, statistics and node state; the monitor reset
        forgets recorded violations.
        """
        if not self.reuse_instances:
            harness = self.harness_factory()
            self._attach_tracker(harness)
            return harness, SemanticsEngine(harness.system)
        if self._instance is None:
            self._instance = self.harness_factory()
            self._engine = SemanticsEngine(self._instance.system)
            self._attach_tracker(self._instance)
        else:
            assert self._engine is not None
            self._engine.reset()
            # The instance reset clears the tracker's per-execution map
            # (via MonitorSuite.reset) while the tester-held cumulative
            # map stays warm — the coverage half of the reset contract.
            self._instance.reset()
            if self.track_coverage and self._tracker is None:
                self._attach_tracker(self._instance)
        return self._instance, self._engine  # type: ignore[return-value]

    def _attach_tracker(self, harness: ModelInstance) -> None:
        """Wire the coverage tracker into the instance's monitor suite.

        The tracker rides the suite's existing per-step sampling
        (it implements the monitor protocol but never reports a
        violation), so coverage costs nothing when tracking is off and
        no extra engine hooks when it is on.  The callers decide the
        cadence: once per fresh-built instance, once ever on the reuse
        path.
        """
        if not self.track_coverage:
            self._tracker = None
            return
        self._tracker = CoverageTracker(harness.system, fault_plane=harness.fault_plane)
        harness.monitors.add(self._tracker)

    def _order_scheduler(self, source: ChoiceStrategy) -> BoundedAsynchronyScheduler:
        """The bounded-asynchrony scheduler bound to the choice ``source``.

        ``source`` is the current strategy, or whatever answers choices in
        its place (the population plane's trail router).
        """
        if self._scheduler is None or self._scheduler.strategy is not source:
            self._scheduler = BoundedAsynchronyScheduler(
                source, max_permuted=self.max_permuted
            )
        return self._scheduler

    # ------------------------------------------------------------------ #
    # single execution
    # ------------------------------------------------------------------ #
    def run_single(self, index: int) -> ExecutionRecord:
        """Run one execution under the current strategy state.

        The caller is responsible for having called
        ``strategy.begin_execution()`` first; :meth:`explore` does, and so
        do the parallel workers that reuse this method to run individual
        executions out of their serial order.
        """
        harness, engine = self._acquire()
        strategy = self.strategy
        scheduler = self._order_scheduler(strategy)
        self._bind_strategy(harness, strategy)
        violations = self._violation_buffer
        violations.clear()
        steps = self._run_steps(harness, engine, scheduler, 0)
        self._harvest_coverage()
        return ExecutionRecord(
            index=index,
            steps=steps,
            violations=list(violations),
            trail=record_trail(strategy),
        )

    def _run_steps(
        self,
        harness: ModelInstance,
        engine: SemanticsEngine,
        scheduler: BoundedAsynchronyScheduler,
        steps: int,
        boundary: Optional[Callable[[int], None]] = None,
    ) -> int:
        """Drive one execution from ``steps`` steps in to its horizon.

        Each step is the Fig. 11 order: environment input, time progress,
        the due nodes fired in the scheduler's order, then every monitor.
        New violations go to the violation buffer; the step count at the
        horizon is returned.  ``boundary`` is called with the step
        count at every step boundary, including the last.
        """
        violations = self._violation_buffer
        # Hoisted loop invariants: this is the innermost exploration loop.
        environment = harness.environment
        monitors = harness.monitors
        calendar = engine.calendar
        stats = engine.stats
        horizon = harness.horizon + 1e-12
        while True:
            if boundary is not None:
                boundary(steps)
            pending = calendar.next_due()
            if pending is None:
                break
            next_time, due = pending
            if next_time > horizon:
                break
            if environment is not None:
                environment.apply(engine, next_time)
            if next_time > engine.current_time:
                engine.current_time = next_time
            stats.time_progress_steps += 1
            # The scheduler's order is a permutation of ``due`` by
            # construction, so the validation-free engine path applies.
            engine._fire_ordered(scheduler.order(due))
            violations.extend(monitors.check_all(engine))
            steps += 1
        return steps

    def _harvest_coverage(self) -> Optional[CoverageMap]:
        """Drain the execution's coverage; credit and return it when tracking.

        The tracker is drained even when tracking is off for this run
        (e.g. a replay on a tracker-equipped instance), so stale samples
        never leak into a later execution's coverage.
        """
        if self._tracker is None:
            return None
        execution_coverage = self._tracker.take_execution_map()
        if not self.track_coverage:
            return None
        self._credit_coverage(execution_coverage)
        return execution_coverage

    def _credit_coverage(self, execution_coverage: CoverageMap) -> None:
        """Fold one execution's coverage into the sweep and the strategy."""
        self.last_execution_coverage = execution_coverage
        self.coverage.merge(execution_coverage)
        observe = getattr(self.strategy, "observe_coverage", None)
        if observe is not None:
            observe(execution_coverage)

    def replay(self, trail: Sequence[int], index: int = 0) -> ExecutionRecord:
        """Deterministically re-execute a recorded counterexample trail.

        On the reuse path the replay runs on the tester's own (reset)
        instance — replaying a counterexample costs one reset, not a
        rebuild.  The exploration strategy is restored afterwards, and
        coverage tracking is suspended for the replay (whatever the
        ``track_coverage`` setting), so re-executing a counterexample
        never double-counts samples into an already-published map.  A
        replay always takes this class's own :meth:`run_single`, so a
        subclass that shares or compacts executions still re-executes the
        trail and leaves its sharing state alone.
        """
        strategy = ReplayStrategy(trail=list(trail))
        saved_strategy, saved_scheduler = self.strategy, self._scheduler
        saved_tracking = self._track_coverage_option
        self.strategy = strategy
        self._scheduler = None
        self._track_coverage_option = False
        try:
            strategy.begin_execution()
            return SystematicTester.run_single(self, index)
        finally:
            self.strategy = saved_strategy
            self._scheduler = saved_scheduler
            self._track_coverage_option = saved_tracking

    def _bind_strategy(self, harness: ModelInstance, source: ChoiceStrategy) -> None:
        """Make the choice ``source`` answer every choice the model makes."""
        self._bound_source = source
        if harness.environment is not None:
            harness.environment.reset()
            harness.environment.bind_strategy(source)
        # Duck-typed: NondeterministicNode and the fault plane's
        # ChoiceFaultInjector both expose bind_strategy; anything else
        # with the hook gets the source too.
        for node in harness.system.all_nodes():
            bind = getattr(node, "bind_strategy", None)
            if bind is not None:
                bind(source)

    # ------------------------------------------------------------------ #
    # exploration loop
    # ------------------------------------------------------------------ #
    def explore(self, stop_at_first_violation: bool = False) -> TestReport:
        """Run executions until the strategy is exhausted (or a bug is found).

        Args:
            stop_at_first_violation: end the sweep at the first failing
                execution instead of running the full budget.

        Returns:
            A :class:`TestReport` with one :class:`ExecutionRecord` per
            execution (serial order) and, when coverage is tracked, the
            sweep's cumulative :attr:`~TestReport.coverage` map.
        """
        report = TestReport()
        self.coverage = CoverageMap()  # cumulative over this sweep only
        index = 0
        while self.strategy.has_more_executions():
            if not start_execution(self.strategy):
                break
            record = self.run_single(index)
            report.add(record)
            index += 1
            if stop_at_first_violation and not record.ok:
                break
        report.coverage = self.coverage
        return report
