"""Safety and invariant monitors.

Monitors observe the running system (its topic valuation and module modes)
and record violations.  They serve two purposes in the reproduction:

* validating Theorem 3.1's invariant ``φ_Inv`` online (the
  :class:`InvariantMonitor`), and
* measuring how often the *unprotected* stack violates φ_safe (Figure 5)
  versus the RTA-protected stack (Figures 12a–c, Section V-D).

Batched evaluation
------------------
Besides the immediate :meth:`MonitorSuite.check_all`, the suite offers a
windowed path: :meth:`MonitorSuite.capture_all` snapshots each monitor's
observations (topic value, module mode, time) without evaluating any
predicate, and :meth:`MonitorSuite.flush` evaluates a whole window of
samples in one batched call per monitor.  Verdicts, violation times and
the violation *order* are identical to running ``check_all`` at every
sample — batch predicates are required to agree with their scalar
counterparts (see :class:`~repro.core.specs.SafetySpec`) and flushed
violations are re-sorted into sample-major, monitor-minor order, exactly
the order the scalar loop produces.  Executors and the systematic tester
use this to amortise Python dispatch over many samples while preserving
first-violation times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import min_pairwise_separation, pairwise_index_pairs, pairwise_separations
from .decision import Mode
from .module import RTAModuleInstance
from .semantics import SemanticsEngine
from .specs import SafetySpec


@dataclass(frozen=True)
class Violation:
    """A recorded violation of a monitored property."""

    time: float
    monitor: str
    message: str
    state: Any = None

    # Recorded event, never mutated after creation: copying returns the
    # object itself, which keeps snapshot paths cheap.
    def __copy__(self) -> "Violation":
        return self

    def __deepcopy__(self, memo: dict) -> "Violation":
        return self


@dataclass
class MonitorResult:
    """Violations accumulated by one monitor."""

    name: str
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def count(self) -> int:
        return len(self.violations)

    def clear(self) -> None:
        """Forget every recorded violation (used by the reset-and-reuse path)."""
        self.violations.clear()


class TopicSafetyMonitor:
    """Checks a :class:`SafetySpec` against the value of a topic every sample."""

    def __init__(
        self,
        name: str,
        topic: str,
        spec: SafetySpec,
        ignore_missing: bool = True,
    ) -> None:
        self.name = name
        self.topic = topic
        self.spec = spec
        self.ignore_missing = ignore_missing
        self.result = MonitorResult(name=name)
        self._pending: List[Tuple[int, float, Any]] = []

    def reset(self) -> None:
        """Forget recorded violations and pending samples (Resettable)."""
        self.result.clear()
        self._pending.clear()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> tuple:
        return (tuple(self.result.violations), tuple(self._pending))

    def restore_delta_state(self, state: tuple) -> None:
        violations, pending = state
        self.result.violations[:] = violations
        self._pending[:] = pending

    def check(self, engine: SemanticsEngine) -> Optional[Violation]:
        """Evaluate the property on the current topic value; record any violation."""
        value = engine.read_topic(self.topic)
        if value is None and self.ignore_missing:
            return None
        if self.spec.contains(value):
            return None
        violation = Violation(
            time=engine.current_time,
            monitor=self.name,
            message=f"topic {self.topic!r} violates {self.spec.name}",
            state=value,
        )
        self.result.violations.append(violation)
        return violation

    # -- windowed evaluation -------------------------------------------- #
    def capture(self, engine: SemanticsEngine, serial: int) -> None:
        """Snapshot the topic value; predicates are deferred to :meth:`flush`."""
        self._pending.append((serial, engine.current_time, engine.read_topic(self.topic)))

    def flush(self) -> List[Tuple[int, Violation]]:
        """Evaluate all captured samples in one batched call.

        Returns ``(serial, violation)`` pairs so the suite can restore the
        exact order the scalar loop would have produced.
        """
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        values = [value for _, _, value in pending]
        verdicts = self.spec.contains_batch(values)
        flushed: List[Tuple[int, Violation]] = []
        for (serial, time, value), ok in zip(pending, verdicts):
            if ok or (value is None and self.ignore_missing):
                continue
            violation = Violation(
                time=time,
                monitor=self.name,
                message=f"topic {self.topic!r} violates {self.spec.name}",
                state=value,
            )
            self.result.violations.append(violation)
            flushed.append((serial, violation))
        return flushed


class DeadlineMonitor:
    """Checks that a topic never stays outside a :class:`SafetySpec` too long.

    The RTA certificates bound *recovery*, not instantaneous validity: an
    invalid plan published by the advanced planner is legitimate as long
    as the safe controller replaces it within Δ (the P3 justification).
    This monitor encodes exactly that temporal property: a violation is
    recorded only when the predicate has been **continuously** false for
    strictly more than ``grace`` seconds — one violation per bad streak,
    stamped at the first sample past the deadline.  Missing values
    (``None``) end a streak when ``ignore_missing`` is set, mirroring
    :class:`TopicSafetyMonitor`.

    The windowed :meth:`capture`/:meth:`flush` path replays the same
    state machine over the captured samples in order (streaks legally
    span window boundaries — the streak state lives on the monitor), so
    verdicts, times and messages are identical to calling :meth:`check`
    at every sample.
    """

    def __init__(
        self,
        name: str,
        topic: str,
        spec: SafetySpec,
        grace: float,
        ignore_missing: bool = True,
    ) -> None:
        if grace < 0.0:
            raise ValueError("the grace period must be non-negative")
        self.name = name
        self.topic = topic
        self.spec = spec
        self.grace = float(grace)
        self.ignore_missing = ignore_missing
        self.result = MonitorResult(name=name)
        self._bad_since: Optional[float] = None
        self._reported = False
        self._pending: List[Tuple[int, float, Any]] = []

    def reset(self) -> None:
        """Forget violations, pending samples, and the current streak (Resettable)."""
        self.result.clear()
        self._pending.clear()
        self._bad_since = None
        self._reported = False

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> tuple:
        return (
            tuple(self.result.violations),
            tuple(self._pending),
            self._bad_since,
            self._reported,
        )

    def restore_delta_state(self, state: tuple) -> None:
        violations, pending, bad_since, reported = state
        self.result.violations[:] = violations
        self._pending[:] = pending
        self._bad_since = bad_since
        self._reported = reported

    def _observe(self, time: float, value: Any) -> Optional[Violation]:
        """Advance the streak state machine by one sample."""
        if value is None:
            ok = self.ignore_missing
        else:
            ok = bool(self.spec.contains(value))
        if ok:
            self._bad_since = None
            self._reported = False
            return None
        if self._bad_since is None:
            self._bad_since = time
            return None
        if self._reported or (time - self._bad_since) <= self.grace + 1e-12:
            return None
        self._reported = True
        violation = Violation(
            time=time,
            monitor=self.name,
            message=(
                f"topic {self.topic!r} outside {self.spec.name} "
                f"for more than {self.grace:g} s"
            ),
            state=value,
        )
        self.result.violations.append(violation)
        return violation

    def check(self, engine: SemanticsEngine) -> Optional[Violation]:
        """Evaluate the deadline property on the current topic value."""
        return self._observe(engine.current_time, engine.read_topic(self.topic))

    # -- windowed evaluation -------------------------------------------- #
    def capture(self, engine: SemanticsEngine, serial: int) -> None:
        """Snapshot the topic value; the streak machine runs at :meth:`flush`."""
        self._pending.append((serial, engine.current_time, engine.read_topic(self.topic)))

    def flush(self) -> List[Tuple[int, Violation]]:
        """Replay the streak state machine over the captured window in order."""
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        flushed: List[Tuple[int, Violation]] = []
        for serial, time, value in pending:
            violation = self._observe(time, value)
            if violation is not None:
                flushed.append((serial, violation))
        return flushed


class SeparationMonitor:
    """Checks pairwise minimum separation between N vehicles' position topics.

    This is the shared-airspace safety plane of a multi-vehicle
    composition: every sample it reads one state topic per vehicle,
    extracts positions, and flags the closest pair whenever its distance
    drops below ``min_separation``.  Samples in which any vehicle's topic
    is still unset are skipped (nothing to separate yet), mirroring
    :class:`TopicSafetyMonitor`'s ``ignore_missing`` behaviour.

    The scalar :meth:`check` walks the ``N*(N-1)/2`` pairs with
    :func:`~repro.geometry.min_pairwise_separation` — the oracle.  The
    windowed :meth:`capture`/:meth:`flush` path answers a whole window of
    samples with **one** batched N² query
    (:func:`~repro.geometry.pairwise_separations` over an ``(S, N, 3)``
    array); both planes evaluate the same floating-point expressions in
    the same order, so verdicts, offending pairs, times and messages are
    bit-for-bit identical (``use_batch=False`` keeps the scalar loop in
    ``flush`` for the equivalence tests).
    """

    def __init__(
        self,
        topics: Sequence[str],
        min_separation: float,
        name: str = "phi_separation",
        position_of: Optional[Callable[[Any], Any]] = None,
        use_batch: bool = True,
    ) -> None:
        if len(topics) < 2:
            raise ValueError("a separation monitor needs at least two vehicle topics")
        if len(set(topics)) != len(topics):
            raise ValueError("vehicle topics must be distinct")
        if min_separation <= 0.0:
            raise ValueError("min_separation must be positive")
        self.topics: Tuple[str, ...] = tuple(topics)
        self.min_separation = float(min_separation)
        self.name = name
        # Default extractor handles both DroneState-like payloads (with a
        # ``.position``) and raw Vec3 positions.
        self.position_of = position_of or (lambda value: getattr(value, "position", value))
        self.use_batch = use_batch
        self.result = MonitorResult(name=name)
        self._pairs = pairwise_index_pairs(len(self.topics))
        self._pending: List[Tuple[int, float, Tuple[Any, ...]]] = []

    def reset(self) -> None:
        """Forget recorded violations and pending samples (Resettable)."""
        self.result.clear()
        self._pending.clear()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> tuple:
        return (tuple(self.result.violations), tuple(self._pending))

    def restore_delta_state(self, state: tuple) -> None:
        violations, pending = state
        self.result.violations[:] = violations
        self._pending[:] = pending

    # -- shared scalar/batch pieces -------------------------------------- #
    def _read_all(self, engine: SemanticsEngine) -> Tuple[Any, ...]:
        return tuple(engine.read_topic(topic) for topic in self.topics)

    def _positions(self, values: Sequence[Any]) -> Optional[List[Any]]:
        """The per-vehicle positions, or ``None`` if any topic is unset."""
        positions = []
        for value in values:
            if value is None:
                return None
            positions.append(self.position_of(value))
        return positions

    def _violation(
        self, time: float, distance: float, pair: Tuple[int, int], values: Sequence[Any]
    ) -> Violation:
        i, j = pair
        violation = Violation(
            time=time,
            monitor=self.name,
            message=(
                f"separation {self.topics[i]!r}<->{self.topics[j]!r} is "
                f"{distance:.3f} m < {self.min_separation:.3f} m"
            ),
            state=(values[i], values[j]),
        )
        self.result.violations.append(violation)
        return violation

    # -- immediate evaluation (the scalar oracle) ------------------------- #
    def check(self, engine: SemanticsEngine) -> Optional[Violation]:
        """Evaluate pairwise separation now; record the closest offending pair."""
        values = self._read_all(engine)
        positions = self._positions(values)
        if positions is None:
            return None
        distance, pair = min_pairwise_separation(positions)
        if distance >= self.min_separation:
            return None
        return self._violation(engine.current_time, float(distance), pair, values)

    # -- windowed evaluation -------------------------------------------- #
    def capture(self, engine: SemanticsEngine, serial: int) -> None:
        """Snapshot every vehicle topic; separations are deferred to :meth:`flush`."""
        self._pending.append((serial, engine.current_time, self._read_all(engine)))

    def flush(self) -> List[Tuple[int, Violation]]:
        """Evaluate all captured samples — one batched N² query per window."""
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        rows = [(entry, self._positions(entry[2])) for entry in pending]
        complete = [(entry, positions) for entry, positions in rows if positions is not None]
        if not complete:
            return []
        flushed: List[Tuple[int, Violation]] = []
        if self.use_batch:
            stacked = np.array(
                [[tuple(position) for position in positions] for _, positions in complete],
                dtype=float,
            )
            separations = pairwise_separations(stacked)  # (S, P)
            worst = separations.argmin(axis=1)  # first minimal pair, like the scalar scan
            for row, ((serial, time, values), _) in enumerate(complete):
                pair_index = int(worst[row])
                distance = float(separations[row, pair_index])
                if distance >= self.min_separation:
                    continue
                flushed.append(
                    (serial, self._violation(time, distance, self._pairs[pair_index], values))
                )
            return flushed
        for (serial, time, values), positions in complete:
            distance, pair = min_pairwise_separation(positions)
            if distance >= self.min_separation:
                continue
            flushed.append((serial, self._violation(time, float(distance), pair, values)))
        return flushed


class InvariantMonitor:
    """Checks Theorem 3.1's invariant ``φ_Inv(mode, s)`` for one module.

    ``φ_Inv`` holds when either the module is in SC mode and the monitored
    state is in φ_safe, or the module is in AC mode and every state
    reachable within Δ (under any controller) is in φ_safe.  The caller
    supplies ``may_leave_within(state, horizon)`` — a sound
    over-approximate check that Reach(state, *, horizon) escapes φ_safe —
    typically built from :class:`repro.reachability.WorstCaseReachability`.
    """

    def __init__(
        self,
        module: RTAModuleInstance,
        may_leave_within: Callable[[Any, float], bool],
        state_topic: Optional[str] = None,
        may_leave_within_batch: Optional[Callable[[Sequence[Any], float], Sequence[bool]]] = None,
    ) -> None:
        self.module = module
        self.may_leave_within = may_leave_within
        self.may_leave_within_batch = may_leave_within_batch
        self.state_topic = state_topic or module.spec.state_topics[0]
        self.name = f"phi_inv[{module.name}]"
        self.result = MonitorResult(name=self.name)
        self.samples = 0
        self._pending: List[Tuple[int, float, Mode, Any]] = []

    def reset(self) -> None:
        """Forget recorded violations, samples, and pending windows (Resettable)."""
        self.result.clear()
        self.samples = 0
        self._pending.clear()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> tuple:
        return (tuple(self.result.violations), tuple(self._pending), self.samples)

    def restore_delta_state(self, state: tuple) -> None:
        violations, pending, samples = state
        self.result.violations[:] = violations
        self._pending[:] = pending
        self.samples = samples

    def holds(self, mode: Mode, state: Any) -> bool:
        """Evaluate φ_Inv on a (mode, state) pair."""
        if state is None:
            return True  # nothing to check yet
        if mode is Mode.SC:
            return self.module.spec.safe_spec.contains(state)
        return not self.may_leave_within(state, self.module.spec.delta)

    def check(self, engine: SemanticsEngine) -> Optional[Violation]:
        """Evaluate φ_Inv on the running system."""
        self.samples += 1
        state = engine.read_topic(self.state_topic)
        mode = self.module.decision.mode
        if self.holds(mode, state):
            return None
        violation = Violation(
            time=engine.current_time,
            monitor=self.name,
            message=f"φ_Inv violated in mode {mode.value}",
            state=state,
        )
        self.result.violations.append(violation)
        return violation

    # -- windowed evaluation -------------------------------------------- #
    def capture(self, engine: SemanticsEngine, serial: int) -> None:
        """Snapshot (time, mode, state); the mode must be read *now*, not at flush."""
        self.samples += 1
        self._pending.append(
            (serial, engine.current_time, self.module.decision.mode, engine.read_topic(self.state_topic))
        )

    def flush(self) -> List[Tuple[int, Violation]]:
        """Evaluate all captured (mode, state) samples, batching the AC-mode reach checks."""
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        holds = [True] * len(pending)
        safe_spec = self.module.spec.safe_spec
        sc_indices = [
            i for i, (_, _, mode, state) in enumerate(pending) if state is not None and mode is Mode.SC
        ]
        ac_indices = [
            i for i, (_, _, mode, state) in enumerate(pending) if state is not None and mode is not Mode.SC
        ]
        if sc_indices:
            verdicts = safe_spec.contains_batch([pending[i][3] for i in sc_indices])
            for i, ok in zip(sc_indices, verdicts):
                holds[i] = bool(ok)
        if ac_indices:
            delta = self.module.spec.delta
            states = [pending[i][3] for i in ac_indices]
            if self.may_leave_within_batch is not None:
                escapes = self.may_leave_within_batch(states, delta)
            else:
                escapes = [self.may_leave_within(state, delta) for state in states]
            for i, escapes_safe in zip(ac_indices, escapes):
                holds[i] = not bool(escapes_safe)
        flushed: List[Tuple[int, Violation]] = []
        for (serial, time, mode, state), ok in zip(pending, holds):
            if ok:
                continue
            violation = Violation(
                time=time,
                monitor=self.name,
                message=f"φ_Inv violated in mode {mode.value}",
                state=state,
            )
            self.result.violations.append(violation)
            flushed.append((serial, violation))
        return flushed


class MonitorSuite:
    """A collection of monitors evaluated together after every sampling instant."""

    def __init__(self, monitors: Optional[List[Any]] = None) -> None:
        self.monitors: List[Any] = list(monitors or [])
        self._serial = 0
        self._immediate: List[Tuple[int, int, Violation]] = []

    def add(self, monitor: Any) -> None:
        self.monitors.append(monitor)

    def reset(self) -> None:
        """Restore the suite (and every monitor) to its just-built state.

        Part of the :class:`~repro.core.resettable.Resettable` protocol:
        the reset-and-reuse tester calls this between executions instead
        of constructing a fresh suite.  Monitors implementing ``reset()``
        restore themselves; monitors without one fall back to clearing
        their ``result`` so recorded violations never leak across
        executions.
        """
        self._serial = 0
        self._immediate.clear()
        for monitor in self.monitors:
            reset = getattr(monitor, "reset", None)
            if callable(reset):
                reset()
                continue
            result = getattr(monitor, "result", None)
            if result is not None:
                result.violations.clear()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    # The suite's own state is just the sample serial and the immediate
    # queue; the monitors are separate snapshot components.
    def capture_delta_state(self) -> tuple:
        return (self._serial, tuple(self._immediate))

    def restore_delta_state(self, state: tuple) -> None:
        serial, immediate = state
        self._serial = serial
        self._immediate[:] = immediate

    def check_all(self, engine: SemanticsEngine) -> List[Violation]:
        """Run every monitor once; returns the new violations."""
        new: List[Violation] = []
        for monitor in self.monitors:
            violation = monitor.check(engine)
            if violation is not None:
                new.append(violation)
        return new

    # -- windowed evaluation -------------------------------------------- #
    def capture_all(self, engine: SemanticsEngine) -> None:
        """Snapshot one sample on every monitor without evaluating predicates.

        Monitors lacking a ``capture`` method are checked immediately (the
        scalar path); their violations are delivered by the next
        :meth:`flush` in the correct position.
        """
        self._serial += 1
        for position, monitor in enumerate(self.monitors):
            capture = getattr(monitor, "capture", None)
            if capture is not None:
                capture(engine, self._serial)
            else:
                violation = monitor.check(engine)
                if violation is not None:
                    self._immediate.append((self._serial, position, violation))

    @property
    def pending_samples(self) -> int:
        """Number of samples captured since the last :meth:`flush`."""
        return self._serial

    def flush(self) -> List[Violation]:
        """Evaluate every captured sample, batched per monitor.

        Returns the new violations in exactly the order a per-sample
        :meth:`check_all` loop would have produced them (sample-major,
        monitor-minor), with identical times, messages and states.
        """
        entries: List[Tuple[int, int, Violation]] = list(self._immediate)
        self._immediate = []
        self._serial = 0
        for position, monitor in enumerate(self.monitors):
            flush = getattr(monitor, "flush", None)
            if flush is None:
                continue
            entries.extend((serial, position, violation) for serial, violation in flush())
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return [violation for _, _, violation in entries]

    @property
    def violations(self) -> List[Violation]:
        """All violations recorded so far, across monitors, in time order."""
        everything: List[Violation] = []
        for monitor in self.monitors:
            everything.extend(monitor.result.violations)
        return sorted(everything, key=lambda v: v.time)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = ["monitor summary:"]
        for monitor in self.monitors:
            status = "ok" if monitor.result.ok else f"{monitor.result.count} violation(s)"
            lines.append(f"  {monitor.name}: {status}")
        return "\n".join(lines)


class MonitorCadence:
    """Samples a :class:`MonitorSuite` every ``period`` seconds of virtual time.

    This is the executors' and the plant co-simulation's cadence: call
    :meth:`advance` right before each discrete step, and every sampling
    instant at or before the step's time that has not been taken yet is
    taken now, against the state the step is about to read.  ``batch`` 1
    checks every monitor at once; larger values capture samples and flush
    them in windows of that many (:meth:`MonitorSuite.flush`), which yields
    the same violations, and :meth:`finish` flushes the last window.

    The systematic testers use the other cadence — every monitor after
    every step — which is part of their own step loop.
    """

    def __init__(self, suite: MonitorSuite, period: float, batch: int = 1) -> None:
        if period <= 0.0:
            raise ValueError("monitor_period must be positive")
        if batch < 1:
            raise ValueError("monitor_batch must be at least 1")
        self.suite = suite
        self.period = period
        self.batch = batch
        self.next_time = 0.0

    def reset(self) -> None:
        """Rewind to the first sampling instant and reset the suite."""
        self.suite.reset()
        self.next_time = 0.0

    def advance(self, engine: SemanticsEngine, upcoming: float) -> None:
        """Take every sample due at or before ``upcoming``."""
        suite = self.suite
        while self.next_time <= upcoming + 1e-12:
            if self.batch > 1:
                suite.capture_all(engine)
                if suite.pending_samples >= self.batch:
                    suite.flush()
            else:
                suite.check_all(engine)
            self.next_time += self.period

    def finish(self) -> None:
        """Evaluate any samples still pending in the last window."""
        if self.batch > 1:
            self.suite.flush()
