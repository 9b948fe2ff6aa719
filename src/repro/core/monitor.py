"""Safety and invariant monitors.

Monitors observe the running system (its topic valuation and module modes)
and record violations.  They serve two purposes in the reproduction:

* validating Theorem 3.1's invariant ``φ_Inv`` online (the
  :class:`InvariantMonitor`), and
* measuring how often the *unprotected* stack violates φ_safe (Figure 5)
  versus the RTA-protected stack (Figures 12a–c, Section V-D).

Every monitor has one entry point, ``check(engine)``, which evaluates its
property on the running system at the current sampling instant, and
:meth:`MonitorSuite.check_all` runs them all in roster order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..geometry import min_pairwise_separation
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

    def reset(self) -> None:
        """Forget recorded violations (Resettable)."""
        self.result.clear()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> tuple:
        return tuple(self.result.violations)

    def restore_delta_state(self, state: tuple) -> None:
        self.result.violations[:] = state

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

    def reset(self) -> None:
        """Forget violations and the current streak (Resettable)."""
        self.result.clear()
        self._bad_since = None
        self._reported = False

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> tuple:
        return (tuple(self.result.violations), self._bad_since, self._reported)

    def restore_delta_state(self, state: tuple) -> None:
        violations, bad_since, reported = state
        self.result.violations[:] = violations
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


class SeparationMonitor:
    """Checks pairwise minimum separation between N vehicles' position topics.

    This is the shared-airspace safety plane of a multi-vehicle
    composition: every sample it reads one state topic per vehicle,
    extracts positions, and flags the closest pair whenever its distance
    drops below ``min_separation``.  Samples in which any vehicle's topic
    is still unset are skipped (nothing to separate yet), mirroring
    :class:`TopicSafetyMonitor`'s ``ignore_missing`` behaviour.

    :meth:`check` walks the ``N*(N-1)/2`` pairs with
    :func:`~repro.geometry.min_pairwise_separation`.
    """

    def __init__(
        self,
        topics: Sequence[str],
        min_separation: float,
        name: str = "phi_separation",
        position_of: Optional[Callable[[Any], Any]] = None,
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
        self.result = MonitorResult(name=name)

    def reset(self) -> None:
        """Forget recorded violations (Resettable)."""
        self.result.clear()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> tuple:
        return tuple(self.result.violations)

    def restore_delta_state(self, state: tuple) -> None:
        self.result.violations[:] = state

    def check(self, engine: SemanticsEngine) -> Optional[Violation]:
        """Evaluate pairwise separation now; record the closest offending pair."""
        values = tuple(engine.read_topic(topic) for topic in self.topics)
        if any(value is None for value in values):
            return None
        distance, (i, j) = min_pairwise_separation([self.position_of(value) for value in values])
        if distance >= self.min_separation:
            return None
        violation = Violation(
            time=engine.current_time,
            monitor=self.name,
            message=(
                f"separation {self.topics[i]!r}<->{self.topics[j]!r} is "
                f"{float(distance):.3f} m < {self.min_separation:.3f} m"
            ),
            state=(values[i], values[j]),
        )
        self.result.violations.append(violation)
        return violation


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
    ) -> None:
        self.module = module
        self.may_leave_within = may_leave_within
        self.state_topic = state_topic or module.spec.state_topics[0]
        self.name = f"phi_inv[{module.name}]"
        self.result = MonitorResult(name=self.name)
        self.samples = 0

    def reset(self) -> None:
        """Forget recorded violations and samples (Resettable)."""
        self.result.clear()
        self.samples = 0

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> tuple:
        return (tuple(self.result.violations), self.samples)

    def restore_delta_state(self, state: tuple) -> None:
        violations, samples = state
        self.result.violations[:] = violations
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


class MonitorSuite:
    """A collection of monitors evaluated together after every sampling instant."""

    def __init__(self, monitors: Optional[List[Any]] = None) -> None:
        self.monitors: List[Any] = list(monitors or [])

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
        for monitor in self.monitors:
            reset = getattr(monitor, "reset", None)
            if callable(reset):
                reset()
                continue
            result = getattr(monitor, "result", None)
            if result is not None:
                result.violations.clear()

    def check_all(self, engine: SemanticsEngine) -> List[Violation]:
        """Run every monitor once; returns the new violations."""
        new: List[Violation] = []
        for monitor in self.monitors:
            violation = monitor.check(engine)
            if violation is not None:
                new.append(violation)
        return new

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

    This is the mission co-simulation's cadence: call
    :meth:`advance` right before each discrete step, and every sampling
    instant at or before the step's time that has not been taken yet is
    taken now, against the state the step is about to read.

    The systematic testers use the other cadence — every monitor after
    every step — which is part of their own step loop.
    """

    def __init__(self, suite: MonitorSuite, period: float) -> None:
        if period <= 0.0:
            raise ValueError("monitor_period must be positive")
        self.suite = suite
        self.period = period
        self.next_time = 0.0

    def reset(self) -> None:
        """Rewind to the first sampling instant and reset the suite."""
        self.suite.reset()
        self.next_time = 0.0

    def advance(self, engine: SemanticsEngine, upcoming: float) -> None:
        """Take every sample due at or before ``upcoming``."""
        suite = self.suite
        while self.next_time <= upcoming + 1e-12:
            suite.check_all(engine)
            self.next_time += self.period
