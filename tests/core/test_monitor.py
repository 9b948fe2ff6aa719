"""Tests for the safety and invariant monitors."""

import pytest

from repro.core import (
    ConstantNode,
    InvariantMonitor,
    MonitorCadence,
    MonitorSuite,
    Program,
    SafetySpec,
    SemanticsEngine,
    SoterCompiler,
    Topic,
    TopicSafetyMonitor,
)
from repro.core.decision import Mode
from repro.core.monitor import MonitorResult, Violation

from .toy import CLIFF, MAX_SPEED, build_toy_system

SAMPLES = [
    (0.0, 5.0),
    (0.1, -1.0),
    (0.2, 3.0),
    (0.3, -2.0),
    (0.4, -3.0),
    (0.5, 1.0),
]


def _engine_with_topic(value):
    program = Program(
        name="p",
        topics=[Topic("signal", float, None)],
        nodes=[ConstantNode("n", {"other": 1}, period=0.1)],
    )
    engine = SemanticsEngine(SoterCompiler().compile(program).system)
    if value is not None:
        engine.set_input("signal", value)
    return engine


class TestTopicSafetyMonitor:
    def test_no_violation_when_spec_holds(self):
        monitor = TopicSafetyMonitor("m", "signal", SafetySpec("pos", lambda x: x > 0))
        engine = _engine_with_topic(5.0)
        assert monitor.check(engine) is None
        assert monitor.result.ok

    def test_violation_recorded_when_spec_fails(self):
        monitor = TopicSafetyMonitor("m", "signal", SafetySpec("pos", lambda x: x > 0))
        engine = _engine_with_topic(-1.0)
        violation = monitor.check(engine)
        assert violation is not None
        assert violation.monitor == "m"
        assert monitor.result.count == 1

    def test_missing_topic_ignored_by_default(self):
        monitor = TopicSafetyMonitor("m", "signal", SafetySpec("pos", lambda x: x > 0))
        engine = _engine_with_topic(None)
        assert monitor.check(engine) is None

    def test_missing_topic_flagged_when_requested(self):
        monitor = TopicSafetyMonitor(
            "m", "signal", SafetySpec("pos", lambda x: x > 0), ignore_missing=False
        )
        engine = _engine_with_topic(None)
        assert monitor.check(engine) is not None

    def test_each_bad_sample_is_flagged_with_its_time_and_value(self):
        monitor = TopicSafetyMonitor("m", "signal", SafetySpec("pos", lambda x: x > 0))
        engine = _engine_with_topic(None)
        returned = []
        for time, value in SAMPLES:
            engine.current_time = time
            engine.set_input("signal", value)
            violation = monitor.check(engine)
            if violation is not None:
                returned.append(violation)
        expected = [(0.1, -1.0), (0.3, -2.0), (0.4, -3.0)]
        assert [(v.time, v.state) for v in returned] == expected
        assert monitor.result.violations == returned
        assert all(v.message == "topic 'signal' violates pos" for v in returned)

    def test_a_stale_bad_value_is_flagged_at_every_sample(self):
        # The engine keeps the last published value; the monitor judges the
        # value present at each sampling instant, not each publication.
        monitor = TopicSafetyMonitor("m", "signal", SafetySpec("pos", lambda x: x > 0))
        engine = _engine_with_topic(-1.0)
        for time in (0.0, 0.1, 0.2):
            engine.current_time = time
            assert monitor.check(engine) is not None
        assert [v.time for v in monitor.result.violations] == [0.0, 0.1, 0.2]

    def test_delta_state_round_trip(self):
        monitor = TopicSafetyMonitor("m", "signal", SafetySpec("pos", lambda x: x > 0))
        engine = _engine_with_topic(-1.0)
        monitor.check(engine)
        mark = monitor.capture_delta_state()
        engine.current_time = 1.0
        monitor.check(engine)
        monitor.check(engine)
        assert monitor.result.count == 3
        monitor.restore_delta_state(mark)
        assert [v.time for v in monitor.result.violations] == [0.0]
        # Restoring copies into the live list, so the mark stays reusable.
        monitor.check(engine)
        monitor.restore_delta_state(mark)
        assert monitor.result.count == 1


class TestInvariantMonitor:
    def _monitor(self, system):
        return InvariantMonitor(
            module=system.modules[0],
            may_leave_within=lambda x, horizon: x + MAX_SPEED * horizon >= CLIFF,
        )

    def test_holds_in_sc_mode_inside_safe(self):
        system = build_toy_system()
        monitor = self._monitor(system)
        assert monitor.holds(Mode.SC, 5.0)

    def test_fails_in_sc_mode_outside_safe(self):
        system = build_toy_system()
        monitor = self._monitor(system)
        assert not monitor.holds(Mode.SC, CLIFF + 1.0)

    def test_ac_mode_requires_reach_safety(self):
        system = build_toy_system()
        monitor = self._monitor(system)
        assert monitor.holds(Mode.AC, 5.0)
        assert not monitor.holds(Mode.AC, CLIFF - 0.05)

    def test_none_state_is_vacuously_fine(self):
        system = build_toy_system()
        monitor = self._monitor(system)
        assert monitor.holds(Mode.AC, None)

    def test_check_reads_engine_topics(self):
        system = build_toy_system()
        monitor = self._monitor(system)
        engine = SemanticsEngine(system)
        engine.set_input("state", CLIFF - 0.05)
        # The module boots in SC mode; being close to the cliff is allowed
        # in SC mode as long as the state is still inside φ_safe.
        assert monitor.check(engine) is None
        system.modules[0].decision.mode = Mode.AC
        assert monitor.check(engine) is not None

    def test_check_follows_the_mode_and_counts_samples(self):
        system = build_toy_system(seed=3)
        module = system.modules[0]
        monitor = self._monitor(system)
        engine = SemanticsEngine(system)
        drive = [(Mode.AC, 0.05 * i, 2.0 + 1.2 * i) for i in range(8)]
        drive += [(Mode.SC, 1.0, CLIFF + 0.5), (Mode.SC, 1.1, 2.0)]
        expected = []
        for mode, time, state in drive:
            module.decision.mode = mode
            engine.current_time = time
            engine.set_input("state", state)
            if not monitor.holds(mode, state):
                expected.append((time, f"φ_Inv violated in mode {mode.value}", state))
            monitor.check(engine)
        recorded = [(v.time, v.message, v.state) for v in monitor.result.violations]
        assert recorded == expected
        # AC states within Δ of the cliff, and the SC state past it.
        assert len(expected) == 3
        assert monitor.samples == len(drive)

    def test_reset_forgets_violations_and_samples(self):
        system = build_toy_system()
        monitor = self._monitor(system)
        engine = SemanticsEngine(system)
        engine.set_input("state", CLIFF + 1.0)
        monitor.check(engine)
        monitor.check(engine)
        assert (monitor.result.count, monitor.samples) == (2, 2)
        monitor.reset()
        assert (monitor.result.count, monitor.samples) == (0, 0)

    def test_delta_state_round_trip(self):
        system = build_toy_system()
        monitor = self._monitor(system)
        engine = SemanticsEngine(system)
        engine.set_input("state", CLIFF + 1.0)
        monitor.check(engine)
        mark = monitor.capture_delta_state()
        monitor.check(engine)
        monitor.check(engine)
        monitor.restore_delta_state(mark)
        assert (monitor.result.count, monitor.samples) == (1, 1)


class TestMonitorSuite:
    def test_check_all_aggregates(self):
        suite = MonitorSuite()
        suite.add(TopicSafetyMonitor("a", "signal", SafetySpec("pos", lambda x: x > 0)))
        suite.add(TopicSafetyMonitor("b", "signal", SafetySpec("big", lambda x: x > 100)))
        engine = _engine_with_topic(5.0)
        new = suite.check_all(engine)
        assert len(new) == 1
        assert not suite.ok
        assert len(suite.violations) == 1

    def test_summary_lists_monitors(self):
        suite = MonitorSuite([TopicSafetyMonitor("a", "signal", SafetySpec("pos", lambda x: x > 0))])
        assert "a" in suite.summary()

    def test_violations_sorted_by_time(self):
        suite = MonitorSuite()
        monitor = TopicSafetyMonitor("a", "signal", SafetySpec("pos", lambda x: x > 0))
        suite.add(monitor)
        engine = _engine_with_topic(-1.0)
        suite.check_all(engine)
        engine.current_time = 5.0
        suite.check_all(engine)
        times = [violation.time for violation in suite.violations]
        assert times == sorted(times)

    def test_check_all_returns_new_violations_in_roster_order(self):
        suite = MonitorSuite(
            [
                TopicSafetyMonitor("big", "signal", SafetySpec("big", lambda x: x > 100)),
                TopicSafetyMonitor("pos", "signal", SafetySpec("pos", lambda x: x > 0)),
                TopicSafetyMonitor("neg", "signal", SafetySpec("neg", lambda x: x < 0)),
            ]
        )
        engine = _engine_with_topic(5.0)
        assert [v.monitor for v in suite.check_all(engine)] == ["big", "neg"]
        # Only this call's violations are returned, not the recorded ones.
        engine.set_input("signal", 500.0)
        assert [v.monitor for v in suite.check_all(engine)] == ["neg"]
        assert len(suite.violations) == 3

    def test_monitor_with_only_check_and_result_is_supported(self):
        legacy = _CheckOnlyMonitor()
        suite = MonitorSuite([legacy])
        engine = _engine_with_topic(5.0)
        assert suite.check_all(engine) == []
        assert suite.check_all(engine) == []
        assert legacy.checked == 2  # checked once per call, immediately
        assert suite.ok

    def test_reset_clears_the_result_of_a_monitor_without_reset(self):
        legacy = _CheckOnlyMonitor(violating=True)
        suite = MonitorSuite([legacy])
        engine = _engine_with_topic(5.0)
        suite.check_all(engine)
        assert not suite.ok
        suite.reset()
        assert suite.ok
        assert legacy.checked == 1


class _CheckOnlyMonitor:
    """A third-party monitor implementing only ``check`` and ``result``."""

    def __init__(self, violating=False):
        self.name = "legacy"
        self.result = MonitorResult(name=self.name)
        self.violating = violating
        self.checked = 0

    def check(self, engine):
        self.checked += 1
        if not self.violating:
            return None
        violation = Violation(time=engine.current_time, monitor=self.name, message="bad")
        self.result.violations.append(violation)
        return violation


class _CountingMonitor:
    def __init__(self):
        self.name = "counting"
        self.result = MonitorResult(name=self.name)
        self.times = []

    def reset(self):
        self.times.clear()

    def check(self, engine):
        self.times.append(engine.current_time)
        return None


class TestMonitorCadence:
    def test_period_validated(self):
        for period in (0.0, -0.1):
            with pytest.raises(ValueError):
                MonitorCadence(MonitorSuite(), period)

    def test_advance_takes_every_due_sample_once(self):
        monitor = _CountingMonitor()
        cadence = MonitorCadence(MonitorSuite([monitor]), 0.1)
        engine = _engine_with_topic(5.0)
        cadence.advance(engine, 0.0)  # the sample at 0.0
        assert len(monitor.times) == 1
        cadence.advance(engine, 0.05)  # nothing due yet
        assert len(monitor.times) == 1
        engine.current_time = 0.05
        cadence.advance(engine, 0.35)  # samples at 0.1, 0.2 and 0.3, late
        assert monitor.times == [0.0, 0.05, 0.05, 0.05]
        # A step landing exactly on a sampling instant (up to rounding).
        cadence.advance(engine, 0.4)
        assert len(monitor.times) == 5

    def test_reset_rewinds_and_resets_the_suite(self):
        monitor = _CountingMonitor()
        cadence = MonitorCadence(MonitorSuite([monitor]), 0.1)
        engine = _engine_with_topic(5.0)
        cadence.advance(engine, 0.25)
        assert len(monitor.times) == 3
        cadence.reset()
        assert monitor.times == []
        cadence.advance(engine, 0.0)
        assert len(monitor.times) == 1
