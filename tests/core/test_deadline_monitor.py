"""The deadline monitor: grace-bounded recovery instead of instantaneous validity.

φ_plan_deadline-style properties tolerate transients shorter than the RTA
recovery bound Δ; these tests pin the streak state machine — one
violation per streak, stamped at the first sample past the deadline.
"""

import pytest

from repro.core import DeadlineMonitor, SafetySpec


class FakeEngine:
    """current_time/read_topic stub — enough surface for the monitor."""

    def __init__(self, time, value):
        self.current_time = time
        self._value = value

    def read_topic(self, name):
        return self._value


def _monitor(grace=1.0, **kw):
    return DeadlineMonitor(
        name="deadline", topic="signal", spec=SafetySpec("pos", lambda x: x > 0), grace=grace, **kw
    )


def _feed(monitor, samples):
    """Run the per-step path over (time, value) samples; return violations."""
    out = []
    for time, value in samples:
        violation = monitor.check(FakeEngine(time, value))
        if violation is not None:
            out.append(violation)
    return out


class TestDeadlineSemantics:
    def test_grace_validation(self):
        with pytest.raises(ValueError):
            _monitor(grace=-0.1)

    def test_transient_shorter_than_grace_is_tolerated(self):
        monitor = _monitor(grace=1.0)
        violations = _feed(
            monitor, [(0.0, 1.0), (0.5, -1.0), (1.0, -1.0), (1.5, 1.0), (2.0, -1.0)]
        )
        assert violations == []
        assert monitor.result.ok

    def test_sustained_failure_fires_once_per_streak(self):
        monitor = _monitor(grace=1.0)
        samples = [(t / 2.0, -1.0) for t in range(10)]  # bad from 0.0 to 4.5
        violations = _feed(monitor, samples)
        assert len(violations) == 1
        # First sample strictly past bad_since + grace: 0.0 + 1.0 → 1.5.
        assert violations[0].time == pytest.approx(1.5)
        assert "more than 1 s" in violations[0].message

    def test_exactly_grace_is_not_a_violation(self):
        monitor = _monitor(grace=1.0)
        assert _feed(monitor, [(0.0, -1.0), (1.0, -1.0)]) == []

    def test_recovery_rearms_the_monitor(self):
        monitor = _monitor(grace=0.4)
        violations = _feed(
            monitor,
            [(0.0, -1.0), (0.5, -1.0), (1.0, 1.0), (1.5, -1.0), (2.0, -1.0)],
        )
        assert [v.time for v in violations] == [pytest.approx(0.5), pytest.approx(2.0)]

    def test_missing_values_end_the_streak_by_default(self):
        monitor = _monitor(grace=0.4)
        assert _feed(monitor, [(0.0, -1.0), (0.5, None), (1.0, -1.0)]) == []

    def test_missing_values_extend_the_streak_when_not_ignored(self):
        monitor = _monitor(grace=0.4, ignore_missing=False)
        violations = _feed(monitor, [(0.0, -1.0), (0.5, None), (1.0, None)])
        assert len(violations) == 1

    def test_reset_clears_streak_and_violations(self):
        monitor = _monitor(grace=0.4)
        _feed(monitor, [(0.0, -1.0), (0.5, -1.0)])
        monitor.reset()
        assert monitor.result.ok
        assert _feed(monitor, [(1.0, -1.0)]) == []  # fresh streak


    def test_check_reads_the_engine_time_and_topic(self):
        monitor = _monitor(grace=0.2)
        assert monitor.check(FakeEngine(0.0, -1.0)) is None
        violation = monitor.check(FakeEngine(0.3, -2.0))
        assert violation is not None
        assert (violation.time, violation.state) == (0.3, -2.0)
        assert violation.monitor == "deadline"
        assert monitor.result.violations == [violation]

    def test_delta_state_round_trip_resumes_the_streak(self):
        monitor = _monitor(grace=0.4)
        _feed(monitor, [(0.0, 1.0), (0.1, -1.0)])  # a streak opened at 0.1
        mark = monitor.capture_delta_state()
        assert len(_feed(monitor, [(0.6, -1.0)])) == 1
        monitor.restore_delta_state(mark)
        assert monitor.result.ok
        # The restored streak still dates from 0.1, not from the next sample.
        assert [v.time for v in _feed(monitor, [(0.3, -1.0), (0.7, -1.0)])] == [0.7]
