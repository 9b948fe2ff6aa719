"""Sensor faults as topic sites of the fault plane.

The paper trusts the state estimators; a frozen, lagging or dead sensor
violates that trust.  Each is a topic site on the position or battery
topic of ``plant-surveillance``, gated at the topic board where the plant
channel publishes its readings: ``STUCK`` freezes, ``DELAY`` lags, ``DROP``
blacks out.  The window's activation is a labeled choice in the trail,
so two runs of one trail see identical reading streams.

Windows are written in samples: the scenario publishes one reading per
``environment_period`` (0.25 s), and a site active for samples
``[first, last)`` spans the half-period-shifted times around them.
"""

import pytest

from repro.apps.topics import BATTERY_TOPIC, POSITION_TOPIC
from repro.core.semantics import SemanticsEngine
from repro.runtime import ExecutionTrace, FaultPlan, FaultPlane, FaultSite
from repro.testing import ReplayStrategy, SystematicTester, build_scenario

PERIOD = 0.25  # plant-surveillance's environment_period
HORIZON = 3.0
SAMPLES = 13  # readings at t = 0, 0.25, ..., 3.0


class FaultWindowsOn(ReplayStrategy):
    """Picks option 1 (the site's one kind) at every fault window and the
    calm-wind option 0 at every gust choice."""

    def choose(self, options, label=""):
        return 1 if label.startswith("fault:") else 0


class Readings(ExecutionTrace):
    """Logs each sensor reading the plant sends and what the board then holds."""

    def __init__(self):
        super().__init__()
        self.board = None
        self.sent = {POSITION_TOPIC: [], BATTERY_TOPIC: []}
        self.seen = {POSITION_TOPIC: [], BATTERY_TOPIC: []}

    def on_environment_input(self, time, topic, value):
        super().on_environment_input(time, topic, value)
        self.sent[topic].append(value)
        self.seen[topic].append(self.board.read(topic))


def _site(topic, kind, first, last, **kwargs):
    window = ((first - 0.5) * PERIOD, (last - 0.5) * PERIOD)
    return FaultSite(kinds=(kind,), windows=(window,), topic=topic, **kwargs)


def _faulted(*sites):
    """plant-surveillance with its PlantEnvironment behind a FaultPlane."""
    instance = build_scenario("plant-surveillance", horizon=HORIZON)
    instance.environment = FaultPlane(FaultPlan(sites=sites), environment=instance.environment)
    return instance


def _streams(instance, engine=None):
    """Drive one execution with every fault window on; return the readings."""
    readings = Readings()
    if engine is None:
        engine = SemanticsEngine(instance.system)
    else:
        instance.reset()
        engine.reset()
    engine.listeners[:] = [readings]
    readings.board = engine.board
    instance.environment.bind_strategy(FaultWindowsOn(trail=[]))
    engine.run_until(HORIZON, environment=instance.environment.apply)
    assert len(readings.sent[POSITION_TOPIC]) == SAMPLES
    return readings


def test_drop_window_publishes_none_and_the_stack_stays_safe():
    sites = (
        _site(POSITION_TOPIC, "drop", 3, 6),
        _site(BATTERY_TOPIC, "drop", 2, 4),
    )
    readings = _streams(_faulted(*sites))
    for topic, (first, last) in ((POSITION_TOPIC, (3, 6)), (BATTERY_TOPIC, (2, 4))):
        seen = readings.seen[topic]
        assert all(value is not None for value in readings.sent[topic])
        assert [index for index, value in enumerate(seen) if value is None] == list(
            range(first, last)
        )

    tester = SystematicTester(
        lambda: _faulted(*sites), FaultWindowsOn(trail=[]), max_permuted=1
    )
    report = tester.explore()
    assert report.execution_count == 1
    assert report.ok  # the protected stack rides out the blackout


@pytest.mark.parametrize("topic", [POSITION_TOPIC, BATTERY_TOPIC])
def test_stuck_window_holds_the_last_pre_window_reading(topic):
    readings = _streams(_faulted(_site(topic, "stuck", 3, 7)))
    sent, seen = readings.sent[topic], readings.seen[topic]
    assert seen[:3] == sent[:3]
    assert seen[3:7] == [sent[2]] * 4  # frozen
    assert seen[7:] == sent[7:]  # the window is over
    assert len(set(map(repr, sent[2:7]))) == 5  # the plant really moved on


@pytest.mark.parametrize("lag", [1, 2, 3])
def test_delay_of_lag_periods_serves_readings_lag_samples_late(lag):
    # The old sample-counted "stale" lag equals a DELAY of lag x period.
    first, last = 4, 9
    readings = _streams(
        _faulted(_site(POSITION_TOPIC, "delay", first, last, delay=lag * PERIOD))
    )
    sent, seen = readings.sent[POSITION_TOPIC], readings.seen[POSITION_TOPIC]
    assert seen[:first] == sent[:first]
    # Each reading sent in the window reaches the board exactly lag
    # samples later; until the first one lands, the last pre-window
    # reading stays on the board.
    for index in range(first, last):
        expected = sent[index - lag] if index - lag >= first else sent[first - 1]
        assert seen[index] == expected
    assert seen[last:] == sent[last:]


def test_two_resets_give_identical_reading_streams():
    instance = _faulted(
        _site(POSITION_TOPIC, "delay", 2, 6, delay=2 * PERIOD),
        _site(BATTERY_TOPIC, "stuck", 3, 8),
    )
    engine = SemanticsEngine(instance.system)
    first = _streams(instance, engine)
    second = _streams(instance, engine)
    for topic in (POSITION_TOPIC, BATTERY_TOPIC):
        assert first.sent[topic] == second.sent[topic]
        assert first.seen[topic] == second.seen[topic]
