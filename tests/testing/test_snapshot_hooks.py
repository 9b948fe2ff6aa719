"""Delta-snapshot hooks of the components that had none before.

The population tester captures and restores every snapshot component
through its own ``capture_delta_state``/``restore_delta_state`` hooks
(:mod:`repro.core.resettable`); there is no generic deep copy behind
them.  Each test here captures a component, moves it on, restores it,
and checks that it then behaves exactly as it did after the capture —
in place, on the same object.  The scenario-level census (every
registered scenario snapshots with no fallback, coverage on and off) is
``tests/testing/test_population.py``.
"""

from types import SimpleNamespace

import pytest

from repro.apps.nodes import PlanForwardNode
from repro.core import ConstantNode, FunctionNode, RelayNode
from repro.core.resettable import StatelessSnapshot
from repro.dynamics import ControlCommand, DroneState
from repro.geometry import Vec3
from repro.runtime import ChoiceFaultInjector, FaultSite
from repro.simulation import BatterySensor, PerfectEstimator, StateEstimator
from repro.testing.abstractions import NondeterministicNode
from repro.testing.coverage import CoverageTracker


@pytest.mark.parametrize(
    "component",
    [
        FunctionNode("f", lambda now, inputs: {}, publishes=("out",)),
        RelayNode("relay", {"a": "b"}),
        PlanForwardNode(),
        PerfectEstimator(),
    ],
    ids=lambda component: type(component).__name__,
)
def test_stateless_components_capture_nothing(component):
    assert isinstance(component, StatelessSnapshot)
    assert component.capture_delta_state() is None
    component.restore_delta_state(None)


def test_constant_node_has_no_hooks():
    # Tests subclass it with state; a no-op capture would skip that state.
    assert not hasattr(ConstantNode("c", {"x": 1}), "capture_delta_state")


@pytest.mark.parametrize(
    "sensor,read",
    [
        (StateEstimator(seed=4), lambda sensor, state: sensor.estimate(state)),
        (
            BatterySensor(seed=4),
            lambda sensor, state: sensor.measure(
                SimpleNamespace(battery=SimpleNamespace(charge=0.5), state=state)
            ),
        ),
    ],
    ids=["estimator", "battery-sensor"],
)
def test_sensor_noise_streams_rewind_in_place(sensor, read):
    state = DroneState(position=Vec3(1.0, 2.0, 3.0))
    read(sensor, state)
    mark = sensor.capture_delta_state()
    stream = sensor._rng
    first = [read(sensor, state) for _ in range(5)]
    sensor.restore_delta_state(mark)
    assert sensor._rng is stream
    assert [read(sensor, state) for _ in range(5)] == first
    sensor.restore_delta_state(mark)  # one capture supports many restores
    assert [read(sensor, state) for _ in range(5)] == first


class _AlwaysOne:
    """Always option 1, whatever the label: a stateless strategy."""

    def choose(self, options, label=""):
        return 1


def test_nondeterministic_node_rewinds_its_choice_count():
    node = NondeterministicNode("chooser", {"x": [0.0, 1.0], "y": [2.0, 3.0]})
    node.bind_strategy(_AlwaysOne())
    node.step(0.0, {})
    mark = node.capture_delta_state()
    node.step(0.1, {})
    assert node.choices_made == 4
    node.restore_delta_state(mark)
    assert node.choices_made == 2


class TestCoverageTracker:
    def test_a_restore_starts_a_fresh_map_and_spares_handed_over_ones(self):
        tracker = CoverageTracker(system=None)
        tracker.execution_map.record("drone0", "AC", "R4")
        mark = tracker.capture_delta_state()
        tracker.execution_map.record("drone0", "SC", "R3")
        handed = tracker.take_execution_map()
        tracker.restore_delta_state(mark)
        # The map handed to the owner is the owner's: untouched.
        assert dict(handed.counts) == {("drone0", "AC", "R4"): 1, ("drone0", "SC", "R3"): 1}
        live = tracker.execution_map
        assert live is not handed
        assert dict(live.counts) == {("drone0", "AC", "R4"): 1}
        # Recording after a restore leaves the capture pristine.
        live.record("drone0", "AC", "R4")
        tracker.restore_delta_state(mark)
        assert tracker.execution_map is not live
        assert dict(tracker.execution_map.counts) == {("drone0", "AC", "R4"): 1}


class _ByLabel:
    """A stateless strategy: fault windows decide by index, menus pick 1."""

    DECISIONS = {"w0": 1, "w1": 2, "w2": 1}  # NOISE, CRASH, NOISE

    def choose(self, options, label=""):
        if label.startswith("fault:"):
            return self.DECISIONS[label.rsplit(":", 1)[1]]
        return 1


class TestChoiceFaultInjector:
    @staticmethod
    def _injector():
        inner = NondeterministicNode(
            "controller",
            {"cmd": [ControlCommand(acceleration=Vec3(x, 0.0, 0.0)) for x in (0.0, 1.0)]},
        )
        site = FaultSite(
            kinds=("noise", "crash"),
            windows=((0.0, 0.45), (0.45, 0.65), (0.65, 2.0)),
            node="controller.faultable",
            magnitude=0.5,
        )
        injector = ChoiceFaultInjector(inner, site)
        strategy = _ByLabel()
        inner.bind_strategy(strategy)
        injector.bind_strategy(strategy)
        return injector

    @staticmethod
    def _run(injector, times):
        return [
            (dict(injector.step(now, {})), injector.injected_faults, injector._crashed)
            for now in times
        ]

    def test_a_restore_replays_noise_crash_and_the_inner_node(self):
        injector = self._injector()
        self._run(injector, (0.0, 0.1, 0.2))
        mark = injector.capture_delta_state()
        captured = (
            injector.injected_faults,
            list(injector._state._decisions),
            injector.inner.choices_made,
        )
        later = [round(0.3 + 0.1 * k, 9) for k in range(10)]
        first = self._run(injector, later)
        assert any(crashed for _, _, crashed in first)
        assert injector._state._decisions == [1, 2, 1]
        injector.restore_delta_state(mark)
        assert (
            injector.injected_faults,
            injector._state._decisions,
            injector.inner.choices_made,
        ) == captured
        assert self._run(injector, later) == first

    def test_an_inner_node_without_hooks_fails_the_capture(self):
        site = FaultSite(kinds=("drop",), windows=((0.0, 1.0),), node="c.faultable")
        injector = ChoiceFaultInjector(ConstantNode("c", {"x": 1}), site)
        with pytest.raises(AttributeError):
            injector.capture_delta_state()
