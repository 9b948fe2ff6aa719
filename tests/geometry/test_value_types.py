"""The slotted immutable value types keep the frozen-dataclass contract.

``Vec3``, ``DroneState``, ``ControlCommand``, ``BatteryState``,
``FiringEvent``, ``SampleEvent``, ``BatteryStatus``, ``TrajectorySample``
and ``ReachBall`` are built on every simulation step, so they are
``__slots__`` classes written through their slot descriptors rather than
frozen dataclasses.  Everything a caller can observe stays as it was:
immutability, ``==``/``hash`` (so set and dict order cannot move), the
dataclass-format ``repr`` that violation messages embed, the constructor
signature, ``copy``/``deepcopy`` returning the object itself (which the
delta snapshots rely on) and pickling (which the worker pipe relies on).
"""

import copy
import pickle

import pytest

from repro.dynamics import BatteryState, ControlCommand, DroneState
from repro.geometry import Vec3
from repro.geometry.trajectory import TrajectorySample
from repro.geometry.values import Value
from repro.reachability.intervals import ReachBall
from repro.runtime.tracing import FiringEvent, SampleEvent
from repro.simulation.drone import BatteryStatus
from repro.testing import ParallelTester, RandomStrategy, SystematicTester, scenario_factory

V = Vec3(1.0, -2.5, 3.25)

#: (instance, its field values in declaration order, the literal repr).
CASES = [
    (V, (1.0, -2.5, 3.25), "Vec3(1.000, -2.500, 3.250)"),
    (
        DroneState(V, Vec3(0.5, 0.0, -1.0)),
        (V, Vec3(0.5, 0.0, -1.0)),
        "DroneState(position=Vec3(1.000, -2.500, 3.250), velocity=Vec3(0.500, 0.000, -1.000))",
    ),
    (
        ControlCommand(V, 0.25),
        (V, 0.25),
        "ControlCommand(acceleration=Vec3(1.000, -2.500, 3.250), yaw_rate=0.25)",
    ),
    (BatteryState(0.5), (0.5,), "BatteryState(charge=0.5)"),
    (
        FiringEvent(0.1, "planner", True, ("plan", "goal")),
        (0.1, "planner", True, ("plan", "goal")),
        "FiringEvent(time=0.1, node='planner', enabled=True, published=('plan', 'goal'))",
    ),
    (
        SampleEvent(2.0, "clearance", -0.0),
        (2.0, "clearance", -0.0),
        "SampleEvent(time=2.0, signal='clearance', value=-0.0)",
    ),
    (BatteryStatus(0.75, 4.0), (0.75, 4.0), "BatteryStatus(charge=0.75, altitude=4.0)"),
    (
        TrajectorySample(1.5, V, Vec3(1.0, 0.0, 0.0)),
        (1.5, V, Vec3(1.0, 0.0, 0.0)),
        "TrajectorySample(time=1.5, position=Vec3(1.000, -2.500, 3.250), "
        "velocity=Vec3(1.000, 0.000, 0.000))",
    ),
    (
        ReachBall(V, 2.0, 0.4),
        (V, 2.0, 0.4),
        "ReachBall(center=Vec3(1.000, -2.500, 3.250), radius=2.0, horizon=0.4)",
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_every_case_is_a_slotted_value(case):
    value, fields, _ = case
    assert isinstance(value, Value)
    assert not hasattr(value, "__dict__")
    assert type(value).__match_args__ == type(value).__slots__
    assert tuple(getattr(value, name) for name in type(value).__match_args__) == fields


class TestImmutability:
    def test_assigning_a_field_raises(self, case):
        value, _, _ = case
        name = type(value).__match_args__[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        assert getattr(value, name) is before

    def test_deleting_a_field_raises(self, case):
        value, _, _ = case
        with pytest.raises(AttributeError):
            delattr(value, type(value).__match_args__[0])

    def test_no_new_attribute_can_be_added(self, case):
        value, _, _ = case
        with pytest.raises(AttributeError):
            value.extra = 1


class TestEqualityAndHash:
    def test_equal_fields_are_equal_and_hash_like_the_field_tuple(self, case):
        value, fields, _ = case
        twin = type(value)(*fields)
        assert twin is not value
        assert twin == value and not (twin != value)
        assert hash(twin) == hash(value) == hash(fields)

    def test_a_different_field_is_unequal(self, case):
        value, fields, _ = case
        first = fields[0]
        other = V * 2.0 if isinstance(first, Vec3) else (
            "other" if isinstance(first, str) else 0.125)
        changed = type(value)(other, *fields[1:])
        assert changed != value

    def test_another_type_with_the_same_fields_is_unequal(self, case):
        value, fields, _ = case
        # The dataclass rule: the same class first, then the tuple compare.
        assert value != fields
        assert type(value).__eq__(value, fields) is NotImplemented
        impostor = type("Impostor", (), {name: field for name, field in zip(type(value).__match_args__, fields)})()
        assert value != impostor

    def test_set_and_dict_order_follow_the_field_hash(self):
        values = [Vec3(float(i), 0.5 * i, -1.0) for i in range(8)]
        assert [hash(v) for v in values] == [hash(v.as_tuple()) for v in values]
        assert {v: i for i, v in enumerate(values)}[Vec3(3.0, 1.5, -1.0)] == 3


class TestRepr:
    def test_repr_is_the_dataclass_form(self, case):
        value, _, expected = case
        assert repr(value) == expected


class TestCopyAndPickle:
    def test_copy_and_deepcopy_return_the_object_itself(self, case):
        value, _, _ = case
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert copy.deepcopy([value, {"k": value}])[0] is value

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips(self, case, protocol):
        value, _, expected = case
        restored = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert type(restored) is type(value)
        assert restored == value
        assert repr(restored) == expected


class TestConstruction:
    def test_keyword_and_positional_construction_agree(self, case):
        value, fields, _ = case
        cls = type(value)
        keywords = dict(zip(cls.__match_args__, fields))
        assert cls(**keywords) == cls(*fields) == value

    def test_defaults(self):
        zero = Vec3(0.0, 0.0, 0.0)
        assert Vec3() == zero and Vec3(1.0) == Vec3(1.0, 0.0, 0.0)
        assert Vec3(z=2.0) == Vec3(0.0, 0.0, 2.0)
        assert DroneState() == DroneState(zero, zero)
        assert ControlCommand() == ControlCommand(zero, 0.0)
        assert BatteryState() == BatteryState(1.0)
        assert TrajectorySample(0.5, V).velocity == zero

    def test_required_fields_stay_required(self):
        for cls in (FiringEvent, SampleEvent, BatteryStatus, TrajectorySample, ReachBall):
            with pytest.raises(TypeError):
                cls()
        with pytest.raises(TypeError):
            Vec3(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(TypeError):
            Vec3(w=1.0)

    def test_battery_state_keeps_its_range_check(self):
        for charge in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                BatteryState(charge)
        assert BatteryState(0.0).depleted and not BatteryState(1.0).depleted

    def test_shared_constants_equal_fresh_values(self):
        assert Vec3.zero() is Vec3.zero() and Vec3.zero() == Vec3()
        assert ControlCommand.hover() is ControlCommand.hover()
        assert ControlCommand.hover() == ControlCommand(Vec3(), 0.0)

    def test_fast_arithmetic_builds_ordinary_vectors(self):
        for result in (V + V, V - V, V * 3.0, 3.0 * V):
            assert type(result) is Vec3
            assert result == Vec3(*result.as_tuple())
            with pytest.raises(AttributeError):
                result.x = 0.0
        assert (V + Vec3(0.5, 0.5, 0.5)).as_tuple() == (1.5, -2.0, 3.75)

    def test_with_position_and_velocity(self):
        state = DroneState(V, Vec3(0.5, 0.0, 0.0))
        moved = state.with_position(Vec3())
        assert moved == DroneState(Vec3(), state.velocity)
        assert state.with_velocity(Vec3()) == DroneState(V, Vec3())
        assert state == DroneState(V, Vec3(0.5, 0.0, 0.0))


def test_drone_state_violations_cross_the_worker_pipe_unchanged():
    """The pool pickles violations, and their states, across its pipe."""
    factory = scenario_factory("plant-surveillance", unsafe_start=True)
    serial = SystematicTester(
        factory, strategy=RandomStrategy(max_executions=12, seed=1)).explore()
    pooled = ParallelTester(
        harness_factory=factory, strategy=RandomStrategy(max_executions=12, seed=1),
        workers=2).explore()

    def violations(report):
        return sorted(
            (
                ((record.index, v.time, v.monitor, v.message), v.state)
                for record in report.executions
                for v in record.violations
            ),
            key=lambda item: item[0],
        )

    expected = violations(serial)
    assert expected, "the unsafe start should yield violations"
    assert any(isinstance(state, DroneState) for _, state in expected)
    got = violations(pooled)
    assert got == expected
    assert [repr(state) for _, state in got] == [repr(state) for _, state in expected]
    assert [type(state) for _, state in got] == [type(state) for _, state in expected]
