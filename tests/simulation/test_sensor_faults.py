"""Sensor-plane faults: stuck, stale and dropped estimator/battery readings.

The paper trusts the state estimators; the faulty wrappers model exactly
the violations of that trust assumption (frozen sensors, congested buses,
dead sensors) on a deterministic sample-index clock, so two resets
produce bit-identical reading streams — the property the fault
exploration plane's replay contract needs.
"""

import pytest

from repro.apps import StackConfig, build_stack
from repro.dynamics import DroneState, default_drone_model
from repro.dynamics.battery import BatteryState
from repro.geometry import Vec3, empty_workspace
from repro.simulation import (
    SENSOR_FAULT_MODES,
    DronePlant,
    FaultyBatterySensor,
    FaultyStateEstimator,
    PerfectEstimator,
)


def _states(count):
    return [DroneState(position=Vec3(float(i), 0.0, 2.0)) for i in range(count)]


def _plant(charge=0.9):
    return DronePlant(
        model=default_drone_model(),
        workspace=empty_workspace(side=20.0, ceiling=10.0),
        initial_state=DroneState(position=Vec3(2.0, 2.0, 2.0)),
        initial_charge=charge,
    )


class TestValidation:
    def test_mode_window_and_lag_are_validated(self):
        with pytest.raises(ValueError):
            FaultyStateEstimator(mode="explode")
        with pytest.raises(ValueError):
            FaultyStateEstimator(fault_from=5, fault_until=2)
        with pytest.raises(ValueError):
            FaultyStateEstimator(mode="stale", lag=0)
        assert set(SENSOR_FAULT_MODES) == {"stuck", "stale", "dropout"}


class TestFaultyStateEstimator:
    def test_stuck_freezes_the_last_healthy_reading(self):
        estimator = FaultyStateEstimator(
            inner=PerfectEstimator(), mode="stuck", fault_from=2, fault_until=4
        )
        readings = [estimator.estimate(s) for s in _states(5)]
        assert readings[0].position.x == pytest.approx(0.0)
        assert readings[1].position.x == pytest.approx(1.0)
        assert readings[2].position.x == pytest.approx(1.0)  # frozen
        assert readings[3].position.x == pytest.approx(1.0)  # still frozen
        assert readings[4].position.x == pytest.approx(4.0)  # window over

    def test_stuck_from_the_first_sample_pins_that_reading(self):
        estimator = FaultyStateEstimator(inner=PerfectEstimator(), mode="stuck", fault_until=3)
        readings = [estimator.estimate(s) for s in _states(3)]
        assert [r.position.x for r in readings] == [0.0, 0.0, 0.0]

    def test_stale_serves_lagged_readings(self):
        estimator = FaultyStateEstimator(
            inner=PerfectEstimator(), mode="stale", lag=2, fault_from=3, fault_until=6
        )
        readings = [estimator.estimate(s) for s in _states(6)]
        assert [r.position.x for r in readings[:3]] == [0.0, 1.0, 2.0]
        # In the window: the reading lags two samples behind.
        assert [r.position.x for r in readings[3:]] == [1.0, 2.0, 3.0]

    def test_dropout_returns_none(self):
        estimator = FaultyStateEstimator(
            inner=PerfectEstimator(), mode="dropout", fault_from=1, fault_until=2
        )
        readings = [estimator.estimate(s) for s in _states(3)]
        assert readings[0] is not None
        assert readings[1] is None
        assert readings[2] is not None

    def test_two_resets_give_bit_identical_streams(self):
        estimator = FaultyStateEstimator(mode="stuck", fault_from=2, fault_until=5)

        def stream():
            estimator.reset()
            return [estimator.estimate(s).position for s in _states(6)]

        first, second = stream(), stream()
        assert all(a.almost_equal(b) for a, b in zip(first, second))


class TestFaultyBatterySensor:
    def test_stuck_battery_hides_the_drain(self):
        sensor = FaultyBatterySensor(mode="stuck", fault_from=1, fault_until=10)
        plant = _plant(charge=0.9)
        first = sensor.measure(plant)
        plant.battery = BatteryState(charge=0.2)  # the drain the frozen sensor hides
        stuck = sensor.measure(plant)
        assert stuck.charge == pytest.approx(first.charge)

    def test_dropout_battery_reads_none(self):
        sensor = FaultyBatterySensor(mode="dropout", fault_from=0, fault_until=1)
        plant = _plant()
        assert sensor.measure(plant) is None
        assert sensor.measure(plant) is not None

    def test_reset_rewinds_the_sample_clock(self):
        sensor = FaultyBatterySensor(mode="dropout", fault_from=0, fault_until=1)
        plant = _plant()
        assert sensor.measure(plant) is None
        sensor.reset()
        assert sensor.measure(plant) is None  # sample 0 again


class TestStackWiring:
    def test_estimator_and_battery_faults_reach_the_simulation(self):
        stack = build_stack(
            StackConfig(
                planner="straight",
                estimator_fault=("stuck", 2, 8),
                battery_fault=("dropout", 1, 4),
            )
        )
        assert isinstance(stack.simulation.channels[0].estimator, FaultyStateEstimator)
        assert stack.simulation.channels[0].estimator.mode == "stuck"
        assert isinstance(stack.simulation.channels[0].battery_sensor, FaultyBatterySensor)
        assert stack.simulation.channels[0].battery_sensor.mode == "dropout"

    def test_faulted_stack_still_runs_and_stays_safe(self):
        stack = build_stack(
            StackConfig(planner="straight", estimator_fault=("dropout", 2, 4))
        )
        result = stack.simulation.run(duration=1.0)
        assert result.monitors.ok

    def test_default_stack_keeps_plain_sensors(self):
        stack = build_stack(StackConfig(planner="straight"))
        assert not isinstance(stack.simulation.channels[0].estimator, FaultyStateEstimator)
        assert not isinstance(stack.simulation.channels[0].battery_sensor, FaultyBatterySensor)
