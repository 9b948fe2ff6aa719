"""Tests for the battery model used by the battery-safety RTA module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import (
    BatteryModel,
    BatteryParams,
    BatteryState,
    ControlCommand,
    default_drone_model,
)
from repro.geometry import Vec3, empty_workspace
from repro.simulation import DronePlant


class TestBatteryState:
    def test_charge_must_be_normalised(self):
        with pytest.raises(ValueError):
            BatteryState(charge=1.5)
        with pytest.raises(ValueError):
            BatteryState(charge=-0.1)

    def test_depleted_flag(self):
        assert BatteryState(charge=0.0).depleted
        assert not BatteryState(charge=0.5).depleted


class TestDischarge:
    def test_idle_discharge(self):
        model = BatteryModel(BatteryParams(idle_rate=0.01, accel_rate=0.0))
        after = model.step(BatteryState(1.0), ControlCommand.hover(), 10.0)
        assert after.charge == pytest.approx(0.9)

    def test_acceleration_increases_discharge(self):
        model = BatteryModel(BatteryParams(idle_rate=0.001, accel_rate=0.002))
        idle = model.step(BatteryState(1.0), ControlCommand.hover(), 10.0)
        thrusting = model.step(
            BatteryState(1.0), ControlCommand(acceleration=Vec3(3.0, 0.0, 0.0)), 10.0
        )
        assert thrusting.charge < idle.charge

    def test_charge_never_goes_negative(self):
        model = BatteryModel(BatteryParams(idle_rate=0.5))
        after = model.step(BatteryState(0.1), ControlCommand.hover(), 100.0)
        assert after.charge == 0.0

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            BatteryModel().step(BatteryState(1.0), ControlCommand.hover(), -1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BatteryParams(idle_rate=-0.1)
        with pytest.raises(ValueError):
            BatteryParams(descent_speed=0.0)
        with pytest.raises(ValueError):
            BatteryParams(max_altitude=0.0)


NAN, INF = math.nan, math.inf

#: Commanded accelerations with a non-finite component (and two finite
#: controls), each discharged by the scalar and the batch path.
NON_FINITE_ROWS = [
    (NAN, 0.0, 0.0),
    (0.0, NAN, 0.0),
    (0.0, 0.0, NAN),
    (INF, 0.0, 0.0),
    (0.0, -INF, 1.0),
    (NAN, INF, -INF),
    (0.0, 0.0, 0.0),
    (3.0, -4.0, 1.0),
]


class TestNonFiniteCommand:
    """A non-finite command discharges as a hover, as the dynamics fly it."""

    def test_nan_command_drains_the_plant_battery(self):
        plant = DronePlant(
            default_drone_model(), empty_workspace(side=20.0, ceiling=10.0), initial_charge=0.2
        )
        plant.apply(ControlCommand(acceleration=Vec3(NAN, 0.0, 0.0)), 0.05)
        hover = BatteryModel().step(BatteryState(0.2), ControlCommand.hover(), 0.05)
        assert plant.battery.charge < 0.2
        assert plant.battery.charge == hover.charge

    @pytest.mark.parametrize(
        "command",
        [ControlCommand(acceleration=Vec3(*row)) for row in NON_FINITE_ROWS[:-2]]
        + [ControlCommand(acceleration=Vec3(3.0, 0.0, 0.0), yaw_rate=NAN)],
    )
    def test_non_finite_discharges_as_hover(self, command):
        model = BatteryModel()
        assert model.discharge_rate(command) == model.discharge_rate(ControlCommand.hover())

    def test_scalar_and_batch_agree_bit_for_bit(self):
        model = BatteryModel()
        charges = np.linspace(0.2, 0.9, len(NON_FINITE_ROWS))
        batch = model.step_batch(charges, np.array(NON_FINITE_ROWS), 0.05)
        scalar = [
            model.step(BatteryState(float(charge)), ControlCommand(acceleration=Vec3(*row)), 0.05).charge
            for charge, row in zip(charges, NON_FINITE_ROWS)
        ]
        assert batch.tolist() == scalar
        assert np.isfinite(batch).all()


class TestDecisionQuantities:
    def test_cost_and_max_cost(self):
        model = BatteryModel(BatteryParams(idle_rate=0.01, accel_rate=0.01, max_acceleration=4.0))
        command = ControlCommand(acceleration=Vec3(2.0, 0.0, 0.0))
        assert model.cost(command, 2.0) == pytest.approx((0.01 + 0.02) * 2.0)
        assert model.max_cost(2.0) == pytest.approx((0.01 + 0.04) * 2.0)
        assert model.cost(command, 1.0) <= model.max_cost(1.0)

    def test_landing_bounds_use_max_altitude_by_default(self):
        params = BatteryParams(descent_speed=2.0, max_altitude=10.0)
        model = BatteryModel(params)
        assert model.landing_time_bound() == pytest.approx(5.0)
        assert model.landing_time_bound(4.0) == pytest.approx(2.0)
        assert model.landing_charge_bound(4.0) < model.landing_charge_bound()

    def test_ttf_check_matches_paper_formula(self):
        params = BatteryParams(idle_rate=0.01, accel_rate=0.0, descent_speed=1.0, max_altitude=10.0)
        model = BatteryModel(params)
        two_delta = 2.0
        t_max = model.landing_charge_bound()
        cost_star = model.max_cost(two_delta)
        threshold = t_max + cost_star
        assert model.time_to_failure_exceeded(BatteryState(threshold - 0.01), two_delta)
        assert not model.time_to_failure_exceeded(BatteryState(threshold + 0.01), two_delta)

    def test_endurance_is_finite_and_positive(self):
        assert 0.0 < BatteryModel().endurance() < 10_000.0

    def test_negative_duration_rejected(self):
        model = BatteryModel()
        with pytest.raises(ValueError):
            model.cost(ControlCommand.hover(), -1.0)
        with pytest.raises(ValueError):
            model.max_cost(-1.0)

    @given(
        charge=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        duration=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        accel=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_max_cost_dominates_any_cost(self, charge, duration, accel):
        """cost* is a true upper bound over all admissible controls."""
        model = BatteryModel()
        command = ControlCommand(acceleration=Vec3(accel, 0.0, 0.0))
        assert model.cost(command, duration) <= model.max_cost(duration) + 1e-12
