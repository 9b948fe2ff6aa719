"""Figure 12c — battery safety during a surveillance mission.

Paper result (Section V-B, Figure 12c): when the battery charge crosses the
safety threshold the battery decision module transfers control to the
certified landing planner, which aborts the mission and lands the drone —
so the drone never crashes because of an empty battery.  The benchmark runs
a long looping mission on a fast-draining battery with and without the
battery RTA module.
"""

from __future__ import annotations

from repro.apps import StackConfig, build_stack
from repro.dynamics import BatteryParams
from repro.simulation import waypoint_range

MISSION_TIMEOUT = 500.0
FAST_DRAIN = BatteryParams(idle_rate=0.008, accel_rate=0.002, descent_speed=1.0, max_altitude=12.0)


def _mission(protect_battery: bool, seed: int = 2):
    world = waypoint_range()
    config = StackConfig(
        world=world,
        goals=world.surveillance_points,
        loop_goals=True,
        planner="straight",
        protect_battery=protect_battery,
        battery_params=FAST_DRAIN,
        seed=seed,
    )
    stack = build_stack(config)
    metrics, result = stack.run(duration=MISSION_TIMEOUT)
    battery_switches = (
        metrics.disengagements.get("BatterySafety", 0) if protect_battery else 0
    )
    return metrics, battery_switches


def test_fig12c_battery_safety(table_printer):
    protected, protected_switches = _mission(protect_battery=True)
    unprotected, _ = _mission(protect_battery=False)
    table_printer(
        "Figure 12c: battery safety (fast-draining battery, looping mission)",
        ["configuration", "battery aborts", "depleted in air", "landed safely", "final charge", "flight time [s]"],
        [
            ["battery RTA module", protected_switches, protected.battery_depleted_in_air,
             protected.landed_safely, f"{protected.final_charge:.2f}", f"{protected.mission_time:.0f}"],
            ["no battery protection", "-", unprotected.battery_depleted_in_air,
             unprotected.landed_safely, f"{unprotected.final_charge:.2f}", f"{unprotected.mission_time:.0f}"],
        ],
    )
    # Shape (paper): the protected drone aborts exactly once and lands with
    # charge to spare; the unprotected drone flies until the battery dies in
    # the air.
    assert protected_switches == 1
    assert not protected.battery_depleted_in_air
    assert protected.landed_safely
    assert protected.final_charge > 0.0
    assert unprotected.battery_depleted_in_air
    assert unprotected.crashed
