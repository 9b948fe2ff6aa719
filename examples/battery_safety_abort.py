#!/usr/bin/env python3
"""Battery-safety RTA module: abort the mission and land before the charge runs out.

Reproduces the Figure 12c scenario of the SOTER paper: the drone patrols
the g1..g4 range on a (deliberately fast-draining) battery.  When the
battery decision module detects that continuing could leave too little
charge to land (``bt - cost* < T_max``), it hands control from the
plan-forwarding advanced controller to the certified landing planner,
which descends and lands; without the module the drone keeps flying until
the battery dies in the air.

Run with:  python examples/battery_safety_abort.py
"""

from __future__ import annotations

from repro.apps import StackConfig, build_stack
from repro.dynamics import BatteryParams
from repro.simulation import waypoint_range

FAST_DRAIN = BatteryParams(idle_rate=0.008, accel_rate=0.002, descent_speed=1.0, max_altitude=12.0)


def fly(protect_battery: bool):
    world = waypoint_range()
    config = StackConfig(
        world=world,
        goals=world.surveillance_points,
        loop_goals=True,                  # patrol until the battery forces an abort
        planner="straight",
        protect_battery=protect_battery,
        battery_params=FAST_DRAIN,
        seed=2,
    )
    stack = build_stack(config)
    metrics, result = stack.run(duration=500.0)
    return stack, metrics


def main() -> None:
    print("flying WITH the battery-safety RTA module ...")
    protected_stack, protected = fly(protect_battery=True)
    battery_dm = protected_stack.system.module_named("BatterySafety").decision
    print(f"  flight time          : {protected.mission_time:.0f} s")
    print(f"  battery aborts       : {len(battery_dm.disengagements)}")
    for switch in battery_dm.disengagements:
        print(f"    t={switch.time:6.1f}s  {switch.previous.value} -> {switch.new.value}  ({switch.reason})")
    print(f"  landed safely        : {protected.landed_safely}")
    print(f"  final charge         : {protected.final_charge:.0%}")
    print(f"  battery died in air  : {protected.battery_depleted_in_air}")

    print("\nflying WITHOUT battery protection ...")
    _, unprotected = fly(protect_battery=False)
    print(f"  flight time          : {unprotected.mission_time:.0f} s")
    print(f"  battery died in air  : {unprotected.battery_depleted_in_air}")
    print(f"  crashed              : {unprotected.crashed}")

    print("\nφ_bat verdicts: protected =", protected.safe, "| unprotected =", unprotected.safe)


if __name__ == "__main__":
    main()
