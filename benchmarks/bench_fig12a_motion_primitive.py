"""Figure 12a — RTA-protected safe motion primitive (performance vs. safety).

Paper result (Section V-A): on the g1→g4 mission the drone takes ~10 s with
only the unsafe advanced controller (which can collide), ~14 s with the
RTA-protected motion primitive, and ~24 s with only the safe controller —
runtime assurance is a "safe middle ground" that does not sacrifice too
much performance.  The benchmark regenerates that three-row comparison; the
absolute seconds differ (different plant and controllers) but the ordering
and the rough ratios must hold.
"""

from __future__ import annotations

from repro.apps import StackConfig, build_stack
from repro.simulation import waypoint_range

MISSION_TIMEOUT = 300.0


def _run_variant(protect: bool, sc_only: bool = False, seed: int = 3):
    world = waypoint_range()
    config = StackConfig(
        world=world,
        goals=world.surveillance_points,
        loop_goals=False,
        planner="straight",
        protect_motion_primitive=protect,
        protect_battery=False,
        sc_only=sc_only,
        seed=seed,
    )
    metrics, result = build_stack(config).run(duration=MISSION_TIMEOUT)
    return metrics


def test_fig12a_mission_time_comparison(table_printer):
    ac_only = _run_variant(protect=False)
    rta = _run_variant(protect=True)
    sc_only = _run_variant(protect=False, sc_only=True)
    table_printer(
        "Figure 12a: g1..g4 mission — AC-only vs RTA-protected vs SC-only",
        ["configuration", "mission time [s]", "paper [s]", "collided", "disengagements", "AC fraction"],
        [
            ["AC only (unsafe)", f"{ac_only.mission_time:.1f}", "10", ac_only.collided,
             ac_only.total_disengagements, "1.00"],
            ["RTA-protected", f"{rta.mission_time:.1f}", "14", rta.collided,
             rta.total_disengagements, f"{rta.overall_ac_fraction():.2f}"],
            ["SC only", f"{sc_only.mission_time:.1f}", "24", sc_only.collided,
             sc_only.total_disengagements, "0.00"],
        ],
    )
    # Safety shape: only the unprotected advanced controller collides.
    assert ac_only.collided
    assert not rta.collided and rta.completed
    assert not sc_only.collided and sc_only.completed
    # Performance shape: AC-only < RTA < SC-only mission time.
    assert ac_only.mission_time < rta.mission_time < sc_only.mission_time
    # The RTA variant hands control to the SC and back (Figure 12a's red/green dots).
    assert rta.total_disengagements >= 1
    assert rta.total_reengagements >= 1
    # The RTA penalty stays well below the SC-only penalty (the "middle ground").
    assert rta.mission_time < 0.8 * sc_only.mission_time
