"""Ablation — the decision-module period Δ (Remark 3.3 / Figure 10).

The paper discusses the trade-off but leaves the choice of Δ to the
programmer: a large Δ makes ttf_2Δ and φ_safer conservative (the switching
boundary moves away from the obstacles, the safe controller is used more
and the mission slows down); a small Δ maximises advanced-controller usage
but switches closer to the obstacles.  This ablation sweeps Δ on the g1..g4
mission and reports mission time, disengagements, and SC usage.
"""

from __future__ import annotations

from repro.apps import StackConfig, build_stack
from repro.simulation import waypoint_range

DELTAS = (0.05, 0.1, 0.2)
MISSION_TIMEOUT = 400.0


def _run_with_delta(delta: float):
    world = waypoint_range()
    config = StackConfig(
        world=world,
        goals=world.surveillance_points,
        loop_goals=False,
        planner="straight",
        protect_battery=False,
        mp_delta=delta,
        mp_period=min(0.05, delta),
        seed=3,
    )
    metrics, _ = build_stack(config).run(duration=MISSION_TIMEOUT)
    return metrics


def test_ablation_decision_period(table_printer):
    results = {delta: _run_with_delta(delta) for delta in DELTAS}
    rows = []
    for delta, metrics in results.items():
        rows.append(
            [
                f"{delta * 1000:.0f} ms",
                f"{metrics.mission_time:.1f}",
                metrics.total_disengagements,
                f"{1.0 - metrics.overall_ac_fraction():.2f}",
                metrics.collided,
                metrics.completed,
            ]
        )
    table_printer(
        "Ablation: decision-module period Δ on the g1..g4 mission",
        ["Δ", "mission time [s]", "disengagements", "SC time fraction", "collided", "completed"],
        rows,
    )
    # Safety must hold for every Δ (Theorem 3.1 does not depend on its value).
    assert all(not metrics.collided for metrics in results.values())
    # Small and moderate Δ complete the mission; a very large Δ may be so
    # conservative that the mission stalls near obstacle-adjacent goals —
    # that is exactly the over-conservatism Remark 3.3 warns about, so it is
    # reported in the table rather than asserted away.
    assert results[min(DELTAS)].completed
    # Conservatism shape: a larger Δ never uses the safe controller less than
    # the smallest Δ does.
    sc_fraction = {delta: 1.0 - metrics.overall_ac_fraction() for delta, metrics in results.items()}
    assert sc_fraction[max(DELTAS)] >= sc_fraction[min(DELTAS)] - 0.05
