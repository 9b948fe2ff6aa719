"""Ablation — the size of φ_safer (Remark 3.3: switching hysteresis).

Choosing φ_safer close to the switching boundary returns control to the
advanced controller sooner but risks rapid back-and-forth switching;
pushing it further inside φ_safe adds hysteresis at the cost of more time
under the conservative controller.  This ablation sweeps the extra margin
added to φ_safer and reports switching counts and safe-controller usage.
"""

from __future__ import annotations

from repro.apps import StackConfig, build_stack
from repro.simulation import waypoint_range

MARGINS = (0.1, 0.5, 1.5)
MISSION_TIMEOUT = 400.0


def _run_with_margin(margin: float):
    world = waypoint_range()
    config = StackConfig(
        world=world,
        goals=world.surveillance_points,
        loop_goals=False,
        planner="straight",
        protect_battery=False,
        safer_extra_margin=margin,
        seed=3,
    )
    metrics, _ = build_stack(config).run(duration=MISSION_TIMEOUT)
    return metrics


def test_ablation_safer_margin(table_printer):
    results = {margin: _run_with_margin(margin) for margin in MARGINS}
    rows = []
    for margin, metrics in results.items():
        switches = metrics.total_disengagements + metrics.total_reengagements
        rows.append(
            [
                f"{margin:.1f} m",
                f"{metrics.mission_time:.1f}",
                metrics.total_disengagements,
                switches,
                f"{1.0 - metrics.overall_ac_fraction():.2f}",
                metrics.collided,
            ]
        )
    table_printer(
        "Ablation: φ_safer margin (hysteresis between R4 and R5, Figure 10)",
        ["extra margin", "mission time [s]", "disengagements", "total switches", "SC time fraction", "collided"],
        rows,
    )
    # Safety holds for every margin; the margin only trades performance for
    # switching frequency.
    assert all(not metrics.collided for metrics in results.values())
    # Hysteresis shape: the largest margin never switches more often than the
    # smallest one.
    smallest, largest = min(MARGINS), max(MARGINS)
    switches_small = results[smallest].total_disengagements + results[smallest].total_reengagements
    switches_large = results[largest].total_disengagements + results[largest].total_reengagements
    assert switches_large <= switches_small + 1
