"""Figure 5 — third-party / learned low-level controllers are unsafe without RTA.

The paper flies the PX4 controller on the g1..g4 square and a data-driven
controller on a figure-eight loop, and observes unsafe excursions that end
in (near-)collisions.  This benchmark runs the same two workloads with the
untrusted controllers *unprotected* and measures how often they violate
φ_obs, then repeats them under the RTA-protected motion primitive, which
must eliminate the violations.
"""

from __future__ import annotations

from repro.apps import StackConfig, build_stack
from repro.simulation import waypoint_range

SEEDS = range(4)
MISSION_TIMEOUT = 200.0


def _square_mission(protected: bool, tracker: str, seed: int):
    world = waypoint_range()
    config = StackConfig(
        world=world,
        goals=world.surveillance_points,
        loop_goals=False,
        planner="straight",
        protect_motion_primitive=protected,
        protect_battery=False,
        tracker=tracker,
        seed=seed,
    )
    return build_stack(config).run(duration=MISSION_TIMEOUT)


def _campaign(protected: bool, tracker: str):
    collisions = 0
    completions = 0
    min_clearance = float("inf")
    for seed in SEEDS:
        metrics, _ = _square_mission(protected, tracker, seed)
        collisions += int(metrics.collided)
        completions += int(metrics.completed)
        min_clearance = min(min_clearance, metrics.min_clearance)
    return {"collisions": collisions, "completions": completions, "min_clearance": min_clearance}


def test_fig5_untrusted_third_party_controller(table_printer):
    """Aggressive (PX4-like) tracker: unsafe alone, safe under the RTA module."""
    unprotected = _campaign(protected=False, tracker="aggressive")
    protected = _campaign(protected=True, tracker="aggressive")
    table_printer(
        "Figure 5 (right): PX4-like controller on the g1..g4 square",
        ["configuration", "collisions", f"missions (n={len(list(SEEDS))})", "min clearance [m]"],
        [
            ["unprotected AC (paper: unsafe excursions)", unprotected["collisions"],
             unprotected["completions"], f"{unprotected['min_clearance']:.2f}"],
            ["RTA-protected (paper: safe)", protected["collisions"],
             protected["completions"], f"{protected['min_clearance']:.2f}"],
        ],
    )
    # Shape: the unprotected controller collides at least once; the RTA never does.
    assert unprotected["collisions"] >= 1
    assert protected["collisions"] == 0
    assert protected["completions"] == len(list(SEEDS))


def test_fig5_learned_controller(table_printer):
    """Learned (data-driven) tracker: occasional dangerous deviations, caught by the RTA."""
    unprotected = _campaign(protected=False, tracker="learned")
    protected = _campaign(protected=True, tracker="learned")
    table_printer(
        "Figure 5 (left): learned controller on the waypoint loop",
        ["configuration", "collisions", "min clearance [m]"],
        [
            ["unprotected learned controller", unprotected["collisions"], f"{unprotected['min_clearance']:.2f}"],
            ["RTA-protected learned controller", protected["collisions"], f"{protected['min_clearance']:.2f}"],
        ],
    )
    # Shape: the protected variant never collides and keeps more clearance.
    assert protected["collisions"] == 0
    assert protected["min_clearance"] >= unprotected["min_clearance"] - 1e-9
