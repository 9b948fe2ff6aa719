"""Section V-D — rigorous simulation campaign (endurance table).

Paper result: over 104 hours of software-in-the-loop simulation
(~1505 km flown) the RTA-protected stack recorded 109 disengagements where
an SC prevented a potential failure, the advanced controllers stayed in
control > 96 % of the time, and the only 34 crashes were caused by the safe
controller not being scheduled in time after a switch (an OS-scheduling
effect, expected to disappear on an RTOS).

The benchmark runs a scaled-down randomized campaign (a handful of missions
instead of 104 hours) in three scheduler configurations:

* an idealised real-time scheduler (no crashes expected),
* a jittery best-effort OS scheduler (still safe at realistic jitter), and
* a degraded scheduler that starves the safe controller after the switch,
  reproducing the paper's only crash mode.
"""

from __future__ import annotations

from repro.apps import CampaignMetrics, StackConfig, build_stack
from repro.runtime import JitteryOSScheduler, OverloadScheduler, PerfectScheduler
from repro.simulation import surveillance_city, waypoint_range

MISSIONS = 4
GOALS_PER_MISSION = 4
MISSION_TIMEOUT = 250.0


def _city_campaign(scheduler_factory):
    campaign = CampaignMetrics()
    world = surveillance_city()
    for seed in range(MISSIONS):
        config = StackConfig(
            world=world,
            goals=[],
            random_goals=GOALS_PER_MISSION,
            loop_goals=False,
            planner="astar",
            tracker="learned",
            protect_battery=True,
            scheduler=scheduler_factory(seed),
            seed=seed,
        )
        metrics, _ = build_stack(config).run(duration=MISSION_TIMEOUT)
        campaign.add(metrics)
    return campaign


def _starved_sc_missions():
    """Missions where the SC is starved after the switch (the paper's crash mode)."""
    crashes = 0
    world = waypoint_range()
    from repro.geometry import Vec3

    for seed in range(MISSIONS):
        config = StackConfig(
            world=world,
            goals=world.surveillance_points,
            loop_goals=False,
            planner="straight",
            protect_battery=False,
            start_position=Vec3(20.0, 7.0, 2.0),
            scheduler=OverloadScheduler(
                starved_nodes=["SafeMotionPrimitive.sc"], start_time=0.0, end_time=1e9
            ),
            seed=seed,
        )
        metrics, _ = build_stack(config).run(duration=120.0)
        crashes += int(metrics.crashed)
    return crashes


def test_sec5d_endurance_campaign(table_printer):
    perfect = _city_campaign(lambda seed: PerfectScheduler())
    jittery = _city_campaign(
        lambda seed: JitteryOSScheduler(max_jitter=0.03, drop_rate=0.01, seed=seed)
    )
    starved_crashes = _starved_sc_missions()
    table_printer(
        "Section V-D: endurance campaign (scaled; paper: 104 h, 1505 km, 109 disengagements, "
        "34 crashes, AC > 96 %)",
        ["scheduler", "missions", "flight time [s]", "distance [km]", "disengagements", "AC fraction", "crashes"],
        [
            ["idealised real-time", perfect.mission_count, f"{perfect.total_flight_time:.0f}",
             f"{perfect.total_distance / 1000.0:.2f}", perfect.total_disengagements,
             f"{perfect.mean_ac_fraction():.1%}", perfect.crashes],
            ["jittery OS timers", jittery.mission_count, f"{jittery.total_flight_time:.0f}",
             f"{jittery.total_distance / 1000.0:.2f}", jittery.total_disengagements,
             f"{jittery.mean_ac_fraction():.1%}", jittery.crashes],
            ["SC starved after switch", MISSIONS, "-", "-", "-", "-", starved_crashes],
        ],
    )
    # Shape: with the RTA in place and the SC scheduled on time there are no
    # crashes, disengagements do occur, and the AC stays in control for the
    # overwhelming majority of the time; crashes appear only when the SC is
    # not scheduled after the DM switches.
    assert perfect.crashes == 0
    assert jittery.crashes == 0
    assert perfect.total_disengagements + jittery.total_disengagements >= 1
    assert perfect.mean_ac_fraction() > 0.9
    assert starved_crashes >= 1
