"""Golden Fig. 12b missions: the co-simulation's numbers, pinned exactly.

Protected surveillance missions over the densified city (A* planner,
learned tracker, battery protection) are flown to completion and their
outcomes compared with ``==`` against values recorded from the reference
implementation.  Seed 0 is the canonical mission; seeds 1 and 12 fly
closest to the buildings, so they work the plant's collision and
clearance bookkeeping hardest.  Any change to the plant loop, sensor
publication, monitor cadence or node firing order that is not
bit-identical moves at least one of these figures.
"""

import pytest

from repro.apps import StackConfig, build_stack
from repro.simulation import surveillance_city


def _fly(seed):
    world = surveillance_city()
    world.workspace.clearance_field().densify()
    stack = build_stack(
        StackConfig(
            world=world,
            random_goals=5,
            planner="astar",
            tracker="learned",
            protect_battery=True,
            seed=seed,
        )
    )
    return stack.run(300)


@pytest.fixture(scope="module")
def golden_run():
    return _fly(0)


def test_golden_mission_is_bit_identical(golden_run):
    metrics, result = golden_run
    stats = result.engine.stats
    assert metrics.mission_time == 109.49999999999592
    assert metrics.goals_visited == 14
    assert stats.node_firings == 7124
    assert stats.time_progress_steps == 2191
    assert stats.mode_switches == 4
    assert metrics.min_clearance == 1.52040624955686


def test_golden_mission_is_safe_and_complete(golden_run):
    metrics, result = golden_run
    assert metrics.completed
    assert metrics.safe
    assert result.stop_reason == "stop condition"


# seed -> (mission time, goals, node firings, time-progress steps,
#          mode switches, min clearance, distance flown)
CLOSE_FLYING = {
    1: (121.49999999999524, 14, 7904, 2431, 18, 0.9721081897764776, 349.8673500130463),
    12: (98.49999999999655, 14, 6409, 1971, 8, 0.9520695053722186, 292.616869476155),
}


@pytest.fixture(scope="module", params=sorted(CLOSE_FLYING), ids=lambda seed: f"seed{seed}")
def close_flying_run(request):
    return request.param, _fly(request.param)


def test_close_flying_mission_is_bit_identical(close_flying_run):
    seed, (metrics, result) = close_flying_run
    mission_time, goals, firings, steps, switches, min_clearance, distance = CLOSE_FLYING[seed]
    stats = result.engine.stats
    assert metrics.mission_time == mission_time
    assert metrics.goals_visited == goals
    assert stats.node_firings == firings
    assert stats.time_progress_steps == steps
    assert stats.mode_switches == switches
    assert metrics.min_clearance == min_clearance
    assert metrics.distance_flown == distance


def test_close_flying_mission_is_safe_and_complete(close_flying_run):
    _, (metrics, result) = close_flying_run
    assert metrics.completed
    assert metrics.safe
    assert result.stop_reason == "stop condition"
