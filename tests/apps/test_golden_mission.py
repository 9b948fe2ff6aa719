"""Golden Fig. 12b mission: the co-simulation's numbers, pinned exactly.

One protected surveillance mission over the densified city (A* planner,
learned tracker, battery protection, seed 0) is flown to completion and
its outcome compared with ``==`` against values recorded from the
reference implementation.  Any change to the plant loop, sensor
publication, monitor cadence or node firing order that is not
bit-identical moves at least one of these figures.
"""

import pytest

from repro.apps import StackConfig, build_stack
from repro.simulation import surveillance_city


@pytest.fixture(scope="module")
def golden_run():
    world = surveillance_city()
    world.workspace.clearance_field().densify()
    stack = build_stack(
        StackConfig(
            world=world,
            random_goals=5,
            planner="astar",
            tracker="learned",
            protect_battery=True,
            seed=0,
        )
    )
    return stack.run(300)


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
