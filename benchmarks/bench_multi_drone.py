"""Multi-drone shared-airspace workload: fleet exploration scaling.

Executions/s of the ``multi-drone-surveillance`` scenario at N = 1, 2, 3
composed protected stacks under the reset-and-reuse explorer.  The N=1
row doubles as a sanity anchor: a fleet of one is bit-identical to
``drone-surveillance`` (proven in
``tests/testing/test_multi_drone_differential.py``), so its throughput
tracks the single-drone sweep.
"""

from __future__ import annotations

import time

from repro.testing import RandomStrategy, SystematicTester, scenario_factory

FLEET_SIZES = (1, 2, 3)
SWEEP_EXECUTIONS = 60
SWEEP_HORIZON = 1.0
SWEEP_SEED = 11
SWEEP_REPEATS = 3


# --------------------------------------------------------------------- #
# fleet exploration scaling
# --------------------------------------------------------------------- #
def _fleet_sweep(drones: int) -> float:
    factory = scenario_factory(
        "multi-drone-surveillance", drones=drones, horizon=SWEEP_HORIZON
    )
    tester = SystematicTester(
        factory,
        strategy=RandomStrategy(seed=SWEEP_SEED, max_executions=SWEEP_EXECUTIONS),
    )
    started = time.perf_counter()
    report = tester.explore()
    elapsed = time.perf_counter() - started
    assert report.execution_count == SWEEP_EXECUTIONS
    assert report.ok  # the default menus are conflict-free for up to 3 drones
    return elapsed


def test_fleet_exploration_scaling(table_printer):
    """Executions/s as the shared airspace grows from 1 to 3 protected stacks."""
    _fleet_sweep(FLEET_SIZES[0])  # warm the per-process world/clearance memos
    walls = {
        drones: min(_fleet_sweep(drones) for _ in range(SWEEP_REPEATS))
        for drones in FLEET_SIZES
    }
    baseline = walls[FLEET_SIZES[0]]
    table_printer(
        f"Fleet exploration: {SWEEP_EXECUTIONS}-execution 'multi-drone-surveillance' sweeps",
        ["drones", "nodes/system", "wall time [s]", "executions/s", "vs 1 drone"],
        [
            [
                drones,
                6 * drones,  # surveillance, planner, relay, MP module (ac/sc/dm)
                f"{wall:.3f}",
                f"{SWEEP_EXECUTIONS / wall:.0f}",
                f"{wall / baseline:.2f}x",
            ]
            for drones, wall in walls.items()
        ],
    )
    # Composition overhead must stay roughly linear: a 3-stack airspace
    # may not cost more than ~6x the single stack per execution (generous
    # slack over the ~3x node count).  The ~40 ms 1-drone baseline is
    # easily perturbed on a loaded host: rerun a failure alone first.
    assert walls[3] <= 6.0 * baseline, (
        f"3-drone sweep {walls[3]:.3f}s vs 1-drone {baseline:.3f}s — "
        "fleet composition overhead is no longer near-linear"
    )
