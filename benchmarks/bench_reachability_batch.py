"""Batched safety-query plane — scalar vs. vectorised throughput.

PR 2 introduced a batched, cached safety-query plane: numpy point batches
at the geometry layer (``clearance_batch``), batched worst-case
reachability (``may_leave_safe_batch``), a vectorised occupancy-grid
build + distance transform, and a per-workspace :class:`ClearanceField`
memo that the decision modules and monitors hit instead of re-walking the
obstacle list.  This benchmark measures each layer against the scalar
loops it replaced and the systematic-testing throughput the refactor was
for.

Expectations (asserted):

* batched clearance and reachability queries are >= 5x faster than the
  scalar loops at >= 1k points, with bit-identical answers;
* the vectorised occupancy rasterisation beats the per-cell loop >= 5x
  and marks the same cells; the chamfer distance transform beats the
  brushfire Dijkstra and matches it within floating-point rounding;
* the explorer's executions/s on the ``drone-surveillance`` sweep improve
  over the pre-PR configuration (uncached plane, per-step monitors).
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

from repro.geometry import OccupancyGrid, points_as_array
from repro.apps.scenarios import _shared_world
from repro.dynamics import BoundedDoubleIntegrator, DoubleIntegratorParams, DroneState
from repro.geometry.vec import Vec3
from repro.reachability import WorstCaseReachability, states_as_arrays
from repro.simulation import surveillance_city
from repro.testing import RandomStrategy, SystematicTester, scenario_factory

POINTS = 2000
REPEATS = 5
SWEEP_EXECUTIONS = 120
SWEEP_ROUNDS = 3
HORIZON = 2.0
SEED = 11


def _timed(callable_, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _random_states(workspace, count: int) -> list:
    rng = random.Random(SEED)
    return [
        DroneState(
            position=workspace.bounds.random_point(rng),
            velocity=Vec3(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-1, 1)),
        )
        for _ in range(count)
    ]


def test_batched_point_queries_speedup(table_printer):
    workspace = surveillance_city().workspace
    states = _random_states(workspace, POINTS)
    points = points_as_array([state.position for state in states])
    positions, speeds = states_as_arrays(states)
    model = BoundedDoubleIntegrator(
        DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0)
    )
    reach = WorstCaseReachability(model)

    def measure():
        rows = []

        scalar_clearance = _timed(
            lambda: [workspace.clearance(state.position) for state in states]
        )
        batch_clearance = _timed(lambda: workspace.clearance_batch(points))
        scalar_values = np.array([workspace.clearance(state.position) for state in states])
        assert (scalar_values == workspace.clearance_batch(points)).all(), (
            "batched clearance must be bit-identical to the scalar loop"
        )
        rows.append(("clearance", scalar_clearance, batch_clearance))

        scalar_reach = _timed(
            lambda: [reach.may_leave_safe(s, workspace, 0.2, margin=0.05) for s in states]
        )
        batch_reach = _timed(
            lambda: reach.may_leave_safe_batch(positions, speeds, workspace, 0.2, margin=0.05)
        )
        scalar_verdicts = np.array(
            [reach.may_leave_safe(s, workspace, 0.2, margin=0.05) for s in states]
        )
        assert (
            scalar_verdicts
            == reach.may_leave_safe_batch(positions, speeds, workspace, 0.2, margin=0.05)
        ).all(), "batched reachability must be bit-identical to the scalar loop"
        rows.append(("may_leave_safe (2Δ)", scalar_reach, batch_reach))

        scalar_switch = _timed(
            lambda: [reach.must_switch(s, workspace, 0.2, margin=0.05) for s in states]
        )
        batch_switch = _timed(
            lambda: reach.must_switch_batch(positions, speeds, workspace, 0.2, margin=0.05)
        )
        rows.append(("must_switch (ttf)", scalar_switch, batch_switch))
        return rows

    rows = measure()
    table_printer(
        f"Batched safety queries: scalar loop vs numpy batch over {POINTS} states",
        ["query", "scalar [ms]", "batch [ms]", "speedup", "queries/s (batch)"],
        [
            [
                name,
                f"{scalar * 1e3:.2f}",
                f"{batch * 1e3:.3f}",
                f"{scalar / batch:.1f}x",
                f"{POINTS / batch:,.0f}",
            ]
            for name, scalar, batch in rows
        ],
    )
    for name, scalar, batch in rows:
        assert scalar / batch >= 5.0, (
            f"{name}: expected >=5x batch speedup at {POINTS} points, "
            f"measured {scalar / batch:.1f}x"
        )


def test_occupancy_grid_vectorisation_speedup(table_printer):
    workspace = surveillance_city().workspace
    resolution = 0.25

    def measure():
        scalar_build = _timed(
            lambda: OccupancyGrid._from_workspace_scalar(workspace, resolution=resolution),
            repeats=2,
        )
        batch_build = _timed(
            lambda: OccupancyGrid.from_workspace(workspace, resolution=resolution), repeats=2
        )
        grid = OccupancyGrid.from_workspace(workspace, resolution=resolution)
        reference = OccupancyGrid._from_workspace_scalar(workspace, resolution=resolution)
        assert (grid.occupied == reference.occupied).all(), (
            "vectorised rasterisation must mark exactly the scalar loop's cells"
        )
        dijkstra = _timed(grid._distance_to_occupied_dijkstra, repeats=2)
        chamfer = _timed(grid.distance_to_occupied, repeats=2)
        assert np.allclose(
            grid.distance_to_occupied(), grid._distance_to_occupied_dijkstra(), rtol=1e-9, atol=1e-9
        ), "chamfer transform must match the Dijkstra brushfire"
        return scalar_build, batch_build, dijkstra, chamfer, grid.shape

    scalar_build, batch_build, dijkstra, chamfer, shape = measure()
    table_printer(
        f"Occupancy grid ({shape[0]}x{shape[1]} cells at {resolution} m): loops vs vectorised",
        ["stage", "scalar [ms]", "vectorised [ms]", "speedup"],
        [
            ["rasterise workspace", f"{scalar_build * 1e3:.1f}", f"{batch_build * 1e3:.2f}",
             f"{scalar_build / batch_build:.1f}x"],
            ["distance transform", f"{dijkstra * 1e3:.1f}", f"{chamfer * 1e3:.2f}",
             f"{dijkstra / chamfer:.1f}x"],
        ],
    )
    assert scalar_build / batch_build >= 5.0
    assert dijkstra / chamfer >= 5.0


def _sweep(use_query_cache: bool) -> float:
    factory = scenario_factory(
        "drone-surveillance", horizon=HORIZON, use_query_cache=use_query_cache
    )
    tester = SystematicTester(
        factory,
        strategy=RandomStrategy(seed=SEED, max_executions=SWEEP_EXECUTIONS),
    )
    started = time.perf_counter()
    report = tester.explore()
    elapsed = time.perf_counter() - started
    assert report.execution_count == SWEEP_EXECUTIONS
    assert report.ok
    return elapsed


def test_explorer_throughput_improves(table_printer):
    """The point of the refactor: more explored executions per second."""

    def measure():
        # Build (and densify) the shared world up front: that one-off
        # sweep is per-process setup, and it would otherwise land inside
        # whichever cached sweep runs first.
        _shared_world()
        rounds = []
        for _ in range(SWEEP_ROUNDS):  # alternate, so drift hits both alike
            rounds.append(
                (
                    _sweep(use_query_cache=False),  # pre-PR configuration
                    _sweep(use_query_cache=True),  # current defaults
                )
            )
        return rounds

    rounds = measure()
    legacy, cached = (statistics.median(column) for column in zip(*rounds))
    ratios = [old / new for old, new in rounds]
    speedup = statistics.median(ratios)
    table_printer(
        f"Explorer throughput: {SWEEP_EXECUTIONS}-execution 'drone-surveillance' sweep "
        f"(median of {SWEEP_ROUNDS} alternating rounds)",
        ["configuration", "wall time [s]", "executions/s", "speedup"],
        [
            ["scalar plane, per-step monitors (pre-PR)", f"{legacy:.2f}",
             f"{SWEEP_EXECUTIONS / legacy:.0f}", "1.00x"],
            ["cached ClearanceField, per-step monitors (default)", f"{cached:.2f}",
             f"{SWEEP_EXECUTIONS / cached:.0f}",
             f"{speedup:.2f}x (rounds: {', '.join(f'{r:.2f}' for r in ratios)})"],
        ],
    )
    assert speedup >= 1.1, (
        f"expected the cached plane to improve explorer throughput, "
        f"measured a median of {speedup:.2f}x"
    )
