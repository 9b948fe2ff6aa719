"""Micro-benchmarks — runtime overhead of the SOTER machinery itself.

Not a paper table, but supporting evidence for the claim that the generated
decision module and the discrete-event runtime are cheap enough to run at
the controllers' rates: it measures the per-evaluation cost of the
decision-module switching logic (ttf_2Δ + φ_safer on the real workspace)
and the cost of one discrete step of the full drone system.
"""

from __future__ import annotations

import pytest

from repro.apps import StackConfig, build_stack
from repro.control import AggressiveTracker
from repro.apps.modules import build_safe_motion_primitive
from repro.dynamics import BoundedDoubleIntegrator, DoubleIntegratorParams, DroneState
from repro.geometry import Vec3
from repro.simulation import surveillance_city, waypoint_range


@pytest.mark.benchmark(group="overhead")
def test_decision_module_evaluation_cost(benchmark):
    """One DM evaluation (Figure 9 logic on the real city workspace)."""
    world = surveillance_city()
    model = BoundedDoubleIntegrator(DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0))
    module = build_safe_motion_primitive(
        workspace=world.workspace,
        model=model,
        advanced_tracker=AggressiveTracker(cruise_speed=3.5, max_acceleration=6.0),
    )
    from repro.core import DecisionModule

    dm = DecisionModule(module.spec)
    state = DroneState(position=Vec3(25.0, 4.0, 2.0), velocity=Vec3(3.0, 0.0, 0.0))
    inputs = {"localPosition": state, "activePlan": None}

    def evaluate():
        dm.step(dm.evaluations * module.spec.delta, inputs)

    benchmark(evaluate)
    assert dm.evaluations > 0


@pytest.mark.benchmark(group="overhead")
def test_full_stack_simulation_step_cost(benchmark):
    """Cost of one second of simulated flight of the full protected stack."""
    world = waypoint_range()
    config = StackConfig(
        world=world,
        goals=world.surveillance_points,
        loop_goals=True,
        planner="straight",
        protect_battery=True,
        seed=0,
    )
    stack = build_stack(config)
    simulation = stack.simulation
    state = {"until": 0.0}

    def advance_one_second():
        state["until"] += 1.0
        simulation.run(state["until"])

    benchmark(advance_one_second)
    assert simulation.engine.stats.node_firings > 0
