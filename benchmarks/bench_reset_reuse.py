"""Benchmark: the zero-rebuild exploration hot path and batched falsification.

Quantifies the two halves of the reset-and-reuse PR:

* **Explorer throughput** — the ``drone-surveillance`` sweep (identical
  configuration to PR 2's ``reachability-batch/explorer-sweep``: 120
  executions, 2 s horizon, seed 11) under fresh-build-per-execution
  (``reuse_instances=False``) versus the default reset-and-reuse path.
  The acceptance bar is ≥ 2x executions/s over the PR 2 fresh-build
  baseline, a wall time pinned when PR 2 landed (``PR2_SWEEP_SECONDS``);
  beside it, the median of per-pair ``fresh / reset`` ratios over
  alternating same-process pairs must show reset-and-reuse no more than
  5% slower than fresh builds.

* **Well-formedness falsification** — P2a/P2b/P3 of the motion-primitive
  module validated by sampling, the scalar oracle versus the batched
  plane (structure-of-arrays SC rollouts through ``command_batch``/
  ``step_batch``, one-shot ``may_leave_safe_batch``).  The checker picks
  the plane from the hooks the model provides, so the scalar side runs on
  a view exposing only the four scalar hooks.  The acceptance bar is
  ≥ 10x with check verdicts identical to the scalar loops.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

from repro.apps.modules import DroneClosedLoopModel, build_safe_motion_primitive
from repro.control import AggressiveTracker
from repro.core import CheckerOptions, WellFormednessChecker
from repro.dynamics import BoundedDoubleIntegrator, DoubleIntegratorParams
from repro.simulation import surveillance_city
from repro.testing import RandomStrategy, SystematicTester, scenario_factory

#: The PR 2 fresh-build baseline: the explorer-sweep wall time recorded
#: when PR 2 landed (120 executions at 371 exec/s → 0.3347 s) on the
#: project's reference machine.  It is not measured in this process.
PR2_SWEEP_SECONDS = 0.3347

SWEEP_EXECUTIONS = 120
SWEEP_HORIZON = 2.0
SWEEP_SEED = 11
SWEEP_REPEATS = 3
SWEEP_PAIRS = 7

FALSIFICATION_SAMPLES = 256
FALSIFICATION_HORIZON = 6.0
FALSIFICATION_SEED = 5


def _sweep(reuse_instances: bool) -> float:
    factory = scenario_factory("drone-surveillance", horizon=SWEEP_HORIZON)
    tester = SystematicTester(
        factory,
        strategy=RandomStrategy(seed=SWEEP_SEED, max_executions=SWEEP_EXECUTIONS),
        reuse_instances=reuse_instances,
    )
    started = time.perf_counter()
    report = tester.explore()
    elapsed = time.perf_counter() - started
    assert report.execution_count == SWEEP_EXECUTIONS
    assert report.ok
    return elapsed


def test_explorer_reset_reuse_throughput(table_printer):
    """Reset-and-reuse ≥ 2x the PR 2 fresh-build explorer baseline."""
    _sweep(True)  # warm the per-process world/clearance memos once
    pairs = [(_sweep(False), _sweep(True)) for _ in range(SWEEP_PAIRS)]  # alternate
    # The pinned bar keeps its statistic: the best of SWEEP_REPEATS sweeps.
    fresh = min(f for f, _ in pairs[:SWEEP_REPEATS])
    reset = min(r for _, r in pairs[:SWEEP_REPEATS])
    ratio = statistics.median(f / r for f, r in pairs)
    table_printer(
        f"Explorer throughput: {SWEEP_EXECUTIONS}-execution 'drone-surveillance' sweep",
        ["configuration", "wall time [s]", "executions/s", "vs PR 2 baseline"],
        [
            ["PR 2 fresh-build baseline (recorded)", f"{PR2_SWEEP_SECONDS:.3f}",
             f"{SWEEP_EXECUTIONS / PR2_SWEEP_SECONDS:.0f}", "1.00x"],
            ["fresh build per execution (reuse_instances=False)", f"{fresh:.3f}",
             f"{SWEEP_EXECUTIONS / fresh:.0f}", f"{PR2_SWEEP_SECONDS / fresh:.2f}x"],
            ["reset-and-reuse (default)", f"{reset:.3f}",
             f"{SWEEP_EXECUTIONS / reset:.0f}", f"{PR2_SWEEP_SECONDS / reset:.2f}x"],
            [f"fresh / reset, median of {SWEEP_PAIRS} alternating pairs", "", "",
             f"{ratio:.2f}x"],
        ],
    )
    # The pinned PR 2 wall time was recorded on the reference machine, so
    # this bar also fails on hardware slower than that machine; the
    # same-process bar below holds anywhere.
    assert PR2_SWEEP_SECONDS / reset >= 2.0, (
        f"expected >= 2x over the PR 2 fresh-build baseline, measured "
        f"{PR2_SWEEP_SECONDS / reset:.2f}x ({SWEEP_EXECUTIONS / reset:.0f} exec/s)"
    )
    assert ratio * 1.05 >= 1.0, (
        f"reset-and-reuse should never lose to fresh builds: the median fresh/reset "
        f"ratio over {SWEEP_PAIRS} pairs is {ratio:.2f}x"
    )


def _scalar_view(model):
    """Only the four scalar ``ClosedLoopModel`` hooks: the checker's scalar oracle."""
    return SimpleNamespace(
        sample_safe_state=model.sample_safe_state,
        sample_safer_state=model.sample_safer_state,
        rollout_under_safe_controller=model.rollout_under_safe_controller,
        worst_case_stays_safe=model.worst_case_stays_safe,
    )


def _falsification_pass(scalar: bool):
    world = surveillance_city()
    model = BoundedDoubleIntegrator(
        DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0)
    )
    module = build_safe_motion_primitive(world.workspace, model, AggressiveTracker())
    closed_loop = DroneClosedLoopModel(
        module, model, world.workspace, seed=FALSIFICATION_SEED
    )
    checker = WellFormednessChecker(
        _scalar_view(closed_loop) if scalar else closed_loop,
        CheckerOptions(
            samples=FALSIFICATION_SAMPLES,
            p2a_horizon=FALSIFICATION_HORIZON,
            p2b_max_time=FALSIFICATION_HORIZON,
            trust_certificates=False,
        ),
    )
    timings = {}
    results = {}
    for name, check in (
        ("P2a", checker.check_p2a),
        ("P2b", checker.check_p2b),
        ("P3", checker.check_p3),
    ):
        started = time.perf_counter()
        results[name] = check(module.spec)
        timings[name] = time.perf_counter() - started
    return results, timings


def test_wellformed_batched_falsification(table_printer):
    """Batched P2a/P2b/P3 ≥ 10x the scalar loops, identical verdicts."""
    scalar_results, scalar_times = _falsification_pass(scalar=True)
    batch_results, batch_times = _falsification_pass(scalar=False)
    for name in ("P2a", "P2b", "P3"):
        scalar, batch = scalar_results[name], batch_results[name]
        assert (scalar.passed, scalar.evidence, scalar.detail) == (
            batch.passed, batch.evidence, batch.detail,
        ), f"{name}: batched verdict diverged from the scalar check"
    rows = [
        [
            name,
            f"{scalar_times[name] * 1e3:.0f}",
            f"{batch_times[name] * 1e3:.0f}",
            f"{scalar_times[name] / batch_times[name]:.1f}x",
            "PASS" if batch_results[name].passed else "FAIL",
        ]
        for name in ("P2a", "P2b", "P3")
    ]
    scalar_total = sum(scalar_times.values())
    batch_total = sum(batch_times.values())
    rows.append(
        ["total", f"{scalar_total * 1e3:.0f}", f"{batch_total * 1e3:.0f}",
         f"{scalar_total / batch_total:.1f}x", ""]
    )
    table_printer(
        f"Well-formedness falsification ({FALSIFICATION_SAMPLES} samples, "
        f"{FALSIFICATION_HORIZON}s rollouts): scalar vs batched",
        ["check", "scalar [ms]", "batched [ms]", "speedup", "verdict"],
        rows,
    )
    assert scalar_total / batch_total >= 10.0, (
        f"expected >= 10x on batched P2a/P2b/P3, measured {scalar_total / batch_total:.1f}x"
    )
