"""Benchmark: the fault plane's cost — dormant overhead and the full differential.

Two measurements:

* **Dormant overhead.**  ``fault-injected-surveillance`` is byte-for-byte
  the ``drone-surveillance`` stack plus the fault plane (the tracker
  behind a ``ChoiceFaultInjector``, the position topic behind the
  ``TopicFaultGate``).  With every fault window pushed beyond the horizon
  no choice is ever drawn and no fault fires — the sweep measures pure
  plumbing: one wrapper step per tracker firing and one gate lookup per
  publish.  The bar: ≤ 1.5x the plain stack, measured in-process, so
  "faults cost ~nothing until they fire" stays an asserted property
  rather than a hope.
* **Resilience differential.**  Wall time of the full
  ``assert_rta_resilient`` protected/unprotected exhaustive sweep on
  ``fault-injected-planner`` (2 x 9 executions plus the replay
  confirmation) — the CI smoke job's workload, reported so the cost of
  running the harness on every push stays in view.
"""

from __future__ import annotations

import time

from repro.testing import (
    RandomStrategy,
    SystematicTester,
    assert_rta_resilient,
    scenario_factory,
)

SWEEP_EXECUTIONS = 128
SWEEP_HORIZON = 1.0
SWEEP_SEED = 11
SWEEP_REPEATS = 3
OVERHEAD_BAR = 1.5
#: Fault windows that never open within the horizon: the plan is wired
#: in but dormant, so the sweep exercises only the no-fault hot path.
DORMANT_WINDOWS = ((100.0, 101.0),)


def _sweep(factory):
    tester = SystematicTester(
        factory,
        RandomStrategy(seed=SWEEP_SEED, max_executions=SWEEP_EXECUTIONS),
        max_permuted=1,
        reuse_instances=True,
    )
    started = time.perf_counter()
    report = tester.explore()
    elapsed = time.perf_counter() - started
    assert report.execution_count == SWEEP_EXECUTIONS
    assert report.ok
    return elapsed, report


def test_dormant_fault_plan_overhead(table_printer):
    """A wired-but-dormant fault plan costs <= 1.5x the plain stack."""
    plain_factory = scenario_factory("drone-surveillance", horizon=SWEEP_HORIZON)
    dormant_factory = scenario_factory(
        "fault-injected-surveillance",
        horizon=SWEEP_HORIZON,
        tracker_windows=DORMANT_WINDOWS,
        position_windows=DORMANT_WINDOWS,
    )
    _sweep(plain_factory)  # warm the per-process world/clearance memos once
    plain = dormant = float("inf")
    plain_report = dormant_report = None
    for _ in range(SWEEP_REPEATS):
        elapsed, plain_report = _sweep(plain_factory)
        plain = min(plain, elapsed)
        elapsed, dormant_report = _sweep(dormant_factory)
        dormant = min(dormant, elapsed)
    # Dormant windows draw no choices: both sweeps run the same trails
    # and step counts — the comparison is plumbing cost only.
    assert [r.steps for r in dormant_report.executions] == [
        r.steps for r in plain_report.executions
    ]
    overhead = dormant / plain
    table_printer(
        f"Fault-plane dormant overhead: {SWEEP_EXECUTIONS}-execution random sweep "
        f"(horizon {SWEEP_HORIZON:.0f} s, windows beyond horizon)",
        ["configuration", "wall time [s]", "executions/s", "relative"],
        [
            ["plain drone-surveillance", f"{plain:.3f}",
             f"{SWEEP_EXECUTIONS / plain:.0f}", "1.00x"],
            ["fault plan wired, dormant", f"{dormant:.3f}",
             f"{SWEEP_EXECUTIONS / dormant:.0f}", f"{overhead:.2f}x"],
        ],
    )
    assert overhead <= OVERHEAD_BAR, (
        f"dormant fault plan costs {overhead:.2f}x the plain stack "
        f"(bar: {OVERHEAD_BAR:.1f}x) — the no-fault path regressed"
    )


def test_resilience_differential_wall_time(table_printer):
    """The full protected/unprotected exhaustive differential stays cheap."""
    protected = scenario_factory("fault-injected-planner", protected=True)
    unprotected = scenario_factory("fault-injected-planner", protected=False)
    started = time.perf_counter()
    report = assert_rta_resilient(protected, unprotected, max_executions=256)
    elapsed = time.perf_counter() - started
    assert report.confirmed
    executions = report.protected.execution_count + report.unprotected.execution_count
    table_printer(
        "RTA resilience differential: exhaustive fault sweep, both stacks",
        ["leg", "executions", "violations"],
        [
            ["protected", report.protected.execution_count,
             report.protected.total_violations],
            ["unprotected", report.unprotected.execution_count,
             len(report.unprotected.failing)],
            [f"  total wall time {elapsed:.2f} s "
             f"({executions / elapsed:.0f} exec/s, replay-confirmed)", "", ""],
        ],
    )
