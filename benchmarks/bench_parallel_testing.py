"""Parallel vs. serial systematic testing — wall-clock speedup and fidelity.

The paper's backend systematic testing engine explores discrete executions
of the RTA model; our :class:`~repro.testing.ParallelTester` shards that
exploration across worker processes.  This benchmark runs the same
random-strategy sweep of the ``drone-surveillance`` scenario serially and
at 1/2/4 workers and reports the wall-clock speedup, then sweeps the
unsafe variant and replays every parallel-found counterexample on the
serial engine to confirm it reproduces the same violation.

Expectations:

* at 4 workers the sweep is at least 2x faster than the serial
  :class:`~repro.testing.SystematicTester` (asserted when the machine
  actually has >= 4 CPUs — a 1-core container cannot speed up CPU-bound
  work, so there the numbers are only reported);
* every counterexample found in parallel replays to the same violation
  set serially (asserted unconditionally).
"""

from __future__ import annotations

import os
import time

from repro.testing import ParallelTester, RandomStrategy, SystematicTester, scenario_factory

SCENARIO = "drone-surveillance"
HORIZON = 2.0
EXECUTIONS = 300
SEED = 11


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _serial_sweep() -> float:
    tester = SystematicTester(
        scenario_factory(SCENARIO, horizon=HORIZON),
        strategy=RandomStrategy(seed=SEED, max_executions=EXECUTIONS),
    )
    started = time.perf_counter()
    report = tester.explore()
    elapsed = time.perf_counter() - started
    assert report.execution_count == EXECUTIONS
    return elapsed


def _parallel_sweep(workers: int) -> float:
    tester = ParallelTester(
        SCENARIO,
        scenario_overrides={"horizon": HORIZON},
        strategy=RandomStrategy(seed=SEED, max_executions=EXECUTIONS),
        workers=workers,
    )
    report = tester.explore(confirm_counterexamples=False)
    assert report.execution_count == EXECUTIONS
    return report.wall_time


def test_parallel_random_sweep_speedup(table_printer):
    serial = _serial_sweep()
    scaled = {workers: _parallel_sweep(workers) for workers in (1, 2, 4)}
    table_printer(
        f"Parallel systematic testing: {EXECUTIONS}-execution random sweep of '{SCENARIO}'",
        ["configuration", "wall time [s]", "speedup", "executions/s"],
        [["serial SystematicTester", f"{serial:.2f}", "1.00x", f"{EXECUTIONS / serial:.0f}"]]
        + [
            [
                f"ParallelTester, {workers} worker(s)",
                f"{elapsed:.2f}",
                f"{serial / elapsed:.2f}x",
                f"{EXECUTIONS / elapsed:.0f}",
            ]
            for workers, elapsed in sorted(scaled.items())
        ],
    )
    speedup_at_4 = serial / scaled[4]
    if _cpus() >= 4:
        assert speedup_at_4 >= 2.0, (
            f"expected >=2x speedup at 4 workers, measured {speedup_at_4:.2f}x"
        )
    else:
        print(
            f"only {_cpus()} CPU(s) available - speedup assertion skipped "
            f"(measured {speedup_at_4:.2f}x at 4 workers)"
        )


def test_parallel_counterexamples_replay_serially(table_printer):
    tester = ParallelTester(
        SCENARIO,
        scenario_overrides={"horizon": HORIZON, "include_unsafe_position": True},
        strategy=RandomStrategy(seed=SEED, max_executions=64),
        workers=4,
    )
    report = tester.explore(confirm_counterexamples=True)
    confirmed = sum(1 for confirmation in report.confirmations if confirmation.confirmed)
    table_printer(
        "Counterexample fidelity: parallel-found trails replayed on the serial engine",
        ["counterexamples found", "replayed", "confirmed identical"],
        [[len(report.failing), len(report.confirmations), confirmed]],
    )
    assert not report.ok, "the unsafe scenario variant must yield counterexamples"
    assert report.all_confirmed, "every parallel counterexample must replay serially"
