"""Swarm vs. process pool — distribution overhead and fidelity.

The swarm runs the exact shard descriptions the in-host
:class:`~repro.testing.ParallelTester` ships to its process pool, but
over an HTTP control plane with heartbeats, results streamed in
windows and idempotent ingestion.  This benchmark measures what that
buys and costs on one host:

* the same ``drone-surveillance`` random sweep through the pool and
  through a localhost 2-drone swarm — wall time, executions/s, and the
  swarm's protocol overhead factor (expected: same order of magnitude;
  a drone posts its results in windows of up to 16 executions), and
  the serial :class:`~repro.testing.SystematicTester` on the same sweep
  as the single-core reference (reported, not asserted);
* fidelity on the unsafe variant — the swarm's counterexamples replay
  on the serial engine and its report matches the pool's exactly.
"""

from __future__ import annotations

import time

from repro.swarm import SwarmTester
from repro.testing import ParallelTester, RandomStrategy, SystematicTester, scenario_factory

SCENARIO = "drone-surveillance"
HORIZON = 2.0
EXECUTIONS = 200
SEED = 11


def _pool_sweep(**extra_overrides):
    tester = ParallelTester(
        SCENARIO,
        scenario_overrides={"horizon": HORIZON, **extra_overrides},
        strategy=RandomStrategy(seed=SEED, max_executions=EXECUTIONS),
        workers=2,
        track_coverage=True,
    )
    started = time.perf_counter()
    report = tester.explore(confirm_counterexamples=False)
    return report, time.perf_counter() - started


def _swarm_sweep(**extra_overrides):
    tester = SwarmTester(
        SCENARIO,
        scenario_overrides={"horizon": HORIZON, **extra_overrides},
        strategy=RandomStrategy(seed=SEED, max_executions=EXECUTIONS),
        drones=2,
        track_coverage=True,
    )
    started = time.perf_counter()
    report = tester.explore(confirm_counterexamples=False)
    return report, time.perf_counter() - started


def _serial_sweep():
    tester = SystematicTester(
        scenario_factory(SCENARIO, horizon=HORIZON),
        RandomStrategy(seed=SEED, max_executions=EXECUTIONS),
        track_coverage=True,
    )
    started = time.perf_counter()
    report = tester.explore()
    return report, time.perf_counter() - started


def test_swarm_throughput_vs_pool(table_printer):
    pool, pool_s = _pool_sweep()
    swarm, swarm_s = _swarm_sweep()
    serial, serial_s = _serial_sweep()
    table_printer(
        f"Swarm vs pool: {EXECUTIONS}-execution random sweep of '{SCENARIO}'",
        ["configuration", "wall time [s]", "executions/s", "ratio"],
        [
            ["ParallelTester, 2 workers", f"{pool_s:.2f}", f"{EXECUTIONS / pool_s:.0f}",
             "1.00x pool"],
            ["SwarmTester, 2 localhost drones", f"{swarm_s:.2f}",
             f"{EXECUTIONS / swarm_s:.0f}", f"{swarm_s / pool_s:.2f}x pool"],
            ["SystematicTester, serial", f"{serial_s:.2f}", f"{EXECUTIONS / serial_s:.0f}",
             f"{serial_s / pool_s:.2f}x pool"],
            ["swarm / serial", "", "", f"{swarm_s / serial_s:.2f}x"],
        ],
    )
    # Fidelity is the point; speed parity is reported, not asserted.
    assert sorted(tuple(r.trail) for r in swarm.executions) == \
        sorted(tuple(r.trail) for r in pool.executions)
    assert swarm.coverage.counts == pool.coverage.counts == serial.coverage.counts
    assert swarm.duplicates == 0


def test_swarm_counterexample_fidelity(table_printer):
    tester = SwarmTester(
        SCENARIO,
        scenario_overrides={"horizon": HORIZON, "include_unsafe_position": True},
        strategy=RandomStrategy(seed=SEED, max_executions=64),
        drones=2,
    )
    report = tester.explore(confirm_counterexamples=True)
    confirmed = sum(1 for confirmation in report.confirmations if confirmation.confirmed)
    table_printer(
        "Swarm counterexample fidelity: drone-found trails replayed serially",
        ["counterexamples found", "replayed", "confirmed identical", "duplicates dropped"],
        [[len(report.failing), len(report.confirmations), confirmed, report.duplicates]],
    )
    assert not report.ok, "the unsafe scenario variant must yield counterexamples"
    assert report.all_confirmed, "every swarm counterexample must replay serially"
