"""Benchmark: the population execution plane vs the serial reset-reuse sweep.

The population tester answers duplicate trails from its radix trie and
resumes live runs from shared-prefix snapshots, so a random sweep whose
trail space is smaller than its execution budget collapses to a fraction
of the serial engine work.  The snapshot sweep (``drone-surveillance``,
1 s horizon, no schedule permutation, 2048 executions, seed 11) holds the
plane to a machine-relative bar, both sides measured in the same process:
the delta-snapshot path (copy-on-write dirty tracking) must beat the
serial reset-and-reuse sweep by ≥ 8x, with reports and coverage
byte-equal to the serial oracle; a fast wrong answer is worthless.
"""

from __future__ import annotations

import time

from repro.testing import PopulationTester, RandomStrategy, SystematicTester, scenario_factory

SWEEP_EXECUTIONS = 2048
SWEEP_HORIZON = 1.0
SWEEP_SEED = 11
SWEEP_MAX_PERMUTED = 1
SWEEP_REPEATS = 2
DELTA_SPEEDUP_BAR = 8.0


def _factory():
    return scenario_factory("drone-surveillance", horizon=SWEEP_HORIZON)


def _strategy():
    return RandomStrategy(seed=SWEEP_SEED, max_executions=SWEEP_EXECUTIONS)


def _report_keys(tester, report):
    return (
        [
            (
                record.index,
                record.steps,
                tuple(record.trail or ()),
                tuple((v.time, v.monitor, v.message) for v in record.violations),
            )
            for record in report.executions
        ],
        tester.coverage.counts,
    )


def _timed(tester, executions):
    started = time.perf_counter()
    report = tester.explore()
    elapsed = time.perf_counter() - started
    assert report.execution_count == executions
    return elapsed, _report_keys(tester, report)


def _serial_sweep():
    return _timed(
        SystematicTester(
            _factory(), _strategy(), max_permuted=SWEEP_MAX_PERMUTED, reuse_instances=True
        ),
        SWEEP_EXECUTIONS,
    )


def _population_sweep():
    tester = PopulationTester(_factory(), _strategy(), max_permuted=SWEEP_MAX_PERMUTED)
    elapsed, keys = _timed(tester, SWEEP_EXECUTIONS)
    return elapsed, keys, tester.stats


def test_population_sweep_throughput(table_printer):
    """Delta snapshots ≥ 8x serial, identical reports."""
    _serial_sweep()  # warm the per-process world/clearance memos once
    serial_keys = delta_keys = delta_stats = None
    serial = delta = float("inf")
    for _ in range(SWEEP_REPEATS):
        elapsed, serial_keys = _serial_sweep()
        serial = min(serial, elapsed)
        elapsed, delta_keys, delta_stats = _population_sweep()
        delta = min(delta, elapsed)
    assert delta_keys == serial_keys, (
        "delta-snapshot population report/coverage diverged from the serial sweep"
    )
    assert delta_stats.restores > 0 and delta_stats.snapshot_fallbacks == 0
    delta_speedup = serial / delta
    table_printer(
        f"Population plane: {SWEEP_EXECUTIONS}-execution 'drone-surveillance' sweep "
        f"(horizon {SWEEP_HORIZON:.0f} s, max_permuted={SWEEP_MAX_PERMUTED})",
        ["configuration", "wall time [s]", "executions/s", "speedup"],
        [
            ["serial reset-and-reuse", f"{serial:.3f}",
             f"{SWEEP_EXECUTIONS / serial:.0f}", "1.00x"],
            ["population, delta snapshots", f"{delta:.3f}",
             f"{SWEEP_EXECUTIONS / delta:.0f}", f"{delta_speedup:.2f}x"],
            [f"  compacted {delta_stats.compacted}/{delta_stats.executions} rows, "
             f"{delta_stats.restores} restores, "
             f"{delta_stats.snapshot_fallbacks} snapshot fallbacks", "", "", ""],
        ],
    )
    # Machine-relative bar: both sides were measured in this process, so
    # the assertion is meaningful on any hardware.
    assert delta_speedup >= DELTA_SPEEDUP_BAR, (
        f"expected >= {DELTA_SPEEDUP_BAR:.0f}x over the serial reset-reuse sweep, "
        f"measured {delta_speedup:.2f}x ({SWEEP_EXECUTIONS / delta:.0f} exec/s)"
    )

