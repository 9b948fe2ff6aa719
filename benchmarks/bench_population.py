"""Benchmark: the population execution plane vs the serial reset-reuse sweep.

The population tester answers duplicate trails from its radix trie and
resumes live runs from shared-prefix snapshots, so a random sweep whose
trail space is smaller than its execution budget collapses to a fraction
of the serial engine work.  Two benchmarks hold the plane to explicit,
machine-relative bars (both sides always measured in the same process):

* **snapshot sweep** (``drone-surveillance``, 1 s horizon, no schedule
  permutation, 2048 executions, seed 11) — the delta-snapshot path
  (copy-on-write dirty tracking) must beat the serial reset-and-reuse
  sweep by ≥ 8x, with reports and coverage byte-equal to the serial
  oracle; a fast wrong answer is worthless;
* **vectorized sweep** (``plant-surveillance``, 12 vehicles, unsafe
  start) — the row-group matrix plant (one ``apply_window`` per sampling
  window across the fleet) must beat the scalar per-plant loop inside
  the same population tester, again with identical reports.  The scalar
  side raises the row-count gate ``BATCH_PLANT_MIN_ROWS`` above the
  fleet size; the bar is the median of the per-pair ratios over
  alternating same-process pairs.
"""

from __future__ import annotations

import statistics
import time
from unittest import mock

from repro.simulation import plantenv
from repro.testing import PopulationTester, RandomStrategy, SystematicTester, scenario_factory

SWEEP_EXECUTIONS = 2048
SWEEP_HORIZON = 1.0
SWEEP_SEED = 11
SWEEP_MAX_PERMUTED = 1
SWEEP_REPEATS = 2
DELTA_SPEEDUP_BAR = 8.0

VEC_DRONES = 12
VEC_EXECUTIONS = 48
VEC_SEED = 4
VEC_PAIRS = 7
VEC_SPEEDUP_BAR = 1.1


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


def _vectorized_sweep(matrix_plant):
    # The row-count gate is the only selector: lifting it above the fleet
    # size keeps the scalar per-plant loop inside the same tester.
    gate = plantenv.BATCH_PLANT_MIN_ROWS if matrix_plant else VEC_DRONES + 1
    tester = PopulationTester(
        scenario_factory(
            "plant-surveillance", drones=VEC_DRONES, unsafe_start=True
        ),
        RandomStrategy(seed=VEC_SEED, max_executions=VEC_EXECUTIONS),
        max_permuted=1,
    )
    with mock.patch.object(plantenv, "BATCH_PLANT_MIN_ROWS", gate):
        elapsed, keys = _timed(tester, VEC_EXECUTIONS)
    return elapsed, keys, tester.stats


def test_vectorized_plant_sweep(table_printer):
    """The (K,…) matrix plant beats the scalar loop at fleet scale."""
    _vectorized_sweep(True)  # warm the shared-world memos once
    batch_times, scalar_times, ratios = [], [], []
    batch_keys = scalar_keys = batch_stats = None
    for pair in range(VEC_PAIRS):
        # Alternate which side runs first so drift in host speed cancels.
        timings = {}
        for matrix_plant in ((True, False) if pair % 2 == 0 else (False, True)):
            elapsed, keys, stats = _vectorized_sweep(matrix_plant)
            timings[matrix_plant] = elapsed
            if matrix_plant:
                batch_keys, batch_stats = keys, stats
            else:
                scalar_keys = keys
        assert batch_keys == scalar_keys, (
            "row-group matrix plant diverged from the scalar per-plant loop"
        )
        batch_times.append(timings[True])
        scalar_times.append(timings[False])
        ratios.append(timings[False] / timings[True])
    assert batch_stats.executions == VEC_EXECUTIONS
    speedup = statistics.median(ratios)
    batch = statistics.median(batch_times)
    scalar = statistics.median(scalar_times)
    table_printer(
        f"Vectorized live rows: {VEC_EXECUTIONS}-execution 'plant-surveillance' sweep "
        f"({VEC_DRONES} vehicles, unsafe start; medians over {VEC_PAIRS} pairs)",
        ["integration path", "wall time [s]", "executions/s", "speedup"],
        [
            ["scalar per-plant loop", f"{scalar:.3f}",
             f"{VEC_EXECUTIONS / scalar:.0f}", "1.00x"],
            [f"row-group matrix plant (K={VEC_DRONES})", f"{batch:.3f}",
             f"{VEC_EXECUTIONS / batch:.0f}", f"{speedup:.2f}x"],
            ["  per-pair ratios: " + ", ".join(f"{r:.2f}x" for r in ratios), "", "", ""],
        ],
    )
    assert speedup >= VEC_SPEEDUP_BAR, (
        f"expected the matrix plant >= {VEC_SPEEDUP_BAR:.2f}x over the scalar "
        f"loop at {VEC_DRONES} vehicles, measured a median per-pair ratio of "
        f"{speedup:.2f}x ({', '.join(f'{r:.2f}' for r in ratios)})"
    )
