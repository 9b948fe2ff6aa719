"""The mode/region coverage plane: map laws, tracking, guidance, sharding.

Covers the four claims the coverage plane makes:

* :class:`CoverageMap` merging is associative, commutative and
  order-independent (what lets the parallel tester aggregate shard maps
  in completion order), and maps are picklable;
* the :class:`CoverageTracker` rides the per-step monitor path and never
  perturbs violations;
* :class:`CoverageGuidedStrategy` is deterministic in its seed, its
  recorded trails replay bit-identically, and it actually covers the
  coverage-hostile scenarios;
* a parallel random sweep's merged coverage equals the serial sweep's
  map exactly.
"""

import pickle
import random

import pytest

from repro.core.decision import Mode
from repro.core.regions import Region
from repro.testing import (
    CoverageGuidedStrategy,
    CoverageMap,
    CoverageTracker,
    ParallelTester,
    RandomStrategy,
    SystematicTester,
    build_scenario,
    merge_maps,
    scenario_factory,
    vehicle_label,
)

MODES = [mode.value for mode in Mode]
REGIONS = [region.value for region in Region]


def _random_map(rng: random.Random, entries: int = 12) -> CoverageMap:
    cm = CoverageMap()
    for _ in range(entries):
        cm.record(
            rng.choice(["drone0/MP", "drone1/MP", "BatterySafety"]),
            rng.choice(MODES),
            rng.choice(REGIONS),
            count=rng.randrange(1, 5),
        )
    return cm


class TestCoverageMapLaws:
    def test_merge_is_commutative(self):
        rng = random.Random(7)
        a, b = _random_map(rng), _random_map(rng)
        assert a.copy().merge(b).counts == b.copy().merge(a).counts

    def test_merge_is_associative(self):
        rng = random.Random(8)
        a, b, c = (_random_map(rng) for _ in range(3))
        left = a.copy().merge(b).merge(c)
        right = a.copy().merge(b.copy().merge(c))
        assert left.counts == right.counts

    def test_merge_is_order_independent_over_many_maps(self):
        rng = random.Random(9)
        maps = [_random_map(rng) for _ in range(6)]
        forward = merge_maps(maps)
        backward = merge_maps(reversed(maps))
        shuffled = list(maps)
        rng.shuffle(shuffled)
        assert forward.counts == backward.counts == merge_maps(shuffled).counts
        assert forward.total_samples == sum(m.total_samples for m in maps)

    def test_merge_skips_none_and_identity(self):
        rng = random.Random(10)
        a = _random_map(rng)
        assert merge_maps([None, a, None]).counts == a.counts
        assert a.copy().merge(CoverageMap()).counts == a.counts

    def test_copy_is_independent(self):
        a = CoverageMap()
        a.record("v", "AC", "R4:nominal")
        b = a.copy()
        b.record("v", "SC", "R1:unsafe")
        assert len(a) == 1 and len(b) == 2

    def test_novelty_and_pairs(self):
        cm = CoverageMap()
        key = ("v", "AC", "R4:nominal")
        assert cm.novelty(key) == 1.0
        cm.record(*key, count=3)
        assert cm.novelty(key) == 0.25
        assert cm.pairs == {key}
        assert cm.new_pairs_against(CoverageMap()) == {key}
        assert CoverageMap().new_pairs_against(cm) == set()

    def test_picklable(self):
        rng = random.Random(11)
        a = _random_map(rng)
        clone = pickle.loads(pickle.dumps(a))
        assert clone.counts == a.counts

    def test_table_renders_counts(self):
        cm = CoverageMap()
        assert "no samples" in cm.table()
        cm.record("toyRover", "SC", "R5:safer", count=4)
        text = cm.table()
        assert "toyRover" in text and "R5:safer" in text and "4" in text

    def test_vehicle_label(self):
        assert vehicle_label("drone2/SafeMotionPrimitive") == "drone2"
        assert vehicle_label("SafeMotionPrimitive") == "SafeMotionPrimitive"


class TestCoverageTracker:
    def test_tracker_records_well_formed_keys(self):
        tester = SystematicTester(
            scenario_factory("toy-closed-loop"),
            RandomStrategy(seed=0, max_executions=5),
            track_coverage=True,
        )
        report = tester.explore()
        assert report.coverage
        for vehicle, mode, region in report.coverage.pairs:
            assert vehicle == "toyRover"
            assert mode in MODES
            assert region in REGIONS

    def test_tracker_never_reports_violations(self):
        instance = build_scenario("toy-closed-loop")
        tracker = CoverageTracker(instance.system)
        assert tracker.result.ok
        assert tracker.tracks_anything

    def test_coverage_off_by_default_and_costless(self):
        tester = SystematicTester(
            scenario_factory("toy-closed-loop"), RandomStrategy(seed=0, max_executions=3)
        )
        report = tester.explore()
        assert not report.coverage
        assert not tester.track_coverage

    def test_tracking_does_not_change_verdicts(self):
        reports = {}
        for tracked in (False, True):
            tester = SystematicTester(
                scenario_factory("toy-closed-loop", broken_ttf=True),
                RandomStrategy(seed=2, max_executions=8),
                track_coverage=tracked,
            )
            reports[tracked] = tester.explore()
        keyed = [
            [
                (record.steps, tuple(record.trail or ()), len(record.violations))
                for record in report.executions
            ]
            for report in reports.values()
        ]
        assert keyed[0] == keyed[1]

    def test_fresh_and_reused_instances_same_coverage(self):
        reports = {}
        for reuse in (False, True):
            tester = SystematicTester(
                scenario_factory("rare-branch-geofence"),
                RandomStrategy(seed=1, max_executions=6),
                reuse_instances=reuse,
                track_coverage=True,
            )
            reports[reuse] = tester.explore()
        assert reports[True].coverage.counts == reports[False].coverage.counts

    def test_summary_mentions_coverage(self):
        tester = SystematicTester(
            scenario_factory("toy-closed-loop"),
            RandomStrategy(seed=0, max_executions=3),
            track_coverage=True,
        )
        assert "pair(s) covered" in tester.explore().summary()


class TestCoverageGuidedStrategy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CoverageGuidedStrategy(max_executions=0)
        with pytest.raises(ValueError):
            CoverageGuidedStrategy(epsilon=1.5)

    def test_protocol_surface(self):
        strategy = CoverageGuidedStrategy(seed=0, max_executions=2)
        assert strategy.has_more_executions()
        assert strategy.execution_started()
        assert not strategy.is_exhausted
        assert strategy.execution_started()
        assert not strategy.has_more_executions()

    def test_deterministic_in_seed(self):
        def sweep():
            tester = SystematicTester(
                scenario_factory("rare-branch-geofence"),
                CoverageGuidedStrategy(seed=5, max_executions=10),
            )
            report = tester.explore()
            return (
                [tuple(record.trail or ()) for record in report.executions],
                report.coverage.counts,
            )

        assert sweep() == sweep()

    def test_auto_enables_tracking(self):
        tester = SystematicTester(
            scenario_factory("toy-closed-loop"), CoverageGuidedStrategy(max_executions=3)
        )
        assert tester.track_coverage
        assert tester.explore().coverage

    def test_trail_replays_bit_identically(self):
        tester = SystematicTester(
            scenario_factory("deep-menu-surveillance", include_unsafe_position=True),
            CoverageGuidedStrategy(seed=0, max_executions=60),
        )
        report = tester.explore(stop_at_first_violation=True)
        counterexample = report.first_counterexample()
        assert counterexample is not None
        replayed = tester.replay(counterexample.trail, counterexample.index)
        assert replayed.steps == counterexample.steps
        assert replayed.trail == counterexample.trail
        assert [
            (violation.time, violation.monitor, violation.message)
            for violation in replayed.violations
        ] == [
            (violation.time, violation.monitor, violation.message)
            for violation in counterexample.violations
        ]

    def test_covers_the_hostile_scenario(self):
        # Both modules (motion primitive + battery) and both modes must be
        # reached within a menu-sweep-sized budget; uniform random has a
        # coupon-collector tail here (see bench_coverage_guided.py).
        tester = SystematicTester(
            scenario_factory("deep-menu-surveillance"),
            CoverageGuidedStrategy(seed=0, max_executions=48),
        )
        report = tester.explore()
        pairs = report.coverage.pairs
        vehicles = {vehicle for vehicle, _, _ in pairs}
        assert vehicles == {"SafeMotionPrimitive", "BatterySafety"}
        assert {mode for _, mode, _ in pairs} == set(MODES)
        assert len(pairs) == 12

    @pytest.mark.parametrize(
        "strategy_factory,tracking",
        [
            (lambda: CoverageGuidedStrategy(seed=1, max_executions=4), None),
            (lambda: RandomStrategy(seed=1, max_executions=4), True),
        ],
        ids=["auto-tracking", "explicit-tracking"],
    )
    def test_replay_does_not_pollute_cumulative_coverage(self, strategy_factory, tracking):
        # The published report.coverage is the tester's own map; a later
        # replay must not double-count samples into it, whether tracking
        # was strategy-driven or explicitly requested.
        tester = SystematicTester(
            scenario_factory("toy-closed-loop"),
            strategy_factory(),
            track_coverage=tracking,
        )
        report = tester.explore()
        before = report.coverage.total_samples
        assert before > 0
        tester.replay(report.executions[0].trail or [])
        assert tester.coverage.total_samples == before
        assert report.coverage.total_samples == before
        assert tester.track_coverage if tracking else True  # option restored


class TestParallelCoverage:
    def test_parallel_random_coverage_equals_serial(self):
        serial = SystematicTester(
            scenario_factory("toy-closed-loop", broken_ttf=True),
            RandomStrategy(seed=4, max_executions=10),
            track_coverage=True,
        ).explore()
        parallel = ParallelTester(
            "toy-closed-loop",
            scenario_overrides={"broken_ttf": True},
            strategy=RandomStrategy(seed=4, max_executions=10),
            workers=3,
            track_coverage=True,
        ).explore()
        assert parallel.coverage.counts == serial.coverage.counts

    def test_parallel_exhaustive_merges_worker_maps(self):
        from repro.testing import ExhaustiveStrategy

        report = ParallelTester(
            "toy-closed-loop",
            strategy=ExhaustiveStrategy(max_depth=3, max_executions=30),
            workers=2,
            track_coverage=True,
        ).explore()
        assert report.coverage
        assert {vehicle for vehicle, _, _ in report.coverage.pairs} == {"toyRover"}

    def test_parallel_coverage_off_by_default(self):
        report = ParallelTester(
            "toy-closed-loop",
            strategy=RandomStrategy(seed=0, max_executions=4),
            workers=2,
        ).explore()
        assert not report.coverage
