"""Population-vs-serial equivalence: the lock-step execution plane changes nothing.

:class:`~repro.testing.population.PopulationTester` runs whole populations
of a scenario through one reused instance, compacting duplicate trails and
(optionally) resuming live runs from shared-prefix snapshots.  All of that
is pure mechanics: the report it produces must be *observably identical* to
the serial :class:`~repro.testing.explorer.SystematicTester` — byte-equal
trails, step counts, violation sequences, and coverage — on every
registered scenario, for random and exhaustive strategies, with eager
snapshots and with none.  These tests are the proof the ≥5x speedup claim rides on.
"""

import pytest

from repro.core.node import Node
from repro.testing import (
    ExhaustiveStrategy,
    ParallelTester,
    PopulationTester,
    RandomStrategy,
    SystematicTester,
    scenario_factory,
)
from repro.testing import population as population_module

#: Every registered scenario, with overrides that make violations likely so
#: the equivalence claim covers non-empty violation sequences too (same
#: roster as the reset-reuse differential suite).
SCENARIOS = [
    ("toy-closed-loop", {"broken_ttf": True}),
    ("drone-surveillance", {"include_unsafe_position": True}),
    ("battery-safety-abort", {"include_critical": True}),
    ("faulty-planner", {}),
    ("multi-obstacle-geofence", {"include_breach": True}),
    ("multi-drone-surveillance", {"drones": 2, "include_conflict": True}),
    ("multi-drone-crossing", {}),
    ("rare-branch-geofence", {"include_breach": True}),
    ("deep-menu-surveillance", {"include_unsafe_position": True}),
    ("fault-injected-planner", {"protected": False}),
    ("fault-injected-surveillance", {}),
    # Plant-in-the-loop: both sides integrate through the same scalar
    # plant loop, so these rows check that snapshots and restores rewind
    # the plants, estimators and battery sensors exactly.
    ("plant-surveillance", {"unsafe_start": True}),
    ("plant-surveillance", {"unsafe_start": True, "drones": 2}),
]


def _record_key(record):
    return (
        record.index,
        record.steps,
        tuple(record.trail or ()),
        tuple(
            (violation.time, violation.monitor, violation.message, type(violation.state).__name__)
            for violation in record.violations
        ),
    )


def _report_keys(report):
    return [_record_key(record) for record in report.executions]


#: A ``SNAPSHOT_AFTER`` above any boundary-hit count a sweep here reaches:
#: compact-only mode, trail compaction without a single snapshot.
NEVER_SNAPSHOT = 10**9


def _schedule(monkeypatch, share):
    """Eager snapshots when ``share`` (capture/restore even on short
    sweeps), else compact-only.  Testers read the constants when built."""
    monkeypatch.setattr(population_module, "SNAPSHOT_AFTER", 1 if share else NEVER_SNAPSHOT)
    monkeypatch.setattr(population_module, "SNAPSHOT_MIN_STEPS", 1)


def _check_compact_only(population, share):
    if not share:
        assert population.stats.snapshots_taken == 0
        assert population.stats.restores == 0


#: The equivalence arms: eager snapshots with coverage off and on (the
#: coverage tracker is then a snapshot component too), and compact-only.
ARMS = pytest.mark.parametrize(
    "share,coverage",
    [(True, None), (True, True), (False, None)],
    ids=["shared", "shared-coverage", "compact-only"],
)


def _check_snapshots(population, share):
    """No sweep of a registered scenario falls back to prefix replay."""
    assert population.stats.snapshot_fallbacks == 0
    _check_compact_only(population, share)


class TestPopulationVsSerialEquivalence:
    @ARMS
    @pytest.mark.parametrize(
        "name,overrides",
        SCENARIOS,
        ids=[f"{s[0]}-{s[1]['drones']}d" if "drones" in s[1] else s[0] for s in SCENARIOS],
    )
    def test_random_sweep_identical(self, name, overrides, share, coverage, monkeypatch):
        _schedule(monkeypatch, share)
        factory = scenario_factory(name, **overrides)
        serial = SystematicTester(
            factory, RandomStrategy(seed=3, max_executions=14), track_coverage=coverage
        )
        population = PopulationTester(
            factory, RandomStrategy(seed=3, max_executions=14), track_coverage=coverage
        )
        serial_report = serial.explore()
        population_report = population.explore()
        assert _report_keys(population_report) == _report_keys(serial_report)
        assert population.coverage.counts == serial.coverage.counts
        assert population.stats.executions == 14
        _check_snapshots(population, share)
        # fault-injected-surveillance is safe by construction; the toy
        # scenario only violates under broken_ttf-specific trails.
        if name not in ("toy-closed-loop", "fault-injected-surveillance"):
            assert not population_report.ok

    @ARMS
    @pytest.mark.parametrize(
        "name,overrides",
        SCENARIOS,
        ids=[f"{s[0]}-{s[1]['drones']}d" if "drones" in s[1] else s[0] for s in SCENARIOS],
    )
    def test_exhaustive_enumeration_identical(
        self, name, overrides, share, coverage, monkeypatch
    ):
        _schedule(monkeypatch, share)
        factory = scenario_factory(name, **overrides)
        serial = SystematicTester(
            factory, ExhaustiveStrategy(max_depth=4, max_executions=20), track_coverage=coverage
        )
        population = PopulationTester(
            factory, ExhaustiveStrategy(max_depth=4, max_executions=20), track_coverage=coverage
        )
        assert _report_keys(population.explore()) == _report_keys(serial.explore())
        assert population.coverage.counts == serial.coverage.counts
        _check_snapshots(population, share)

    @pytest.mark.parametrize("coverage", [None, True], ids=["plain", "coverage"])
    @pytest.mark.parametrize(
        "name,overrides",
        SCENARIOS,
        ids=[f"{s[0]}-{s[1]['drones']}d" if "drones" in s[1] else s[0] for s in SCENARIOS],
    )
    def test_every_component_snapshots_through_its_hooks(
        self, name, overrides, coverage, monkeypatch
    ):
        # The hook census: a depth-first enumeration without schedule
        # permutation re-runs deep shared prefixes, so every scenario
        # captures and restores.  A component without hooks (the coverage
        # tracker included, when tracking is on) would show as a fallback.
        _schedule(monkeypatch, share=True)
        factory = scenario_factory(name, **overrides)
        strategy = lambda: ExhaustiveStrategy(max_depth=12, max_executions=16)
        serial = SystematicTester(factory, strategy(), max_permuted=1, track_coverage=coverage)
        population = PopulationTester(
            factory, strategy(), max_permuted=1, track_coverage=coverage
        )
        assert _report_keys(population.explore()) == _report_keys(serial.explore())
        assert population.coverage.counts == serial.coverage.counts
        stats = population.stats
        assert stats.snapshot_fallbacks == 0
        assert stats.snapshots_taken > 0 and stats.restores > 0

    def test_duplicate_trails_are_compacted_not_rerun(self):
        # A short-horizon surveillance sweep with no schedule permutation
        # has a small trail space, so a random sweep repeats trails; every
        # repeat must be answered from the trie without running the engine.
        population = PopulationTester(
            scenario_factory("drone-surveillance", horizon=1.0),
            RandomStrategy(seed=0, max_executions=200),
            max_permuted=1,
        )
        report = population.explore()
        stats = population.stats
        assert stats.executions == 200
        assert stats.compacted > 0
        assert stats.live_runs + stats.compacted == stats.executions
        assert stats.compaction_rate == stats.compacted / 200
        # Compacted rows still materialise full records.
        assert len(report.executions) == 200
        assert all(record.trail is not None for record in report.executions)

    def test_shared_prefixes_restore_snapshots(self, monkeypatch):
        _schedule(monkeypatch, share=True)
        monkeypatch.setattr(population_module, "POPULATION_SIZE", 4)
        population = PopulationTester(
            scenario_factory("drone-surveillance", include_unsafe_position=True),
            RandomStrategy(seed=7, max_executions=40),
            max_permuted=1,
        )
        population.explore()
        stats = population.stats
        assert stats.snapshots_taken > 0
        assert stats.restores > 0
        assert 0 < stats.snapshots_retained <= 4

    @pytest.mark.parametrize("size", [1, 2, 64])
    def test_the_snapshot_bound_changes_no_record(self, size, monkeypatch):
        _schedule(monkeypatch, share=True)
        monkeypatch.setattr(population_module, "POPULATION_SIZE", size)
        factory = scenario_factory("drone-surveillance", include_unsafe_position=True)
        serial = SystematicTester(
            factory, RandomStrategy(seed=7, max_executions=40), max_permuted=1
        )
        population = PopulationTester(
            factory, RandomStrategy(seed=7, max_executions=40), max_permuted=1
        )
        assert _report_keys(population.explore()) == _report_keys(serial.explore())
        # A smaller population retains fewer snapshots and restores less
        # often, but restores still happen and every record is the same.
        assert 0 < population.stats.snapshots_retained <= size
        assert population.stats.restores > 0

    def test_replay_matches_serial_replay(self):
        factory = scenario_factory("drone-surveillance", include_unsafe_position=True)
        serial = SystematicTester(factory, RandomStrategy(seed=5, max_executions=20))
        population = PopulationTester(
            factory, RandomStrategy(seed=5, max_executions=20)
        )
        serial_report = serial.explore()
        population.explore()
        counterexample = serial_report.first_counterexample()
        assert counterexample is not None
        replayed = population.replay(counterexample.trail, index=counterexample.index)
        assert _record_key(replayed) == _record_key(counterexample)
        # The exploration strategy survives the replay untouched.
        assert isinstance(population.strategy, RandomStrategy)

    def test_run_single_matches_serial(self):
        factory = scenario_factory("toy-closed-loop", broken_ttf=True)
        serial = SystematicTester(factory, RandomStrategy(seed=2, max_executions=5))
        population = PopulationTester(factory, RandomStrategy(seed=2, max_executions=5))
        for index in range(5):
            assert _record_key(population.run_single(index)) == _record_key(
                serial.run_single(index)
            )


class _Accumulator(Node):
    """A stateful test-local node with no snapshot hooks.

    It publishes the running sum of the chosen ``x`` values, so every
    later output (and the monitor verdict on it) depends on its history:
    a restore that skipped it would show in the records.
    """

    def __init__(self):
        super().__init__("accumulator", subscribes=("x",), publishes=("total",), period=0.1)
        self.total = 0.0

    def reset(self):
        self.total = 0.0

    def step(self, now, inputs):
        self.total += inputs.get("x") or 0.0
        return {"total": self.total}


class _Unpicklable:
    """A pickle-resistant capture (e.g. a native handle)."""

    def __init__(self, total):
        self.total = total

    def __reduce__(self):
        import pickle

        raise pickle.PicklingError("opaque native handle")


class _CaptureBudget:
    """Shared ledger of a :class:`_BudgetedAccumulator` family."""

    def __init__(self, limit):
        self.limit = limit
        self.captures = 0
        self.exhausted = False
        self.restores_after_exhaustion = 0


class _BudgetedAccumulator(_Accumulator):
    """Hooks whose capture raises from the ``limit + 1``-th call on; a
    restore always succeeds, so earlier snapshots keep restoring."""

    def __init__(self, budget):
        super().__init__()
        self.budget = budget

    def capture_delta_state(self):
        budget = self.budget
        if budget.captures >= budget.limit:
            budget.exhausted = True
            raise RuntimeError("capture budget exhausted")
        budget.captures += 1
        return self.total

    def restore_delta_state(self, state):
        if self.budget.exhausted:
            self.budget.restores_after_exhaustion += 1
        self.total = state


class _HandleAccumulator(_Accumulator):
    """Hooks that capture an unpicklable handle."""

    def capture_delta_state(self):
        return _Unpicklable(self.total)

    def restore_delta_state(self, state):
        self.total = state.total


class TestSnapshotFallback:
    """Snapshots need hooks on every component; without them, prefix replay.

    A component with no ``capture_delta_state``/``restore_delta_state``
    hooks makes the tester compact-only from its first snapshot attempt;
    a hook that raises switches it at that capture.  Either way
    ``PopulationStats.snapshot_fallbacks`` reads 1, and the report and
    coverage stay byte-equal to the serial sweep.
    """

    @staticmethod
    def _factory(accumulator):
        from repro.core.compiler import Program, SoterCompiler
        from repro.core.monitor import MonitorSuite, TopicSafetyMonitor
        from repro.core.specs import SafetySpec
        from repro.core.topics import Topic
        from repro.testing.abstractions import NondeterministicNode
        from repro.testing.explorer import ModelInstance

        def factory():
            chooser = NondeterministicNode("chooser", {"x": [0.0, 1.0]}, period=0.1)
            program = Program(
                name="accumulating",
                topics=[Topic("x", float), Topic("total", float)],
                nodes=[chooser, accumulator()],
            )
            monitor = TopicSafetyMonitor(
                name="phi_total", topic="total",
                spec=SafetySpec("total<6", lambda v: v < 6.0),
            )
            return ModelInstance(
                system=SoterCompiler(strict=False).compile(program).system,
                monitors=MonitorSuite([monitor]),
                environment=None,
                horizon=1.0,
            )

        return factory

    @pytest.fixture(autouse=True)
    def _eager(self, monkeypatch):
        _schedule(monkeypatch, share=True)

    def _sweep(self, accumulator):
        factory = self._factory(accumulator)
        serial = SystematicTester(factory, RandomStrategy(seed=4, max_executions=40))
        population = PopulationTester(factory, RandomStrategy(seed=4, max_executions=40))
        serial_report = serial.explore()
        population_report = population.explore()
        assert _report_keys(population_report) == _report_keys(serial_report)
        assert population.coverage.counts == serial.coverage.counts
        # Violating and safe trails both occur, so the records carry the
        # accumulated state.
        verdicts = {bool(record.violations) for record in serial_report.executions}
        assert verdicts == {True, False}
        return population

    def test_a_component_without_hooks_runs_compact_only_from_the_start(self):
        population = self._sweep(_Accumulator)
        stats = population.stats
        assert stats.snapshots_taken == 0
        assert stats.restores == 0
        assert stats.snapshot_fallbacks == 1

    def test_snapshots_before_a_failed_capture_keep_restoring(self):
        budget = _CaptureBudget(limit=3)
        population = self._sweep(lambda: _BudgetedAccumulator(budget))
        stats = population.stats
        assert budget.exhausted
        assert stats.snapshot_fallbacks == 1
        assert stats.snapshots_taken == 3
        assert budget.restores_after_exhaustion > 0

    def test_a_hook_that_returns_an_unpicklable_handle_costs_nothing(self):
        # Capture never pickles, so the opaque handle costs nothing.
        population = self._sweep(_HandleAccumulator)
        assert population.stats.snapshot_fallbacks == 0
        assert population.stats.restores > 0


class TestCoverageTrackingFlip:
    """A warm tester whose coverage tracking switches on stays serial-exact.

    ``track_coverage=None`` defers to the strategy, so swapping a
    coverage-guided strategy in turns tracking on between sweeps; trails
    recorded with tracking off carry no coverage and were captured before
    the tracker joined the monitor roster.
    """

    @staticmethod
    def _two_sweeps(tester):
        from repro.testing import CoverageGuidedStrategy

        tester.strategy = RandomStrategy(seed=2, max_executions=30)
        first = tester.explore()
        tester.strategy = CoverageGuidedStrategy(seed=5, max_executions=30)
        second = tester.explore()
        return _report_keys(first), _report_keys(second), tester.coverage.counts

    @pytest.mark.parametrize("share", [True, False], ids=["shared", "compact-only"])
    def test_tracking_switch_matches_serial(self, share, monkeypatch):
        _schedule(monkeypatch, share)
        factory = scenario_factory("toy-closed-loop")
        serial = SystematicTester(factory)
        population = PopulationTester(factory)
        expected = self._two_sweeps(serial)
        assert sum(expected[2].values()) > 0
        assert self._two_sweeps(population) == expected
        _check_compact_only(population, share)


#: ``sweep-distinct``-style traffic: schedules permute from the first step,
#: so no two executions share a trail prefix worth keeping.
def _distinct_factory():
    return scenario_factory("drone-surveillance", horizon=2.0)


#: ``sweep-shared``-style traffic: no schedule permutation, short horizon,
#: long shared prefixes from the first executions on.
def _shared_factory():
    return scenario_factory("drone-surveillance", horizon=1.5)


def _route_counts_add_up(stats):
    return stats.live_runs + stats.compacted + stats.serial_runs == stats.executions


class TestSerialRoute:
    """Once a probe window finds no sharing, the trie gives way to the serial loop.

    The first ``SHARING_PROBE`` executions run on the trie; if none
    compacted, restored or took a snapshot, the tester drops the trie and
    runs every later execution through ``SystematicTester.run_single``.
    Either way the report is the serial tester's, record for record.
    """

    DISTINCT = population_module.SHARING_PROBE + 16

    @staticmethod
    def _strategy(kind, seed):
        from repro.testing import CoverageGuidedStrategy

        budget = TestSerialRoute.DISTINCT
        if kind == "random":
            return RandomStrategy(seed=seed, max_executions=budget)
        # Elite mutations replay a trail prefix, which the trie shares;
        # sweep mode alone draws trails as distinct as random ones.
        return CoverageGuidedStrategy(seed=seed, max_executions=budget, mutation_rate=0.0)

    @pytest.mark.parametrize("kind", ["random", "coverage-guided"])
    def test_distinct_sweep_equals_serial_record_for_record(self, kind):
        tracking = kind == "coverage-guided" or None
        serial = SystematicTester(
            _distinct_factory(), self._strategy(kind, 3), track_coverage=tracking
        )
        population = PopulationTester(
            _distinct_factory(), self._strategy(kind, 3), track_coverage=tracking
        )
        serial_report = serial.explore()
        population_report = population.explore()
        assert _report_keys(population_report) == _report_keys(serial_report)
        assert population.coverage.counts == serial.coverage.counts
        if tracking:
            assert sum(serial.coverage.counts.values()) > 0
        stats = population.stats
        probe = population_module.SHARING_PROBE
        assert stats.live_runs == probe
        assert stats.compacted == stats.restores == stats.snapshots_taken == 0
        assert stats.serial_runs == self.DISTINCT - probe
        assert stats.snapshots_retained == 0
        assert _route_counts_add_up(stats)

    def test_shared_sweep_never_takes_the_serial_route(self):
        strategy = lambda: RandomStrategy(seed=7, max_executions=96)
        serial = SystematicTester(_shared_factory(), strategy(), max_permuted=1)
        population = PopulationTester(_shared_factory(), strategy(), max_permuted=1)
        assert _report_keys(population.explore()) == _report_keys(serial.explore())
        stats = population.stats
        assert stats.serial_runs == 0
        assert stats.restores > 0 and stats.snapshots_taken > 0
        assert _route_counts_add_up(stats)

    def test_a_strategy_swap_restarts_the_probe(self):
        probe = population_module.SHARING_PROBE

        def two_sweeps(tester):
            reports = []
            for seed in (1, 2):
                tester.strategy = RandomStrategy(seed=seed, max_executions=probe + 4)
                reports.append(_report_keys(tester.explore()))
            return reports

        population = PopulationTester(_distinct_factory())
        assert two_sweeps(population) == two_sweeps(SystematicTester(_distinct_factory()))
        stats = population.stats
        # Each strategy got its own probe window on a fresh trie, then 4
        # serial-route executions.
        assert (stats.live_runs, stats.serial_runs) == (2 * probe, 8)
        assert _route_counts_add_up(stats)


class TestReplayLeavesTheTrieAlone:
    """A replay runs on the serial route: the trie, its snapshots and the
    probe survive it, and the next sweep still shares."""

    def test_replay_then_sweep_still_shares_and_equals_serial(self, monkeypatch):
        _schedule(monkeypatch, share=True)
        factory = scenario_factory("drone-surveillance", include_unsafe_position=True)
        serial = SystematicTester(factory, max_permuted=1, track_coverage=True)
        population = PopulationTester(factory, max_permuted=1, track_coverage=True)
        sweeps = {}
        for tester in (serial, population):
            tester.strategy = RandomStrategy(seed=7, max_executions=64)
            first = tester.explore()
            counterexample = first.first_counterexample()
            assert counterexample is not None
            replayed = tester.replay(counterexample.trail, index=counterexample.index)
            assert _record_key(replayed) == _record_key(counterexample)
            if tester is population:
                stats = population.stats
                retained = stats.snapshots_retained
                assert retained > 0
                counters = dict(vars(stats))
            tester.strategy = RandomStrategy(seed=8, max_executions=64)
            second = tester.explore()
            sweeps[tester] = (_report_keys(first), _report_keys(second), tester.coverage.counts)
        assert sweeps[population] == sweeps[serial]
        stats = population.stats
        # The replay touched no counter and dropped no snapshot; the second
        # sweep reused the first one's trie.
        assert counters["executions"] == 64
        assert stats.executions == 128
        assert stats.snapshots_retained >= retained
        assert stats.compacted > counters["compacted"]
        assert stats.restores > counters["restores"]
        assert stats.serial_runs == 0


class TestPopulationValidation:
    def test_population_size_must_be_positive(self, monkeypatch):
        monkeypatch.setattr(population_module, "POPULATION_SIZE", 0)
        with pytest.raises(ValueError, match="POPULATION_SIZE"):
            PopulationTester(scenario_factory("toy-closed-loop"))

    def test_constants_are_read_when_the_tester_is_built(self, monkeypatch):
        monkeypatch.setattr(population_module, "SNAPSHOT_AFTER", 5)
        monkeypatch.setattr(population_module, "SNAPSHOT_MIN_STEPS", 2)
        monkeypatch.setattr(population_module, "DELTA_CHAIN_LIMIT", 4)
        monkeypatch.setattr(population_module, "POPULATION_SIZE", 7)
        tester = PopulationTester(scenario_factory("toy-closed-loop"))
        monkeypatch.setattr(population_module, "SNAPSHOT_AFTER", 1)
        monkeypatch.setattr(population_module, "POPULATION_SIZE", 1)
        assert (tester._snapshot_after, tester._snapshot_min_steps,
                tester._delta_chain_limit, tester._effective_after,
                tester._max_snapshots) == (5, 2, 4, 5, 7)


class TestPopulationVsPool:
    """The in-process population plane equals the pool, whose workers run
    the serial tester on shards of the same sweep."""

    def test_random_sweep_matches_pool_shards(self):
        pool = ParallelTester(
            scenario="multi-obstacle-geofence",
            scenario_overrides={"include_breach": True},
            strategy=RandomStrategy(seed=9, max_executions=12),
            workers=2,
        ).explore()
        population = PopulationTester(
            scenario_factory("multi-obstacle-geofence", include_breach=True),
            RandomStrategy(seed=9, max_executions=12),
        ).explore()
        assert _report_keys(population) == _report_keys(pool)
        assert pool.all_confirmed and not population.ok

    def test_exhaustive_enumeration_matches_pool_shards(self):
        pool = ParallelTester(
            scenario="toy-closed-loop",
            scenario_overrides={"broken_ttf": True},
            strategy=ExhaustiveStrategy(max_depth=3, max_executions=40),
            workers=2,
        ).explore()
        population = PopulationTester(
            scenario_factory("toy-closed-loop", broken_ttf=True),
            ExhaustiveStrategy(max_depth=3, max_executions=40),
        ).explore()
        assert _report_keys(population) == _report_keys(pool)
