"""End-to-end equivalence of the batched/cached safety-query plane.

Routing the stack's clearance checks through the ClearanceField memo
changes *nothing* about what the systematic tester observes — same
violations, same times, same trails.
"""

from repro.apps.scenarios import _shared_world
from repro.testing import RandomStrategy, SystematicTester, scenario_factory


def _report_key(report):
    return [
        (
            record.index,
            record.steps,
            tuple((v.time, v.monitor, v.message) for v in record.violations),
            tuple(record.trail or ()),
        )
        for record in report.executions
    ]


def _sweep(executions=40, *, use_query_cache=True, unsafe=True, seed=11):
    factory = scenario_factory(
        "drone-surveillance",
        horizon=2.0,
        include_unsafe_position=unsafe,
        use_query_cache=use_query_cache,
    )
    tester = SystematicTester(
        factory,
        strategy=RandomStrategy(seed=seed, max_executions=executions),
    )
    return tester.explore()


class TestQueryPlaneEquivalence:
    def test_cached_plane_reproduces_uncached_reports(self):
        cached = _sweep(use_query_cache=True)
        uncached = _sweep(use_query_cache=False)
        assert _report_key(cached) == _report_key(uncached)
        assert not cached.ok  # the unsafe variant must produce violations

    def test_geofence_breach_is_found(self):
        factory = scenario_factory("multi-obstacle-geofence", include_breach=True)
        report = SystematicTester(
            factory, strategy=RandomStrategy(seed=5, max_executions=24)
        ).explore()
        assert not report.ok


class TestWarmOracle:
    def test_scenario_builders_share_one_world(self):
        factory = scenario_factory("drone-surveillance", horizon=1.0)
        first = factory()
        second = factory()
        assert first is not second  # fresh model per execution...
        world = _shared_world()
        assert world is _shared_world()  # ...but one immutable world per process

    def test_clearance_field_cache_warms_across_executions(self):
        # Since the dense whole-workspace grid (ClearanceField.densify),
        # the shared oracle is pre-warmed at world build: in-grid queries
        # are array lookups, and only off-grid cells touch the lazy dict.
        world = _shared_world()
        field = world.workspace.clearance_field()
        assert field.dense_cells > 0, "the shared world densifies its field"
        before_hits = field.stats.dense_hits
        _sweep(executions=4, unsafe=False)
        assert field.stats.dense_hits > before_hits, (
            "explored executions must hit the shared dense grid"
        )
        lazy_before = len(field)
        _sweep(executions=4, unsafe=False)
        # Re-running the same workload stays on the precomputed cells.
        assert len(field) == lazy_before

    def test_disabled_cache_builds_private_world(self):
        factory = scenario_factory("drone-surveillance", horizon=1.0, use_query_cache=False)
        instance = factory()
        assert instance.system is not None
