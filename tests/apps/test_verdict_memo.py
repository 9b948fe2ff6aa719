"""The per-state verdict memo of the drone safety predicates.

On the cached query plane every drone safety predicate (the module's
φ_obs, φ_safer and ``ttf_2Δ``, the φ_obs monitor and φ_Inv's
``may_leave``) judges a state object once; the decision module, the
monitors and the coverage plane share the verdict.  These tests pin the
contract: the memoized predicates answer exactly what the scalar
``use_query_cache=False`` oracles answer, a workspace mutation forces a
recompute, every model instance owns its memos, and concurrent testers on
the shared world still reproduce their serial reports.
"""

import random
import sys
import threading

import repro.testing.coverage as coverage
from repro.apps.scenarios import _shared_world
from repro.apps.stack import StackConfig, build_discrete_model
from repro.apps.topics import POSITION_TOPIC
from repro.core.decision import DecisionModule
from repro.core.monitor import InvariantMonitor, TopicSafetyMonitor
from repro.dynamics import DroneState
from repro.geometry import AABB, Vec3, Workspace, state_memo
from repro.simulation.world import surveillance_city
from repro.testing import RandomStrategy, SystematicTester, scenario_factory


def _predicates(system, monitors):
    """The five drone safety predicates of one model, by name."""
    (module,) = system.modules
    spec = module.spec
    (phi_obs,) = [m for m in monitors.monitors if isinstance(m, TopicSafetyMonitor)]
    (phi_inv,) = [m for m in monitors.monitors if isinstance(m, InvariantMonitor)]
    return {
        "phi_safe": spec.safe_spec.predicate,
        "phi_safer": spec.safer_spec.predicate,
        "ttf": spec.ttf,
        "phi_obs_monitor": phi_obs.spec.predicate,
        "may_leave": phi_inv.may_leave_within,
    }


def _instance_predicates(instance):
    return _predicates(instance.system, instance.monitors)


def _query_sequence(instance, count=200, seed=3):
    """~``count`` sampled states plus the menu states, repeated and interleaved."""
    rng = random.Random(seed)
    bounds = _shared_world().workspace.bounds
    states = []
    for _ in range(count):
        position = Vec3(
            rng.uniform(bounds.lo.x, bounds.hi.x),
            rng.uniform(bounds.lo.y, bounds.hi.y),
            rng.uniform(bounds.lo.z, bounds.hi.z),
        )
        velocity = Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-1, 1))
        state = DroneState(position=position, velocity=velocity)
        states.extend([state, state])  # the repeat is what the memo serves
    menu = instance.environment.menus[POSITION_TOPIC]
    for index in (0, 0, 1, 0, 2, 2, 1, 1, 0, 2, 0, 1):
        states.append(menu[index])
    return states


HORIZONS = (0.1, 0.2, 0.5, 1.0, 2.0)


def test_memoized_predicates_equal_the_scalar_oracles():
    cached = scenario_factory("drone-surveillance", horizon=2.0, include_unsafe_position=True)()
    uncached = scenario_factory(
        "drone-surveillance", horizon=2.0, include_unsafe_position=True, use_query_cache=False
    )()
    memoized, oracle = _instance_predicates(cached), _instance_predicates(uncached)
    assert memoized["ttf"] is not oracle["ttf"]
    verdicts = {name: set() for name in memoized}
    horizon_split = 0
    for state in _query_sequence(cached):
        for name in ("phi_safe", "phi_safer", "ttf", "phi_obs_monitor"):
            verdict = memoized[name](state)
            assert verdict == oracle[name](state), (name, state)
            verdicts[name].add(verdict)
        # Varied horizons on the same state object, back to back: the
        # horizon is part of the memo key.
        leaves = []
        for horizon in HORIZONS + HORIZONS[::-1]:
            verdict = memoized["may_leave"](state, horizon)
            assert verdict == oracle["may_leave"](state, horizon), (state, horizon)
            leaves.append(verdict)
        verdicts["may_leave"].update(leaves)
        horizon_split += len(set(leaves)) > 1
    # The sample exercises both verdicts of every predicate, and states
    # whose φ_Inv verdict depends on the horizon.
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts
    assert horizon_split > 0


def test_add_obstacle_forces_a_recompute_on_the_same_state():
    world = surveillance_city()  # private: the shared world must stay immutable
    model = build_discrete_model(
        StackConfig(world=world, planner="straight", protect_battery=False)
    )
    predicates = _predicates(model.system, model.monitors)
    state = DroneState(position=world.surveillance_points[0])
    before = {
        "phi_safe": predicates["phi_safe"](state),
        "phi_safer": predicates["phi_safer"](state),
        "ttf": predicates["ttf"](state),
        "phi_obs_monitor": predicates["phi_obs_monitor"](state),
        "may_leave": predicates["may_leave"](state, 0.2),
    }
    assert before == {
        "phi_safe": True,
        "phi_safer": True,
        "ttf": False,
        "phi_obs_monitor": True,
        "may_leave": False,
    }
    world.workspace.add_obstacle(AABB.from_center_size(state.position, Vec3(1.0, 1.0, 1.0)))
    after = {
        "phi_safe": predicates["phi_safe"](state),
        "phi_safer": predicates["phi_safer"](state),
        "ttf": predicates["ttf"](state),
        "phi_obs_monitor": predicates["phi_obs_monitor"](state),
        "may_leave": predicates["may_leave"](state, 0.2),
    }
    assert after == {
        "phi_safe": False,
        "phi_safer": False,
        "ttf": True,
        "phi_obs_monitor": False,
        "may_leave": True,
    }


def test_scalar_path_has_no_memo(monkeypatch):
    uncached = scenario_factory("drone-surveillance", horizon=1.0, use_query_cache=False)()
    calls = []
    clearance = Workspace.clearance

    def counting_clearance(self, point):
        calls.append(point)
        return clearance(self, point)

    monkeypatch.setattr(Workspace, "clearance", counting_clearance)
    state = uncached.environment.menus[POSITION_TOPIC][0]
    for name, predicate in _instance_predicates(uncached).items():
        args = (0.2,) if name == "may_leave" else ()
        for repeat in (1, 2):
            predicate(state, *args)
            assert len(calls) == repeat, name  # every repeat asks the oracle again
        calls.clear()


class TestCoverageReuse:
    def test_classification_reuses_the_judged_verdicts(self, monkeypatch):
        field = _shared_world().workspace.clearance_field()
        judged = {}
        decide = DecisionModule.decide

        def recording_decide(self, state):
            judged["state"] = state
            return decide(self, state)

        classify = coverage.classify_region
        repeats = []
        previous = {}

        def measured_classify(spec, state):
            judged["spec"] = spec
            queries = field.stats.queries
            region = classify(spec, state)
            if state is judged.get("state") and state is previous.get("state"):
                repeats.append(field.stats.queries - queries)
            previous["state"] = state
            return region

        monkeypatch.setattr(DecisionModule, "decide", recording_decide)
        monkeypatch.setattr(coverage, "classify_region", measured_classify)
        tester = SystematicTester(
            scenario_factory("drone-surveillance", horizon=2.0),
            strategy=RandomStrategy(seed=11, max_executions=8),
            track_coverage=True,
        )
        report = tester.explore()
        assert report.ok and report.coverage.counts
        # Every sample of a state the DM just judged again costs nothing:
        # the DM, the monitors and the previous sample left all three
        # verdicts in the memo.
        assert repeats and set(repeats) == {0}
        # So does classifying the execution's last judged state once more.
        queries = field.stats.queries
        classify(judged["spec"], judged["state"])
        assert field.stats.queries == queries

    def test_instances_keep_independent_memos(self):
        factory = scenario_factory("drone-surveillance", horizon=1.0)
        first, second = _instance_predicates(factory()), _instance_predicates(factory())
        field = _shared_world().workspace.clearance_field()
        a = DroneState(position=Vec3(10.0, 11.0, 2.0))
        b = DroneState(position=Vec3(12.0, 13.0, 2.0))
        for name in ("phi_safe", "phi_safer", "ttf", "phi_obs_monitor"):
            assert first[name] is not second[name]
            first[name](a)
            second[name](b)  # must not evict the first instance's entry
            queries = field.stats.queries
            first[name](a)
            assert field.stats.queries == queries, name

    def test_threaded_testers_on_the_shared_world_match_serial(self):
        def explore(seed):
            return SystematicTester(
                scenario_factory("drone-surveillance", horizon=2.0, include_unsafe_position=True),
                strategy=RandomStrategy(seed=seed, max_executions=24),
                track_coverage=True,
            ).explore()

        def key(report):
            return (
                [
                    (
                        record.steps,
                        tuple((v.time, v.monitor, v.message) for v in record.violations),
                        tuple(record.trail or ()),
                    )
                    for record in report.executions
                ],
                report.coverage.counts,
            )

        seeds = (5, 6, 7)  # more threads than the 2-CPU reference host has cores
        serial = [key(explore(seed)) for seed in seeds]
        threaded = [None] * len(seeds)

        def run(slot, seed):
            threaded[slot] = key(explore(seed))

        threads = [threading.Thread(target=run, args=(slot, seed)) for slot, seed in enumerate(seeds)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so the sweeps interleave
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial


def test_a_shared_memo_never_pairs_one_state_with_another_verdict():
    """Even a memo shared across threads answers each caller's own state.

    The entry is one tuple swapped in a single statement; a memo kept in
    two fields could hand one thread's state the other thread's verdict.
    """
    workspace = _shared_world().workspace
    states = [Vec3(float(x), 0.0, 0.0) for x in range(-4, 5)]
    memoized = state_memo(workspace, lambda point, offset: point.x + offset > 0.0)
    mismatches = []

    def hammer(worker):
        for round_ in range(40000):
            point = states[(worker + round_) % len(states)]
            offset = 0.5 * (round_ % 3)
            if memoized(point, offset) != (point.x + offset > 0.0):
                mismatches.append((point, offset))

    threads = [threading.Thread(target=hammer, args=(worker,)) for worker in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
