"""Differential tests of the calendar's firing plan against its dict path.

Under the perfect policy the calendar answers ``next_due`` from a table
of ``(time, due tuple)`` entries and moves a cursor once per instant.
The dict path (one nominal and one effective time per node) stays the
oracle: every test here compares the plan with it using ``==``, so a
float that drifts by one ulp, a due set in another order, a snapshot
that misses the cursor or a version that does not move fails loudly.
"""

import random

import pytest

import repro.core.calendar as calendar_module
from repro.core import Calendar, FunctionNode, Program, SimulationError, SoterCompiler
from repro.core.semantics import SemanticsEngine
from repro.runtime import JitteryOSScheduler, PerfectScheduler

EPS = 1e-9
SURVEILLANCE_PERIODS = (0.05, 0.05, 0.1, 0.5, 0.5, 0.2)


def _node(name, period, offset=0.0):
    return FunctionNode(name, lambda now, inputs: {}, period=period, offset=offset)


def _nodes(spec):
    return [_node(f"n{i}", period, offset) for i, (period, offset) in enumerate(spec)]


def _dict_sequence(nodes, steps):
    """The dict path's ``(time, due)`` sequence, written out longhand.

    The same arithmetic as ``Calendar.next_due`` + ``Calendar.reschedule``
    under the perfect policy: the minimum over insertion order, the due
    names within 1e-9 of it in insertion order, and ``nominal + period``
    with the catch-up loop against the instant just fired.
    """
    nominal = {node.name: node.offset for node in nodes}
    periods = {node.name: node.period for node in nodes}
    sequence = []
    for _ in range(steps):
        earliest = min(nominal.values())
        due = tuple(name for name, t in nominal.items() if t <= earliest + EPS)
        sequence.append((earliest, due))
        for name in due:
            value = nominal[name] + periods[name]
            while value < earliest - EPS:
                value += periods[name]
            nominal[name] = value
    return sequence


def _walk_plan(calendar, steps, rng=None):
    """Drive a calendar the way the engine does under the perfect policy."""
    sequence = []
    for _ in range(steps):
        time, due = calendar.next_due()
        sequence.append((time, tuple(due)))
        fired = list(due)
        if rng is not None:
            rng.shuffle(fired)
        calendar.advance(fired, time)
    return sequence


def _walk_dict(calendar, steps):
    """Drive a calendar through ``reschedule`` alone (the dict path)."""
    sequence = []
    for _ in range(steps):
        time, due = calendar.next_due()
        sequence.append((time, tuple(due)))
        for name in due:
            calendar.reschedule(name, jitter=0.0, not_before=time)
    return sequence


def _off_plan(nodes):
    calendar = Calendar(nodes)
    calendar.due_nodes(0.0)
    assert not calendar.on_plan
    return calendar


def _random_spec(rng):
    """Periods and offsets mixing the awkward floats the plan must reproduce."""
    spec = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        if kind < 0.35:
            period = rng.choice(SURVEILLANCE_PERIODS)
        elif kind < 0.5:
            period = rng.choice((1.0 / 3.0, 2.0 / 3.0, 0.1 / 3.0))
        elif kind < 0.75:
            period = round(rng.uniform(0.01, 0.7), 3)
        else:
            period = rng.uniform(0.01, 0.7)
        offset = rng.choice((0.0, 0.0, round(rng.uniform(0.0, 0.3), 2), rng.uniform(0.0, 0.3)))
        spec.append((period, offset))
    if len(spec) >= 2 and rng.random() < 0.5:
        # Two activations within the 1e-9 due window of each other.
        period, offset = spec[0]
        spec[1] = (period, offset + rng.choice((3e-10, 9e-10, 1e-9)))
    return spec


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setattr(calendar_module, "_PLAN_CAP", 700)
    return 700


class TestPlanMatchesDictPath:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_period_sets_match_past_the_cap(self, seed, small_cap):
        rng = random.Random(seed)
        nodes = _nodes(_random_spec(rng))
        steps = 2200
        expected = _dict_sequence(nodes, steps)
        plan = Calendar(nodes)
        got = _walk_plan(plan, small_cap, rng)
        assert plan.on_plan
        got += _walk_plan(plan, steps - small_cap, rng)
        assert not plan.on_plan
        assert got == expected
        assert _walk_dict(_off_plan(nodes), steps) == expected

    def test_surveillance_periods_reach_the_accumulated_float(self):
        nodes = _nodes([(period, 0.0) for period in SURVEILLANCE_PERIODS])
        expected = _dict_sequence(nodes, 400)
        got = _walk_plan(Calendar(nodes), 400)
        assert got == expected
        # Only the ``+=`` chain reaches this instant; ``k * period`` gives 0.5.
        assert 0.49999999999999994 in [time for time, _ in got]

    def test_due_order_is_insertion_order(self):
        nodes = [_node("late", 0.2), _node("early", 0.1), _node("mid", 0.2, offset=1e-10)]
        plan = Calendar(nodes)
        assert plan.next_due() == (0.0, ("late", "early", "mid"))

    def test_reset_returns_to_position_zero_and_keeps_the_plan(self):
        nodes = _nodes([(0.05, 0.0), (0.2, 0.01), (1.0 / 3.0, 0.0)])
        plan = Calendar(nodes)
        first = _walk_plan(plan, 300)
        plan.due_nodes(first[-1][0])
        assert not plan.on_plan
        plan.reset()
        assert plan.on_plan
        assert _walk_plan(plan, 300) == first == _dict_sequence(nodes, 300)

    def test_next_time_and_next_due_agree_on_the_plan(self):
        plan = Calendar(_nodes([(0.05, 0.0), (0.2, 0.03)]))
        for _ in range(50):
            time = plan.next_time()
            assert plan.next_due()[0] == time
            plan.advance(plan.next_due()[1], time)
        assert plan.on_plan

    def test_empty_calendar_is_never_on_the_plan(self):
        calendar = Calendar([])
        assert not calendar.on_plan
        assert calendar.next_due() is None
        calendar.reset()
        assert calendar.next_time() is None


class TestPlanSnapshots:
    @pytest.mark.parametrize("seed", range(6))
    def test_restore_at_a_random_cursor_continues_identically(self, seed):
        rng = random.Random(100 + seed)
        nodes = _nodes(_random_spec(rng))
        plan = Calendar(nodes)
        _walk_plan(plan, rng.randint(0, 400), rng)
        mark = plan.capture_delta_state()
        assert isinstance(mark, int)
        version = plan.delta_version
        ahead = _walk_plan(plan, 250, rng)
        assert plan.delta_version != version
        plan.restore_delta_state(mark)
        assert plan.on_plan
        assert _walk_plan(plan, 250, rng) == ahead

    def test_every_advance_bumps_the_version(self):
        plan = Calendar(_nodes([(0.1, 0.0), (0.3, 0.0)]))
        seen = {plan.delta_version}
        for _ in range(40):
            time, due = plan.next_due()
            plan.advance(due, time)
            assert plan.delta_version not in seen
            seen.add(plan.delta_version)

    @pytest.mark.parametrize("seed", range(4))
    def test_restoring_dict_state_leaves_the_plan(self, seed):
        rng = random.Random(200 + seed)
        nodes = _nodes(_random_spec(rng))
        steps = rng.randint(1, 300)
        oracle = _off_plan(nodes)
        _walk_dict(oracle, steps)
        state = oracle.capture_delta_state()
        assert isinstance(state, tuple)
        plan = Calendar(nodes)
        _walk_plan(plan, 17)
        plan.restore_delta_state(state)
        assert not plan.on_plan
        assert _walk_plan(plan, 200) == _walk_dict(oracle, 200)
        assert plan.capture_delta_state() == oracle.capture_delta_state()

    def test_a_cursor_puts_an_off_plan_calendar_back(self):
        nodes = _nodes([(0.05, 0.0), (0.5, 0.0), (0.2, 0.0)])
        plan = Calendar(nodes)
        _walk_plan(plan, 33)
        mark = plan.capture_delta_state()
        ahead = _walk_plan(plan, 100)
        plan.reschedule("n0")
        assert not plan.on_plan
        plan.restore_delta_state(mark)
        assert plan.on_plan
        assert _walk_plan(plan, 100) == ahead

    def test_leaving_the_plan_rebuilds_both_time_tables(self):
        nodes = _nodes([(0.05, 0.0), (1.0 / 3.0, 0.02), (0.2, 0.0)])
        plan = Calendar(nodes)
        oracle = _off_plan(nodes)
        _walk_plan(plan, 123)
        _walk_dict(oracle, 123)
        plan.nominal_time_of("n0")
        assert plan.capture_delta_state() == oracle.capture_delta_state()


def _trigger_apply_jitter(calendar, time, due):
    calendar.apply_jitter(due[0], 0.013)


def _trigger_reschedule(calendar, time, due):
    calendar.reschedule(due[-1], jitter=0.004, not_before=time)


def _trigger_nominal_time_of(calendar, time, due):
    return calendar.nominal_time_of(due[0])


def _trigger_effective_time_of(calendar, time, due):
    return calendar.effective_time_of(due[0])


def _trigger_due_nodes(calendar, time, due):
    return calendar.due_nodes(time)


def _trigger_entries_until(calendar, time, due):
    return calendar.entries_until(time + 1.0)


def _trigger_add_node(calendar, time, due):
    calendar.add_node(_node("added", 0.15, offset=0.07))


def _trigger_partial_fired_set(calendar, time, due):
    _fire(calendar, list(due)[:-1], time)


def _trigger_repeated_fired_set(calendar, time, due):
    # As many names as the due set, one of them twice.
    fired = list(due)[:-1] + [due[0]] if len(due) > 1 else [due[0], due[0]]
    _fire(calendar, fired, time)


def _trigger_current_time_ahead(calendar, time, due):
    _fire(calendar, list(due), time + 0.37)


def _fire(calendar, fired, now):
    # The plan calendar takes the engine's perfect-policy call; the oracle
    # takes the per-node reschedules the parent engine made.
    if calendar.on_plan:
        calendar.advance(fired, now)
    else:
        for name in fired:
            calendar.reschedule(name, jitter=0.0, not_before=now)


TRIGGERS = [
    _trigger_apply_jitter,
    _trigger_reschedule,
    _trigger_nominal_time_of,
    _trigger_effective_time_of,
    _trigger_due_nodes,
    _trigger_entries_until,
    _trigger_add_node,
    _trigger_partial_fired_set,
    _trigger_repeated_fired_set,
    _trigger_current_time_ahead,
]


class TestOffPlanTriggers:
    @pytest.mark.parametrize("trigger", TRIGGERS, ids=lambda f: f.__name__[len("_trigger_"):])
    @pytest.mark.parametrize("steps", [0, 1, 57, 311])
    def test_trigger_continues_as_the_dict_path(self, trigger, steps):
        nodes = _nodes([(0.05, 0.0), (0.1, 0.0), (0.2, 0.0), (0.5, 0.0), (1.0 / 3.0, 0.01)])
        plan = Calendar(nodes)
        oracle = _off_plan(nodes)
        assert _walk_plan(plan, steps) == _walk_dict(oracle, steps)
        time, due = plan.next_due()
        oracle_time, oracle_due = oracle.next_due()
        assert (time, tuple(due)) == (oracle_time, tuple(oracle_due))
        assert trigger(plan, time, tuple(due)) == trigger(oracle, time, tuple(due))
        assert not plan.on_plan
        assert plan.capture_delta_state() == oracle.capture_delta_state()
        assert _walk_plan(plan, 300) == _walk_dict(oracle, 300)
        assert plan.capture_delta_state() == oracle.capture_delta_state()

    def test_reset_after_add_node_plans_the_new_node_set(self):
        nodes = _nodes([(0.05, 0.0), (0.2, 0.0)])
        plan = Calendar(nodes)
        _walk_plan(plan, 40)
        extra = _node("added", 0.15, offset=0.07)
        plan.add_node(extra)
        plan.reset()
        assert plan.on_plan
        assert _walk_plan(plan, 200) == _dict_sequence(nodes + [extra], 200)

    def test_the_cap_leaves_the_plan_at_its_frontier(self, small_cap):
        nodes = _nodes([(0.05, 0.0), (0.2, 0.0), (1.0 / 3.0, 0.0)])
        plan = Calendar(nodes)
        oracle = _off_plan(nodes)
        assert _walk_plan(plan, small_cap) == _walk_dict(oracle, small_cap)
        assert plan.on_plan
        assert plan.next_time() == oracle.next_time()
        assert not plan.on_plan
        assert plan.capture_delta_state() == oracle.capture_delta_state()


class _ZeroJitterPolicy:
    """Releases every firing on time through the engine's per-firing path."""

    def release_jitter(self, node, nominal_time):
        return 0.0

    def drops_execution(self, node, nominal_time):
        return False


def _surveillance_system():
    import repro.apps.scenarios  # noqa: F401  (registers the scenarios)
    from repro.testing.scenarios import scenario_factory

    return scenario_factory("drone-surveillance")().system


def _run(engine, steps):
    return [engine.step() for _ in range(steps)]


class TestEngineOnThePlan:
    def test_perfect_scheduler_stays_on_the_plan(self):
        system = _surveillance_system()
        default = SemanticsEngine(system)
        expected = _run(default, 120)
        assert default.calendar.on_plan
        engine = SemanticsEngine(system, scheduler=PerfectScheduler())
        assert _run(engine, 120) == expected
        assert engine.calendar.on_plan

    def test_engine_matches_the_dict_path_engine(self):
        system = _surveillance_system()
        oracle = SemanticsEngine(system, scheduler=_ZeroJitterPolicy())
        expected = _run(oracle, 200)
        assert not oracle.calendar.on_plan
        oracle_state = (dict(oracle.board.values), dict(oracle.stats.__dict__), oracle.current_time)
        engine = SemanticsEngine(system)
        got = _run(engine, 200)
        assert engine.calendar.on_plan
        assert got == expected
        assert (dict(engine.board.values), dict(engine.stats.__dict__), engine.current_time) == oracle_state

    def test_run_until_stays_on_the_plan(self):
        system = _surveillance_system()
        engine = SemanticsEngine(system)
        engine.run_until(3.0)
        assert engine.calendar.on_plan
        firings = engine.stats.node_firings
        oracle = SemanticsEngine(system, scheduler=_ZeroJitterPolicy())
        oracle.run_until(3.0)
        assert oracle.stats.node_firings == firings
        assert oracle.current_time == engine.current_time

    def test_jitter_policy_runs_on_the_dict_path(self):
        system = _surveillance_system()
        first = SemanticsEngine(system, scheduler=JitteryOSScheduler(max_jitter=0.01, drop_rate=0.05, seed=9))
        expected = _run(first, 150)
        assert not first.calendar.on_plan
        second = SemanticsEngine(system, scheduler=JitteryOSScheduler(max_jitter=0.01, drop_rate=0.05, seed=9))
        second.calendar.due_nodes(0.0)
        assert _run(second, 150) == expected

    def test_start_time_ahead_of_the_plan_leaves_it(self):
        nodes = [_node("a", 0.1), _node("b", 0.25, offset=0.05)]
        system = SoterCompiler().compile(Program(name="p", topics=[], nodes=nodes)).system
        engine = SemanticsEngine(system, start_time=0.3)
        oracle = SemanticsEngine(system, scheduler=_ZeroJitterPolicy(), start_time=0.3)
        for eng in (engine, oracle):
            pending = eng.calendar.next_due()
            eng._fire_ordered(list(pending[1]))
        assert not engine.calendar.on_plan
        assert engine.calendar.capture_delta_state() == oracle.calendar.capture_delta_state()
        with pytest.raises(SimulationError):
            engine.step()


class TestFireDueNodesValidation:
    def test_a_repeated_node_is_rejected(self):
        engine = SemanticsEngine(_surveillance_system())
        time, due = engine.calendar.next_due()
        engine.current_time = time
        with pytest.raises(SimulationError):
            engine.fire_due_nodes(due, order=list(due) + [due[-1]])
        assert engine.stats.node_firings == 0

    def test_a_missing_node_is_rejected(self):
        engine = SemanticsEngine(_surveillance_system())
        time, due = engine.calendar.next_due()
        with pytest.raises(SimulationError):
            engine.fire_due_nodes(due, order=list(due)[:-1])
        with pytest.raises(SimulationError):
            engine.fire_due_nodes(due, order=list(due)[:-1] + [due[0]])

    def test_a_permutation_fires_and_stays_on_the_plan(self):
        engine = SemanticsEngine(_surveillance_system())
        time, due = engine.calendar.next_due()
        engine.current_time = time
        fired = engine.fire_due_nodes(due, order=list(reversed(due)))
        assert fired == list(reversed(due))
        assert engine.calendar.on_plan
        assert engine.calendar.next_time() > time
