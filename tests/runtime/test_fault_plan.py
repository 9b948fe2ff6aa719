"""The strategy-driven fault plane: plans, injectors, the topic gate, the façade.

Covers the contracts the exploration stack relies on:

* :class:`FaultWindow`/:class:`FaultSite`/:class:`FaultPlan` validation and
  the wire round trip (including the list form the swarm's JSON transport
  produces);
* :class:`ChoiceFaultInjector` step semantics per kind — option 0 is
  always "no fault", CRASH is crash-and-*restart* (the inner node is
  ``reset()`` on revival), SUBSTITUTE swaps builder-supplied payloads,
  DROP does not refresh the value a later STUCK window replays, and the
  value faults (BIAS/NOISE/INVERT) perturb control commands only;
* :class:`TopicFaultGate` admit/advance semantics (DROP blacks out,
  STUCK swallows, DELAY buffers until due);
* :class:`FaultPlane` adoption, strategy binding and reset determinism.
"""

import pytest

from repro.core import ConstantNode, FunctionNode, Program, SoterCompiler, Topic
from repro.core.topics import TopicBoard, TopicRegistry
from repro.dynamics import ControlCommand
from repro.geometry import Vec3
from repro.runtime import (
    NODE_FAULT_KINDS,
    TOPIC_FAULT_KINDS,
    ChoiceFaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlane,
    FaultSite,
    FaultWindow,
    TopicFaultGate,
)
from repro.testing import ReplayStrategy


class ScriptedStrategy:
    """Replays a fixed list of choices and records the labels it saw."""

    def __init__(self, choices):
        self.choices = list(choices)
        self.labels = []
        self._cursor = 0

    def choose(self, options, label=None):
        self.labels.append(label)
        if self._cursor >= len(self.choices):
            return 0
        value = self.choices[self._cursor]
        self._cursor += 1
        assert 0 <= value < options
        return value


def _command_node():
    return ConstantNode(
        "controller", {"cmd": ControlCommand(acceleration=Vec3(1.0, 0.0, 0.0))}, period=0.1
    )


def _node_site(kinds=("drop", "stuck"), windows=((0.0, 1.0),), **kw):
    return FaultSite(kinds=kinds, windows=windows, node="controller.faultable", **kw)


class TestFaultPlanModel:
    def test_window_is_half_open_and_validated(self):
        window = FaultWindow(0.5, 1.0)
        assert window.contains(0.5)
        assert window.contains(0.999)
        assert not window.contains(1.0)
        assert not window.contains(0.499)
        with pytest.raises(ValueError):
            FaultWindow(1.0, 1.0)

    def test_site_validation(self):
        with pytest.raises(ValueError):  # must target exactly one surface
            FaultSite(kinds=("drop",), windows=((0.0, 1.0),))
        with pytest.raises(ValueError):
            FaultSite(kinds=("drop",), windows=((0.0, 1.0),), node="n", topic="t")
        with pytest.raises(ValueError):  # DELAY is topic-only
            FaultSite(kinds=("delay",), windows=((0.0, 1.0),), node="n")
        with pytest.raises(ValueError):  # CRASH is node-only
            FaultSite(kinds=("crash",), windows=((0.0, 1.0),), topic="t")
        with pytest.raises(ValueError):  # windows must not overlap
            FaultSite(kinds=("drop",), windows=((0.0, 1.0), (0.5, 2.0)), node="n")
        with pytest.raises(ValueError):  # windows must be present
            FaultSite(kinds=("drop",), windows=(), node="n")

    def test_kind_partition_covers_every_kind(self):
        assert NODE_FAULT_KINDS | TOPIC_FAULT_KINDS == frozenset(FaultKind)

    def test_site_options_and_name(self):
        site = _node_site(kinds=("drop", "stuck", "crash"))
        assert site.options() == 4  # option 0 = no fault
        assert site.name == "node:controller.faultable"
        topic_site = FaultSite(kinds=("delay",), windows=((0.0, 1.0),), topic="pos")
        assert topic_site.name == "topic:pos"

    def test_plan_rejects_duplicate_site_names(self):
        site = _node_site()
        with pytest.raises(ValueError):
            FaultPlan(sites=(site, _node_site(kinds=("crash",))))

    def test_wire_round_trip_including_json_list_form(self):
        import json

        plan = FaultPlan(
            sites=(
                _node_site(kinds=("drop", "crash"), windows=((0.0, 0.5), (0.5, 1.5))),
                FaultSite(
                    kinds=("delay",), windows=((0.25, 0.75),), topic="pos", delay=0.1, seed=3
                ),
            )
        )
        encoded = plan.encode()
        assert FaultPlan.decode(encoded) == plan
        assert FaultPlan.coerce(encoded) == plan
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(None) is None
        # The swarm transport turns tuples into JSON lists; decode accepts them.
        listified = json.loads(json.dumps(encoded))
        assert FaultPlan.coerce(listified) == plan
        assert hash(FaultPlan.coerce(listified)) == hash(plan)

    @pytest.mark.parametrize(
        "bad_site",
        [
            None,
            5,
            ("node", "n", ("drop",), ((0.0, 1.0),), 1.0, 0.2),  # 6 fields
            ("node", "n", ("drop",), ((0.0, 1.0),), "big", 0.2, 0),  # magnitude
            ("node", "n", ("zap",), ((0.0, 1.0),), 1.0, 0.2, 0),  # unknown kind
            ("wire", "n", ("drop",), ((0.0, 1.0),), 1.0, 0.2, 0),  # unknown surface
            ("node", "n", ("drop",), ((0.0,),), 1.0, 0.2, 0),  # half a window
        ],
    )
    def test_malformed_wire_forms_raise_one_clear_error(self, bad_site):
        with pytest.raises(ValueError, match="malformed fault site"):
            FaultSite.decode(bad_site)
        with pytest.raises(ValueError, match="malformed fault site"):
            FaultPlan.coerce([bad_site])

    @pytest.mark.parametrize("bad_plan", [5, 2.5, True])
    def test_a_plan_that_is_not_a_sequence_is_malformed(self, bad_plan):
        with pytest.raises(ValueError, match="malformed fault plan"):
            FaultPlan.coerce(bad_plan)

    def test_site_coerce_accepts_a_site_its_wire_form_or_none(self):
        site = _node_site()
        assert FaultSite.coerce(site) is site
        assert FaultSite.coerce(site.encode()) == site
        assert FaultSite.coerce(None) is None

    def test_plan_site_partitions(self):
        node_site = _node_site()
        topic_site = FaultSite(kinds=("drop",), windows=((0.0, 1.0),), topic="pos")
        plan = FaultPlan(sites=(node_site, topic_site))
        assert plan.node_sites() == (node_site,)
        assert plan.topic_sites() == (topic_site,)
        assert plan.site_for_node("controller.faultable") is node_site
        assert plan.site_for_node("missing") is None


class TestChoiceFaultInjector:
    def test_option_zero_is_no_fault_and_unbound_degrades_fault_free(self):
        injector = ChoiceFaultInjector(_command_node(), _node_site())
        out = injector.step(0.0, {})  # no strategy bound: degrades to option 0
        assert out["cmd"].acceleration.x == pytest.approx(1.0)
        assert injector.injected_faults == 0

        injector.reset()
        injector.bind_strategy(ScriptedStrategy([0]))
        assert injector.step(0.0, {})["cmd"].acceleration.x == pytest.approx(1.0)
        assert injector.injected_faults == 0

    def test_choice_labels_are_per_window_and_drawn_once(self):
        site = _node_site(windows=((0.0, 0.5), (0.5, 1.0)))
        injector = ChoiceFaultInjector(_command_node(), site)
        strategy = ScriptedStrategy([1, 2])
        injector.bind_strategy(strategy)
        assert injector.step(0.0, {}) == {}  # DROP in window 0
        assert injector.step(0.1, {}) == {}  # cached: no new draw
        injector.step(0.5, {})  # STUCK in window 1
        assert strategy.labels == [
            "fault:node:controller.faultable:w0",
            "fault:node:controller.faultable:w1",
        ]

    def test_drop_then_stuck_interplay(self):
        # DROP must not refresh _last_outputs, so a later STUCK window
        # replays the last *delivered* output.
        site = _node_site(windows=((0.5, 1.0), (1.0, 1.5)))
        injector = ChoiceFaultInjector(_command_node(), site)
        injector.bind_strategy(ScriptedStrategy([1, 2]))  # w0 DROP, w1 STUCK
        healthy = injector.step(0.0, {})
        assert injector.step(0.5, {}) == {}
        assert injector.step(1.0, {}) == healthy

    def test_crash_is_crash_and_restart(self):
        class CountingNode(ConstantNode):
            def __init__(self):
                super().__init__("counter", {"ticks": 0}, period=0.1)
                self.steps = 0
                self.resets = 0

            def step(self, now, inputs):
                self.steps += 1
                return {"ticks": self.steps}

            def reset(self):
                self.resets += 1
                self.steps = 0

        inner = CountingNode()
        site = FaultSite(kinds=("crash",), windows=((0.2, 0.4),), node="counter.faultable")
        injector = ChoiceFaultInjector(inner, site)
        injector.bind_strategy(ScriptedStrategy([1]))
        assert injector.step(0.0, {})["ticks"] == 1
        assert injector.step(0.1, {})["ticks"] == 2
        assert injector.step(0.2, {}) == {}  # crashed: inner not stepped
        assert injector.step(0.3, {}) == {}
        assert inner.steps == 2
        revived = injector.step(0.4, {})  # restart: inner reset, then stepped
        assert inner.resets == 1
        assert revived["ticks"] == 1  # boot state, not a resume

    def test_substitute_swaps_payload_and_requires_mapping(self):
        site = FaultSite(
            kinds=("substitute",), windows=((0.0, 1.0),), node="controller.faultable"
        )
        with pytest.raises(ValueError):
            ChoiceFaultInjector(_command_node(), site)
        bad = ControlCommand(acceleration=Vec3(9.0, 9.0, 0.0))
        injector = ChoiceFaultInjector(_command_node(), site, substitutes={"cmd": bad})
        injector.bind_strategy(ScriptedStrategy([1]))
        assert injector.step(0.0, {})["cmd"] is bad

    def test_rejects_topic_site(self):
        with pytest.raises(ValueError):
            ChoiceFaultInjector(
                _command_node(),
                FaultSite(kinds=("drop",), windows=((0.0, 1.0),), topic="cmd"),
            )

    def test_reset_restores_bit_identical_noise_stream(self):
        site = FaultSite(
            kinds=("noise",), windows=((0.0, 1.0),), node="controller.faultable", seed=11
        )
        injector = ChoiceFaultInjector(_command_node(), site)

        def run():
            injector.reset()
            injector.bind_strategy(ScriptedStrategy([1]))
            return [injector.step(t / 10.0, {})["cmd"].acceleration for t in range(5)]

        first, second = run(), run()
        assert all(a.almost_equal(b) for a, b in zip(first, second))


def _faulting(kind, inner=None, windows=((0.0, 1.0),), **site_kw):
    """An injector over ``inner`` whose first window fires ``kind``,
    decided by replaying option 1 of the site's menu."""
    site = _node_site(kinds=(kind,), windows=windows, **site_kw)
    injector = ChoiceFaultInjector(inner or _command_node(), site)
    injector.bind_strategy(ReplayStrategy(trail=[1]))
    return injector


class TestValueFaults:
    @pytest.mark.parametrize(
        "kind, expected",
        [("bias", Vec3(3.0, 0.0, 0.0)), ("invert", Vec3(-1.0, 0.0, 0.0))],
    )
    def test_bias_adds_magnitude_and_invert_negates(self, kind, expected):
        injector = _faulting(kind, magnitude=2.0)
        command = injector.step(0.0, {})["cmd"]
        assert command.acceleration.almost_equal(expected)
        assert injector.injected_faults == 1

    def test_noise_is_bounded_by_the_magnitude(self):
        injector = _faulting("noise", magnitude=0.5, seed=7)
        for tick in range(10):
            acceleration = injector.step(tick / 10.0, {})["cmd"].acceleration
            assert abs(acceleration.x - 1.0) <= 0.5
            assert abs(acceleration.y) <= 0.5
            assert abs(acceleration.z) <= 0.5 * 0.2
        assert injector.injected_faults == 10

    @pytest.mark.parametrize("kind", ["bias", "noise", "invert"])
    def test_value_faults_leave_non_commands_untouched(self, kind):
        injector = _faulting(kind, inner=ConstantNode("n", {"data": 42}, period=0.1))
        assert injector.step(0.0, {})["data"] == 42
        assert injector.injected_faults == 1  # counted, value untouched

    @pytest.mark.parametrize("kind", ["drop", "bias"])
    def test_only_the_decided_window_faults(self, kind):
        injector = _faulting(kind, windows=((0.5, 1.0),), magnitude=2.0)
        healthy = injector.step(0.0, {})
        assert healthy["cmd"].acceleration.x == pytest.approx(1.0)
        assert injector.step(0.5, {}) != healthy
        assert injector.step(1.0, {}) == healthy  # [start, end): over at 1.0
        assert injector.injected_faults == 1

        declined = _node_site(kinds=(kind,), windows=((0.5, 1.0),))
        injector = ChoiceFaultInjector(_command_node(), declined)
        injector.bind_strategy(ReplayStrategy(trail=[0]))  # option 0: no fault
        assert injector.step(0.5, {}) == healthy
        assert injector.injected_faults == 0

    @pytest.mark.parametrize(
        "rename, expected", [(None, "controller.faultable"), ("controller.bad", "controller.bad")]
    )
    def test_injector_keeps_the_node_interface_and_honours_rename(self, rename, expected):
        inner = FunctionNode(
            "controller",
            lambda now, inputs: {"cmd": inputs.get("pos")},
            subscribes=("pos",),
            publishes=("cmd",),
            period=0.2,
            offset=0.05,
        )
        injector = ChoiceFaultInjector(inner, _node_site(), rename=rename)
        assert injector.name == expected
        assert injector.subscribes == inner.subscribes
        assert injector.publishes == inner.publishes
        assert injector.period == inner.period
        assert injector.offset == inner.offset

    def test_reset_clears_stuck_memory_and_counters(self):
        injector = _faulting("stuck", windows=((0.5, 2.0),))
        injector.step(0.0, {})
        injector.step(1.0, {})
        assert injector.injected_faults == 1
        injector.reset()
        injector.bind_strategy(ReplayStrategy(trail=[1]))
        assert injector.injected_faults == 0
        # With no pre-fault output recorded, STUCK replays an empty map.
        assert injector.step(1.0, {}) == {}


class TestTopicFaultGate:
    def _board(self):
        registry = TopicRegistry()
        registry.declare(Topic("pos", int, 0))
        registry.declare(Topic("other", int, 0))
        return TopicBoard(registry=registry)

    def _gate(self, kinds, board, delay=0.2, choices=(1,)):
        site = FaultSite(kinds=kinds, windows=((0.5, 1.5),), topic="pos", delay=delay)
        gate = TopicFaultGate([site])
        gate.bind_strategy(ScriptedStrategy(choices))
        gate.install(board)
        return gate

    def test_requires_topic_sites(self):
        with pytest.raises(ValueError):
            TopicFaultGate([_node_site()])

    def test_ungated_topics_and_inactive_windows_pass_through(self):
        board = self._board()
        gate = self._gate(("drop",), board)
        gate.advance(0.0)  # before the window
        board.publish("pos", 7)
        board.publish("other", 8)
        assert board.read("pos") == 7
        assert board.read("other") == 8
        assert gate.injected_faults == 0

    def test_drop_blacks_out_the_reading(self):
        board = self._board()
        gate = self._gate(("drop",), board)
        board.publish("pos", 7)
        gate.advance(0.5)
        board.publish("pos", 9)
        assert board.read("pos") is None
        assert gate.injected_faults == 1

    def test_stuck_swallows_so_the_stale_value_persists(self):
        board = self._board()
        gate = self._gate(("stuck",), board)
        board.publish("pos", 7)
        gate.advance(0.5)
        board.publish("pos", 9)
        assert board.read("pos") == 7

    def test_delay_buffers_until_due(self):
        board = self._board()
        gate = self._gate(("delay",), board, delay=0.3)
        board.publish("pos", 1)
        gate.advance(0.5)
        board.publish("pos", 2)
        assert board.read("pos") == 1  # buffered, not delivered
        gate.advance(0.7)
        assert board.read("pos") == 1  # still in flight
        gate.advance(0.8)
        assert board.read("pos") == 2  # delivered at publish time + delay

    def test_reset_clears_pending_and_decisions(self):
        board = self._board()
        gate = self._gate(("delay",), board, delay=0.3)
        gate.advance(0.5)
        board.publish("pos", 2)
        gate.reset()
        gate.bind_strategy(ScriptedStrategy([0]))  # this execution: no fault
        gate.advance(0.8)
        assert board.read("pos") == 0  # pending write was discarded
        gate.advance(0.6)
        board.publish("pos", 5)
        assert board.read("pos") == 5
        assert gate.injected_faults == 0


class TestFaultPlane:
    def _system(self):
        node = ChoiceFaultInjector(_command_node(), _node_site(), rename="controller")
        program = Program(
            name="p",
            topics=[Topic("cmd", ControlCommand), Topic("pos", int, 0)],
            nodes=[node],
        )
        return SoterCompiler(strict=False).compile(program).system, node

    def test_adopt_finds_injectors_and_exposes_fault_sites(self):
        system, injector = self._system()
        plan = FaultPlan(
            sites=(
                injector.site,
                FaultSite(kinds=("drop",), windows=((0.0, 1.0),), topic="pos"),
            )
        )
        plane = FaultPlane(plan)
        assert plane.adopt(system) is plane
        plane.adopt(system)  # idempotent
        assert plane.injectors == [injector]
        assert len(plane.fault_sites) == 2

    def test_bind_strategy_reaches_gate_and_injectors(self):
        system, injector = self._system()
        plan = FaultPlan(sites=(injector.site,))
        plane = FaultPlane(plan).adopt(system)
        strategy = ScriptedStrategy([1])
        plane.bind_strategy(strategy)
        assert injector.step(0.0, {}) == {}
        assert strategy.labels == ["fault:node:controller.faultable:w0"]

    def test_apply_installs_gate_once_and_advances_clock(self):
        class FakeEngine:
            def __init__(self, board):
                self.board = board

        registry = TopicRegistry()
        registry.declare(Topic("pos", int, 0))
        board = TopicBoard(registry=registry)
        plan = FaultPlan(
            sites=(FaultSite(kinds=("drop",), windows=((0.5, 1.0),), topic="pos"),)
        )
        plane = FaultPlane(plan)
        plane.bind_strategy(ScriptedStrategy([1]))
        engine = FakeEngine(board)
        plane.apply(engine, 0.0)
        assert board._gate is plane.gate
        plane.apply(engine, 0.6)
        board.publish("pos", 3)
        assert board.read("pos") is None  # DROP active at the advanced clock
