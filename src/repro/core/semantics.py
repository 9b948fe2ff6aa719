"""Operational semantics of an RTA system (Figure 11 of the paper).

The engine executes the timeout-based discrete-event semantics over
configurations ``(L, OE, ct, FN, Topics)``:

* **ENVIRONMENT-INPUT** — :meth:`SemanticsEngine.set_input` updates an
  environment topic at any time;
* **DISCRETE-TIME-PROGRESS-STEP** — when no node is pending, time advances
  to the earliest calendar entry and the due nodes become pending;
* **DM-STEP** — a pending decision module reads the monitored state, runs
  the switching logic, and the engine updates the output-enable map ``OE``
  for its AC and SC;
* **AC-OR-SC-STEP** — a pending ordinary node steps; its outputs are
  published only if its output is enabled in ``OE`` (non-controlled nodes
  are always enabled).

Local node state ``L`` lives on the node objects themselves; the engine
holds everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from .calendar import Calendar
from .decision import DecisionModule, Mode
from .errors import SimulationError
from .node import Node, validate_outputs
from .system import RTASystem
from .topics import TopicBoard


class SchedulingPolicy(Protocol):
    """How node firings are released relative to their nominal calendar times.

    The perfect policy releases every firing exactly on time; the jittery
    OS-timer policy of :mod:`repro.runtime.scheduler` adds release delay
    and occasionally drops a firing, which is how the reproduction models
    the paper's observation that crashes occurred when the SC "was not
    scheduled in time".
    """

    def release_jitter(self, node: Node, nominal_time: float) -> float:
        """Extra delay (seconds ≥ 0) before the node's next firing is released."""

    def drops_execution(self, node: Node, nominal_time: float) -> bool:
        """True if this firing is skipped entirely (overrun / missed activation)."""


class PerfectScheduler:
    """Idealised real-time scheduling: no jitter, no dropped activations.

    The default policy.  Under it the engine fires from the calendar's
    firing plan; ``repro.runtime.PerfectScheduler`` is this class.
    """

    def release_jitter(self, node: Node, nominal_time: float) -> float:
        return 0.0

    def drops_execution(self, node: Node, nominal_time: float) -> bool:
        return False


class EngineListener(Protocol):
    """Observer hooks for tracing and metrics collection."""

    def on_node_fired(self, time: float, node: Node, outputs: Mapping[str, Any], enabled: bool) -> None:
        ...

    def on_mode_switch(self, time: float, module_name: str, previous: Mode, new: Mode, reason: str) -> None:
        ...

    def on_environment_input(self, time: float, topic: str, value: Any) -> None:
        ...


@dataclass
class EngineStatistics:
    """Counters the benchmarks and tests read after a run."""

    node_firings: int = 0
    dropped_firings: int = 0
    suppressed_publishes: int = 0
    environment_inputs: int = 0
    mode_switches: int = 0
    time_progress_steps: int = 0


class SemanticsEngine:
    """Executes an :class:`~repro.core.system.RTASystem` per Figure 11."""

    def __init__(
        self,
        system: RTASystem,
        scheduler: Optional[SchedulingPolicy] = None,
        listeners: Sequence[EngineListener] = (),
        start_time: float = 0.0,
    ) -> None:
        self.system = system
        self.scheduler: SchedulingPolicy = scheduler or PerfectScheduler()
        self.listeners: List[EngineListener] = list(listeners)
        self._start_time = start_time
        self.board = TopicBoard(registry=system.topics)
        self.calendar: Calendar = system.build_calendar()
        self._nodes: Dict[str, Node] = {node.name: node for node in system.all_nodes()}
        # Per-node firing records, resolved once: the node, what it reads,
        # what it may publish, and whether it is a decision module.
        self._records: Dict[str, Tuple[Node, Tuple[str, ...], frozenset, bool]] = {
            name: (node, node.subscribes, node.publishes_set, isinstance(node, DecisionModule))
            for name, node in self._nodes.items()
        }
        self._dm_for: Dict[str, DecisionModule] = {
            module.decision.name: module.decision for module in system.modules
        }
        self.output_enabled: Dict[str, bool] = {}
        # Per-node state versions for incremental snapshots (see
        # repro.core.resettable): node local state L only changes when the
        # node fires (or resets), so bumping an id per firing gives the
        # snapshotter a sound "unchanged since" test.  The clock never
        # rewinds — ids stay unique across snapshot restores.
        self._delta_clock: int = 0
        self.node_versions: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Restore the engine to its construction-time configuration.

        Part of the :class:`~repro.core.resettable.Resettable` protocol and
        the heart of the reset-and-reuse exploration hot path: instead of
        rebuilding system + board + calendar + engine per execution, a
        reused engine rewinds them in place.  After a reset the engine is
        observably identical to a freshly constructed one over the same
        system — time at ``start_time``, topics at their defaults, the
        calendar at every node's offset, statistics zeroed, the
        output-enable map ``OE`` back to boot state (every module in SC
        mode), and every node's local state ``L`` re-initialised.
        Listeners and the scheduling policy are kept (they are engine
        configuration, not execution state).
        """
        self.current_time = self._start_time
        self.board.reset()
        self.calendar.reset()
        self.stats = EngineStatistics()
        # Output-enable map OE: SC nodes start enabled, AC nodes disabled
        # (every module boots in SC mode), everything else always enabled.
        self.output_enabled.clear()
        for module in self.system.modules:
            self.output_enabled[module.spec.advanced.name] = False
            self.output_enabled[module.spec.safe.name] = True
        clock = self._delta_clock
        node_versions = self.node_versions
        for node in self.system.all_nodes():
            node.reset()
            clock += 1
            node_versions[node.name] = clock
        self._delta_clock = clock

    # ------------------------------------------------------------------ #
    # ENVIRONMENT-INPUT
    # ------------------------------------------------------------------ #
    def set_input(self, topic: str, value: Any) -> None:
        """Environment transition: update an input topic at the current time."""
        self.board.publish(topic, value)
        self.stats.environment_inputs += 1
        for listener in self.listeners:
            listener.on_environment_input(self.current_time, topic, value)

    def read_topic(self, topic: str) -> Any:
        """Read the current global value of a topic."""
        return self.board.read(topic)

    # ------------------------------------------------------------------ #
    # time progress and node firing
    # ------------------------------------------------------------------ #
    def peek_next_time(self) -> Optional[float]:
        """Time of the next scheduled discrete step (None if nothing is scheduled)."""
        return self.calendar.next_time()

    def step(self) -> Tuple[float, List[str]]:
        """Advance time to the next calendar entry and fire every due node.

        Returns the new current time and the names of the nodes that fired.
        Firing order within a time instant is deterministic (calendar
        insertion order restricted to the due set) unless a systematic
        testing scheduler permutes it via :meth:`fire_due_nodes`.
        """
        pending = self.calendar.next_due()
        if pending is None:
            raise SimulationError("the system has no scheduled nodes")
        next_time, due = pending
        if next_time < self.current_time - 1e-9:
            raise SimulationError(
                f"calendar time {next_time} went backwards from {self.current_time}"
            )
        self.current_time = max(self.current_time, next_time)
        self.stats.time_progress_steps += 1
        fired = self._fire_ordered(due)
        return self.current_time, fired

    def fire_due_nodes(self, due: Sequence[str], order: Optional[Sequence[str]] = None) -> List[str]:
        """Fire the due nodes (DM-STEP / AC-OR-SC-STEP) in the given order.

        ``order`` must name every due node exactly once: a repeated or a
        missing name raises :class:`SimulationError`.
        """
        ordering = list(order) if order is not None else list(due)
        if sorted(ordering) != sorted(due):
            raise SimulationError("firing order must be a permutation of the due nodes")
        return self._fire_ordered(ordering)

    def _fire_ordered(self, ordering: Sequence[str]) -> List[str]:
        """Fire nodes in a pre-validated order (the engine-internal hot loop).

        Callers must guarantee ``ordering`` is a permutation of the due
        set — the systematic tester's scheduler produces one by
        construction, which lets the per-step permutation check be skipped.
        Behaviour is identical to :meth:`fire_due_nodes`; the body reads
        each node's firing record and hoists the per-firing attribute
        lookups because this loop executes once per node firing across
        millions of explored executions.  Under the perfect policy the
        calendar is told once per instant which nodes fired, which on its
        firing plan is one cursor move.
        """
        records = self._records
        board = self.board
        calendar = self.calendar
        scheduler = self.scheduler
        perfect = type(scheduler) is PerfectScheduler
        stats = self.stats
        listeners = self.listeners
        output_enabled = self.output_enabled
        now = self.current_time
        board_values = board.values
        node_versions = self.node_versions
        clock = self._delta_clock
        fired: List[str] = []
        for name in ordering:
            node, subscribes, publishes, is_decision = records[name]
            if not perfect:
                nominal = calendar.nominal_time_of(name)
                if scheduler.drops_execution(node, nominal):
                    stats.dropped_firings += 1
                    self._reschedule(node)
                    continue
            # -- read → step → publish ------------------------------------ #
            clock += 1
            node_versions[name] = clock
            outputs = node.step(now, {topic: board_values.get(topic) for topic in subscribes})
            if outputs:
                if not publishes.issuperset(outputs):
                    validate_outputs(node, outputs)
            else:
                outputs = {}
            if is_decision:
                self._apply_decision(node)
                enabled = True
            else:
                enabled = output_enabled.get(name, True)
                if enabled:
                    if outputs:
                        board.publish_many(outputs)
                elif outputs:
                    stats.suppressed_publishes += 1
            if listeners:
                for listener in listeners:
                    listener.on_node_fired(now, node, outputs, enabled)
            fired.append(name)
            if not perfect:
                self._reschedule(node)
        self._delta_clock = clock
        stats.node_firings += len(fired)
        if perfect:
            calendar.advance(fired, now)
        return fired

    def _reschedule(self, node: Node) -> None:
        jitter = max(0.0, self.scheduler.release_jitter(node, self.calendar.nominal_time_of(node.name)))
        self.calendar.reschedule(node.name, jitter=jitter, not_before=self.current_time)

    def _apply_decision(self, dm: DecisionModule) -> None:
        """DM-STEP: propagate the DM's mode into the output-enable map."""
        module_spec = dm.spec
        ac_enabled = dm.mode is Mode.AC
        self.output_enabled[module_spec.advanced.name] = ac_enabled
        self.output_enabled[module_spec.safe.name] = not ac_enabled
        if dm.switches and abs(dm.switches[-1].time - self.current_time) <= 1e-9:
            switch = dm.switches[-1]
            self.stats.mode_switches += 1
            for listener in self.listeners:
                listener.on_mode_switch(
                    self.current_time, switch.module, switch.previous, switch.new, switch.reason
                )

    # ------------------------------------------------------------------ #
    # delta-snapshot hooks (see repro.core.resettable)
    # ------------------------------------------------------------------ #
    def capture_delta_state(self) -> Tuple[float, Dict[str, int], Dict[str, bool]]:
        """The engine's own scalars: time, statistics, the OE map.

        Board, calendar and node local state are separate snapshot
        components with their own hooks/versions; this covers what the
        engine object itself mutates during execution.
        """
        return (
            self.current_time,
            dict(self.stats.__dict__),
            dict(self.output_enabled),
        )

    def restore_delta_state(self, state: Tuple[float, Dict[str, int], Dict[str, bool]]) -> None:
        """Rewind the engine scalars in place (``stats``/``OE`` identities kept)."""
        current_time, stats, output_enabled = state
        self.current_time = current_time
        self.stats.__dict__.update(stats)
        self.output_enabled.clear()
        self.output_enabled.update(output_enabled)

    # ------------------------------------------------------------------ #
    # convenience drivers
    # ------------------------------------------------------------------ #
    def run_until(
        self,
        end_time: float,
        environment: Optional[Callable[["SemanticsEngine", float], None]] = None,
        stop_when: Optional[Callable[["SemanticsEngine"], bool]] = None,
    ) -> None:
        """Run the system until ``end_time`` (exclusive of later events).

        ``environment`` is called before each discrete step with the engine
        and the upcoming step time; it models the ENVIRONMENT-INPUT
        transitions (the plant co-simulation uses it to publish sensor
        values).  ``stop_when`` allows early termination (mission complete,
        collision, ...).
        """
        while True:
            next_time = self.peek_next_time()
            if next_time is None or next_time > end_time + 1e-12:
                break
            if environment is not None:
                environment(self, next_time)
            self.step()
            if stop_when is not None and stop_when(self):
                break

    def mode_of(self, module_name: str) -> Mode:
        """Current mode of a module."""
        return self.system.module_named(module_name).decision.mode

    def dm_of(self, module_name: str) -> DecisionModule:
        """The decision module of a module."""
        return self.system.module_named(module_name).decision
