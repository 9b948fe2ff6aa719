"""Calendar (time-table) machinery for timeout-based discrete-event execution.

The paper models each periodic node with a calendar of future firing times
and uses timeout-based discrete event simulation [18] to execute the
multi-rate periodic system as a discrete transition system.  The
:class:`Calendar` here plays the role of ``CS`` in Section IV: it tracks
the next firing time of every node, advances time to the earliest entry,
and reports which nodes are enabled (the ``FN`` set).

Under the perfect policy (no jitter, no drops) the sequence of instants
and due sets is the same for every execution of a model, so the calendar
also keeps a *firing plan*: a table of ``(time, due tuple)`` entries,
extended lazily by the same arithmetic the per-node dict path performs,
that the engine walks with a cursor.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import SchedulingError
from .node import Node

_TIME_EPS = 1e-9

# Most entries one calendar's firing plan holds (a 300-s mission-city
# flight is about 6 000 instants); past it the calendar continues on the
# dict path.  Times live in an ``array('d')`` and due tuples are interned,
# so a full plan stays near 1 MB.
_PLAN_CAP = 65536

# Calendar delta state: the plan cursor, or the two per-node time tables.
CalendarState = Union[int, Tuple[Dict[str, float], Dict[str, float]]]


def _reschedule_due(
    table: Dict[str, float], periods: Dict[str, float], due: Tuple[str, ...], now: float
) -> None:
    """``reschedule(name, 0.0, not_before=now)`` for every due name, on ``table``."""
    for name in due:
        period = periods[name]
        nominal = table[name] + period
        while nominal < now - _TIME_EPS:
            nominal += period
        table[name] = nominal


@dataclass(frozen=True)
class CalendarEntry:
    """A single scheduled firing of a node."""

    time: float
    node_name: str


class Calendar:
    """Tracks the nominal and effective next firing time of each node.

    The *nominal* schedule is the ideal periodic time-table (offset,
    offset + period, ...).  The *effective* time is the nominal time plus
    any release jitter injected by a scheduling policy; this is how the
    runtime models OS-timer scheduling (Section V of the paper observed
    crashes precisely because the safe controller was not scheduled in
    time, and the endurance benchmark reproduces that with jitter).

    Two representations hold that schedule.  The *dict path* keeps one
    nominal and one effective time per node and is the oracle: every
    query and update is defined on it.  The *firing plan* is a table of
    ``(time, due tuple)`` entries computed once per calendar, from a
    private copy of the offsets, by exactly the dict path's arithmetic
    (``min`` in insertion order, the due names within 1e-9 of it, then
    ``nominal + period`` with the catch-up loop) — never from a formula,
    so it reproduces every accumulated float.  A fresh or reset calendar
    is on the plan at position 0; :meth:`advance` moves the cursor when
    the nodes fired at ``now`` are exactly the entry's due set.  Anything
    else — a jitter or drop policy, :meth:`apply_jitter`, a direct
    :meth:`reschedule`, the per-node queries, :meth:`entries_until`,
    :meth:`add_node`, a different fired set, a ``now`` off the entry's
    time, or the plan's cap — rebuilds the dict tables at the cursor and
    continues on the dict path until :meth:`reset`.
    """

    def __init__(self, nodes: Iterable[Node]) -> None:
        self._periods: Dict[str, float] = {}
        self._offsets: Dict[str, float] = {}
        self._nominal_next: Dict[str, float] = {}
        self._effective_next: Dict[str, float] = {}
        # Dirty tracking for incremental snapshots (repro.core.resettable):
        # a unique id per schedule state; the clock never rewinds.
        self._delta_clock: int = 0
        self.delta_version: int = 0
        # The firing plan: entry i fires the interned due tuple
        # ``_plan_due[i][0]`` at ``_plan_times[i]``; ``_frontier`` is the
        # nominal time table after the last entry.  ``_cursor`` is the
        # next entry to fire, or -1 while the calendar is on the dict path
        # (the dict tables are current only then).
        self._cursor: int = -1
        self._discard_plan()
        for node in nodes:
            self.add_node(node)
        self._cursor = 0 if self._periods else -1

    def _discard_plan(self) -> None:
        self._plan_times = array("d")
        self._plan_due: List[Tuple[Tuple[str, ...], FrozenSet[str]]] = []
        self._plan_interned: Dict[Tuple[str, ...], Tuple[Tuple[str, ...], FrozenSet[str]]] = {}
        self._frontier: Dict[str, float] = dict(self._offsets)

    def _touch(self) -> None:
        clock = self._delta_clock + 1
        self._delta_clock = clock
        self.delta_version = clock

    def add_node(self, node: Node) -> None:
        """Register a node's periodic time-table."""
        if node.name in self._periods:
            raise SchedulingError(f"node {node.name!r} is already scheduled")
        self._leave_plan()
        self._periods[node.name] = node.period
        self._offsets[node.name] = node.offset
        self._nominal_next[node.name] = node.offset
        self._effective_next[node.name] = node.offset
        # The plan covers the old node set; the next reset plans anew.
        self._discard_plan()
        self._touch()

    def reset(self) -> None:
        """Restore every node's schedule to its construction-time offset.

        Part of the :class:`~repro.core.resettable.Resettable` protocol:
        after a reset the calendar is indistinguishable from one freshly
        built over the same nodes, so a reused semantics engine replays
        time from zero without rebuilding the time-table.  The calendar
        returns to plan position 0; the plan itself is kept.
        """
        self._cursor = 0 if self._periods else -1
        self._touch()

    @property
    def on_plan(self) -> bool:
        """True while the schedule is read from the firing plan."""
        return self._cursor >= 0

    # ------------------------------------------------------------------ #
    # the firing plan
    # ------------------------------------------------------------------ #
    def _extend_plan(self) -> bool:
        """Append the plan's next entry; False once the plan is at its cap.

        The entry is what :meth:`next_due` followed by one
        ``reschedule(name, 0.0, not_before=earliest)`` per due node
        computes on the dict path, operation for operation.
        """
        times = self._plan_times
        if len(times) >= _PLAN_CAP:
            return False
        frontier = self._frontier
        earliest = min(frontier.values())
        threshold = earliest + _TIME_EPS
        due = tuple([name for name, t in frontier.items() if t <= threshold])
        entry = self._plan_interned.get(due)
        if entry is None:
            entry = self._plan_interned[due] = (due, frozenset(due))
        times.append(earliest)
        self._plan_due.append(entry)
        _reschedule_due(frontier, self._periods, due, earliest)
        return True

    def _leave_plan(self) -> None:
        """Rebuild the dict tables at the cursor and continue on them."""
        cursor = self._cursor
        if cursor < 0:
            return
        self._cursor = -1
        if cursor == len(self._plan_times):
            table = dict(self._frontier)
        else:
            # Replay the plan's arithmetic up to the cursor.
            table = dict(self._offsets)
            times = self._plan_times
            plan_due = self._plan_due
            for index in range(cursor):
                _reschedule_due(table, self._periods, plan_due[index][0], times[index])
        self._nominal_next.clear()
        self._nominal_next.update(table)
        self._effective_next.clear()
        self._effective_next.update(table)

    def advance(self, fired: Sequence[str], now: float) -> None:
        """Reschedule the nodes that fired at ``now`` under the perfect policy.

        On the plan, when ``now`` is the entry's time and ``fired`` is
        exactly its due set (in any order), the cursor moves one entry.
        Anything else leaves the plan and calls
        ``reschedule(name, 0.0, not_before=now)`` for each fired name.
        """
        cursor = self._cursor
        if 0 <= cursor < len(self._plan_times):
            due, due_set = self._plan_due[cursor]
            if (
                self._plan_times[cursor] == now
                and len(fired) == len(due)
                and due_set == set(fired)
            ):
                self._cursor = cursor + 1
                clock = self._delta_clock + 1
                self._delta_clock = clock
                self.delta_version = clock
                return
        self._leave_plan()
        for name in fired:
            self.reschedule(name, 0.0, now)

    def __contains__(self, node_name: str) -> bool:
        return node_name in self._periods

    def __len__(self) -> int:
        return len(self._periods)

    def node_names(self) -> Tuple[str, ...]:
        return tuple(self._periods.keys())

    def period_of(self, node_name: str) -> float:
        """The period of a scheduled node."""
        return self._periods[node_name]

    # ------------------------------------------------------------------ #
    # schedule queries
    # ------------------------------------------------------------------ #
    def next_time(self) -> Optional[float]:
        """The earliest effective firing time, or None if nothing is scheduled."""
        cursor = self._cursor
        if cursor >= 0:
            if cursor < len(self._plan_times) or self._extend_plan():
                return self._plan_times[cursor]
            self._leave_plan()
        if not self._effective_next:
            return None
        return min(self._effective_next.values())

    def due_nodes(self, time: float) -> List[str]:
        """Nodes whose effective firing time equals ``time`` (the FN set)."""
        self._leave_plan()
        return [
            name
            for name, t in self._effective_next.items()
            if abs(t - time) <= _TIME_EPS
        ]

    def next_due(self) -> Optional[Tuple[float, Sequence[str]]]:
        """The earliest effective firing time plus its FN set, in one pass.

        Equivalent to ``(next_time(), due_nodes(next_time()))`` — this
        query runs once per discrete step on the exploration hot path.  On
        the plan it is one table read (the due set is the plan's interned
        tuple); on the dict path it scans the schedule once.  Either way
        the due names come in node-insertion order.
        """
        cursor = self._cursor
        if cursor >= 0:
            if cursor < len(self._plan_times) or self._extend_plan():
                return self._plan_times[cursor], self._plan_due[cursor][0]
            self._leave_plan()
        if not self._effective_next:
            return None
        earliest = min(self._effective_next.values())
        threshold = earliest + _TIME_EPS
        return earliest, [name for name, t in self._effective_next.items() if t <= threshold]

    def nominal_time_of(self, node_name: str) -> float:
        """The nominal (jitter-free) time of the node's next firing."""
        self._leave_plan()
        return self._nominal_next[node_name]

    def effective_time_of(self, node_name: str) -> float:
        """The effective (possibly jittered) time of the node's next firing."""
        self._leave_plan()
        return self._effective_next[node_name]

    # ------------------------------------------------------------------ #
    # schedule updates
    # ------------------------------------------------------------------ #
    def reschedule(self, node_name: str, jitter: float = 0.0, not_before: float = 0.0) -> None:
        """Advance a node's schedule by one period after it fired (or was dropped).

        ``not_before`` is the current time of the system: when a firing was
        released late (jitter pushed it past one or more nominal activation
        points), the skipped nominal activations are treated as missed and
        the schedule catches up to the first activation not earlier than the
        current time — which is how a periodic OS timer behaves when its
        handler overruns.
        """
        if node_name not in self._periods:
            raise SchedulingError(f"node {node_name!r} is not scheduled")
        if jitter < 0.0:
            raise SchedulingError("release jitter must be non-negative")
        self._leave_plan()
        period = self._periods[node_name]
        nominal = self._nominal_next[node_name] + period
        while nominal < not_before - _TIME_EPS:
            nominal += period
        self._nominal_next[node_name] = nominal
        self._effective_next[node_name] = nominal + jitter
        clock = self._delta_clock + 1
        self._delta_clock = clock
        self.delta_version = clock

    def apply_jitter(self, node_name: str, jitter: float) -> None:
        """Apply release jitter to the node's *current* pending firing."""
        if jitter < 0.0:
            raise SchedulingError("release jitter must be non-negative")
        self._leave_plan()
        self._effective_next[node_name] = self._nominal_next[node_name] + jitter
        self._touch()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> CalendarState:
        """The mutable half of the time-table.

        On the plan this is the cursor; on the dict path, copies of the
        nominal and effective time tables.
        """
        if self._cursor >= 0:
            return self._cursor
        return dict(self._nominal_next), dict(self._effective_next)

    def restore_delta_state(self, state: CalendarState) -> None:
        """Rewind the schedule in place (dict identities preserved).

        A cursor puts the calendar back on the plan; a pair of tables puts
        it on the dict path.
        """
        if isinstance(state, int):
            self._cursor = state
        else:
            self._cursor = -1
            nominal, effective = state
            self._nominal_next.clear()
            self._nominal_next.update(nominal)
            self._effective_next.clear()
            self._effective_next.update(effective)
        self._touch()

    def entries_until(self, horizon: float) -> List[CalendarEntry]:
        """All nominal calendar entries up to ``horizon`` (for inspection/tests)."""
        self._leave_plan()
        entries: List[CalendarEntry] = []
        for name, period in self._periods.items():
            t = self._nominal_next[name]
            while t <= horizon + _TIME_EPS:
                entries.append(CalendarEntry(time=round(t, 9), node_name=name))
                t += period
        entries.sort(key=lambda e: (e.time, e.node_name))
        return entries


def hyperperiod(periods: Iterable[float], resolution: float = 1e-3) -> float:
    """Least common multiple of a set of periods, at a fixed resolution.

    Used by the systematic testing engine to bound exploration depth to a
    whole number of hyperperiods of the multi-rate system.
    """
    from math import gcd

    ticks = []
    for period in periods:
        if period <= 0.0:
            raise SchedulingError("periods must be positive")
        ticks.append(max(1, round(period / resolution)))
    if not ticks:
        return 0.0
    lcm = ticks[0]
    for t in ticks[1:]:
        lcm = lcm * t // gcd(lcm, t)
    return lcm * resolution
