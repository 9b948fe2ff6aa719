"""Nodes: the periodic processes of a SOTER program.

A node (Section III-A of the paper) is a tuple ``(N, I, O, T, C)``: a name,
subscribed topics, published topics, a transition relation, and a periodic
time-table.  Here the transition relation is the node's ``step`` method
(local state lives on the Python object), and the time-table is derived
from ``period`` and ``offset``.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Mapping, Sequence, Tuple

from .errors import NodeError
from .resettable import StatelessSnapshot


class Node(abc.ABC):
    """Base class for all SOTER nodes (periodic input/output state machines)."""

    def __init__(
        self,
        name: str,
        subscribes: Sequence[str] = (),
        publishes: Sequence[str] = (),
        period: float = 0.1,
        offset: float = 0.0,
    ) -> None:
        if not name:
            raise NodeError("node names must be non-empty")
        if period <= 0.0:
            raise NodeError(f"node {name!r}: the period must be positive, got {period}")
        if offset < 0.0:
            raise NodeError(f"node {name!r}: the offset must be non-negative")
        subscribes_t = tuple(dict.fromkeys(subscribes))
        publishes_t = tuple(dict.fromkeys(publishes))
        overlap = set(subscribes_t) & set(publishes_t)
        if overlap:
            # The programming model requires I ∩ O = ∅ (Section III-A, item 3).
            raise NodeError(
                f"node {name!r}: topics {sorted(overlap)} are both subscribed and published"
            )
        self.name = name
        self.subscribes: Tuple[str, ...] = subscribes_t
        self.publishes: Tuple[str, ...] = publishes_t
        # Frozen lookup set for the per-firing output validation: building
        # a set per step would dominate the semantics engine's hot loop.
        self.publishes_set: frozenset = frozenset(publishes_t)
        self.period = float(period)
        self.offset = float(offset)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Reset local state before a run; subclasses override as needed."""

    @abc.abstractmethod
    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        """One transition: read input valuation, update local state, return outputs.

        The returned mapping must only contain topics the node publishes;
        the semantics engine enforces this.
        """

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def time_table(self, horizon: float) -> Tuple[float, ...]:
        """The calendar entries of this node up to ``horizon`` (for inspection)."""
        times = []
        t = self.offset
        while t <= horizon + 1e-12:
            times.append(round(t, 9))
            t += self.period
        return tuple(times)

    def describe(self) -> str:
        """One-line human-readable description of the node."""
        return (
            f"{self.name} (period {self.period * 1000.0:.0f} ms, "
            f"in={list(self.subscribes)}, out={list(self.publishes)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class FunctionNode(StatelessSnapshot, Node):
    """A node whose transition relation is a plain function.

    The function receives ``(now, inputs)`` and returns the output mapping;
    this is the lightest way to express application-level nodes (such as
    the surveillance protocol) and abstractions used by the systematic
    testing engine.
    """

    def __init__(
        self,
        name: str,
        func: Callable[[float, Mapping[str, Any]], Mapping[str, Any]],
        subscribes: Sequence[str] = (),
        publishes: Sequence[str] = (),
        period: float = 0.1,
        offset: float = 0.0,
    ) -> None:
        super().__init__(name, subscribes, publishes, period, offset)
        self._func = func

    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        outputs = self._func(now, inputs)
        return {} if outputs is None else outputs


class RelayNode(StatelessSnapshot, Node):
    """A node that copies values from input topics to output topics every period.

    The battery-safety module's advanced controller in the paper is exactly
    such a relay (it forwards the motion plan unchanged); it is also handy
    in tests.
    """

    def __init__(
        self,
        name: str,
        routes: Mapping[str, str],
        period: float = 0.1,
        offset: float = 0.0,
    ) -> None:
        if not routes:
            raise NodeError(f"relay node {name!r} needs at least one route")
        super().__init__(
            name,
            subscribes=tuple(routes.keys()),
            publishes=tuple(routes.values()),
            period=period,
            offset=offset,
        )
        self._routes = dict(routes)

    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        outputs = {}
        for source, destination in self._routes.items():
            value = inputs.get(source)
            if value is not None:
                outputs[destination] = value
        return outputs


class ConstantNode(Node):
    """A node that publishes fixed values; useful for tests and abstractions.

    It has no snapshot hooks on purpose: tests subclass it with state of
    their own, which a no-op capture would silently skip.
    """

    def __init__(
        self,
        name: str,
        outputs: Mapping[str, Any],
        period: float = 0.1,
        offset: float = 0.0,
    ) -> None:
        super().__init__(name, (), tuple(outputs.keys()), period, offset)
        self._outputs = dict(outputs)

    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        return dict(self._outputs)


def validate_outputs(node: Node, outputs: Mapping[str, Any]) -> Mapping[str, Any]:
    """Check that a node only published topics it declared (Section III-A)."""
    declared = node.publishes_set
    for topic in outputs:
        if topic not in declared:
            extra = set(outputs.keys()) - declared
            raise NodeError(
                f"node {node.name!r} published undeclared topics: {sorted(extra)}"
            )
    return outputs
