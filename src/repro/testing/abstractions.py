"""Abstractions of untrusted components for systematic testing.

"When performing systematic testing of the robotics software stack the
third-party (untrusted) components that are not implemented in SOTER are
replaced by their abstractions implemented in SOTER" (Section V of the
paper).  An abstraction over-approximates a component by publishing a
*nondeterministically chosen* value from a finite set every period; the
testing engine then explores the choices.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..core.node import Node
from .strategies import ChoiceStrategy


class NondeterministicNode(Node):
    """A node whose outputs are chosen nondeterministically from finite menus.

    ``menus`` maps each published topic to the finite list of values the
    abstraction may publish.  The actual selection is delegated to the
    engine-wide :class:`ChoiceStrategy`, which is how the systematic tester
    controls and enumerates the behaviour.
    """

    def __init__(
        self,
        name: str,
        menus: Mapping[str, Sequence[Any]],
        period: float = 0.1,
        subscribes: Sequence[str] = (),
    ) -> None:
        if not menus:
            raise ValueError("a nondeterministic node needs at least one output menu")
        for topic, options in menus.items():
            if not options:
                raise ValueError(f"menu for topic {topic!r} must not be empty")
        super().__init__(
            name=name,
            subscribes=subscribes,
            publishes=tuple(menus.keys()),
            period=period,
        )
        self.menus = {topic: list(options) for topic, options in menus.items()}
        self.strategy: ChoiceStrategy | None = None
        self.choices_made = 0

    def bind_strategy(self, strategy: ChoiceStrategy) -> None:
        """Attach the strategy that resolves this node's choices."""
        self.strategy = strategy

    def reset(self) -> None:
        self.choices_made = 0

    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        outputs = {}
        for topic, options in self.menus.items():
            if self.strategy is None:
                index = 0
            else:
                index = self.strategy.choose(len(options), label=f"{self.name}:{topic}")
            self.choices_made += 1
            outputs[topic] = options[index]
        return outputs

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> int:
        return self.choices_made

    def restore_delta_state(self, state: int) -> None:
        self.choices_made = state


class AbstractEnvironment:
    """A nondeterministic environment: chooses input-topic values every sample.

    The operational semantics allows ENVIRONMENT-INPUT transitions at any
    time; for bounded exploration the tester samples them at a fixed period
    from finite menus, mirroring the bounded-asynchrony abstraction the
    paper's testing backend uses.
    """

    def __init__(self, menus: Mapping[str, Sequence[Any]], period: float = 0.1) -> None:
        if period <= 0.0:
            raise ValueError("environment period must be positive")
        for topic, options in menus.items():
            if not options:
                raise ValueError(f"menu for topic {topic!r} must not be empty")
        self.menus = {topic: list(options) for topic, options in menus.items()}
        self.period = period
        self.strategy: ChoiceStrategy | None = None
        self._next_time = 0.0
        # Dirty tracking for incremental snapshots (repro.core.resettable).
        self._delta_clock = 0
        self.delta_version = 0

    def bind_strategy(self, strategy: ChoiceStrategy) -> None:
        self.strategy = strategy

    def _touch(self) -> None:
        clock = self._delta_clock + 1
        self._delta_clock = clock
        self.delta_version = clock

    def reset(self) -> None:
        self._next_time = 0.0
        self._touch()

    def apply(self, engine, upcoming_time: float) -> None:
        """Inject chosen values for every input topic due before ``upcoming_time``."""
        advanced = False
        while self._next_time <= upcoming_time + 1e-12:
            for topic, options in self.menus.items():
                if self.strategy is None:
                    index = 0
                else:
                    index = self.strategy.choose(len(options), label=f"env:{topic}")
                engine.set_input(topic, options[index])
            self._next_time += self.period
            advanced = True
        if advanced:
            self._touch()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> float:
        """The injection clock is the environment's only mutable state."""
        return self._next_time

    def restore_delta_state(self, state: float) -> None:
        self._next_time = state
        self._touch()


def constant_environment(values: Mapping[str, Any], period: float = 0.1) -> AbstractEnvironment:
    """An environment that always publishes the same values (no real choice)."""
    return AbstractEnvironment({topic: [value] for topic, value in values.items()}, period=period)
