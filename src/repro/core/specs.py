"""Safety specifications: the φ_safe / φ_safer predicates of an RTA module.

The paper assumes the desired safety property is a subset ``φ_safe ⊆ S``
of the system state space, with a stronger subset ``φ_safer ⊆ φ_safe``
governing when the decision module may hand control back to the advanced
controller.  Here both are represented as named predicates over the
*monitored state* carried by the module's state topic(s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, TypeVar

StateT = TypeVar("StateT")


@dataclass(frozen=True)
class SafetySpec(Generic[StateT]):
    """A named predicate over monitored states."""

    name: str
    predicate: Callable[[StateT], bool]
    description: str = ""

    def contains(self, state: StateT) -> bool:
        """True if ``state`` satisfies the specification."""
        if state is None:
            return False
        return bool(self.predicate(state))

    def __call__(self, state: StateT) -> bool:
        return self.contains(state)

    def intersect(self, other: "SafetySpec[StateT]") -> "SafetySpec[StateT]":
        """Conjunction of two specifications (used for system-level invariants)."""
        return SafetySpec(
            name=f"{self.name} ∧ {other.name}",
            predicate=lambda state: self.contains(state) and other.contains(state),
            description=f"conjunction of {self.name} and {other.name}",
        )

    def negate(self) -> "SafetySpec[StateT]":
        """Complement of the specification (the unsafe region)."""
        return SafetySpec(
            name=f"¬{self.name}",
            predicate=lambda state: not self.contains(state),
            description=f"complement of {self.name}",
        )


def always_safe() -> SafetySpec[Any]:
    """A specification satisfied by every (non-None) state; useful in tests."""
    return SafetySpec(name="true", predicate=lambda state: True, description="trivially true")


def never_safe() -> SafetySpec[Any]:
    """A specification satisfied by no state; useful in tests."""
    return SafetySpec(name="false", predicate=lambda state: False, description="trivially false")
