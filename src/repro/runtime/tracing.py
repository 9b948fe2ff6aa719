"""Execution tracing: the runtime's record of what happened during a run.

The trace is an :class:`~repro.core.semantics.EngineListener`; attach it to
a :class:`~repro.core.semantics.SemanticsEngine` to collect node firings,
mode switches, and environment inputs, plus any state samples the
simulator adds.  The mission metrics of the evaluation (disengagement
counts, fraction of time in AC mode, ...) are computed from these traces.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.decision import Mode
from ..core.node import Node
from ..geometry.values import Value


class FiringEvent(Value):
    """A node firing at a point in time."""

    time: float
    node: str
    enabled: bool
    published: Tuple[str, ...]


@dataclass(frozen=True)
class ModeSwitchEvent:
    """A decision-module mode switch."""

    time: float
    module: str
    previous: str
    new: str
    reason: str

    @property
    def is_disengagement(self) -> bool:
        return self.previous == Mode.AC.value and self.new == Mode.SC.value


class SampleEvent(Value):
    """A periodic sample of a scalar signal added by the simulator (e.g. clearance)."""

    time: float
    signal: str
    value: float


@dataclass
class ExecutionTrace:
    """A full record of one execution."""

    firings: List[FiringEvent] = field(default_factory=list)
    switches: List[ModeSwitchEvent] = field(default_factory=list)
    inputs: int = 0
    samples: List[SampleEvent] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def reset(self) -> None:
        """Forget every recorded event (Resettable: reuse across missions)."""
        self.firings.clear()
        self.switches.clear()
        self.inputs = 0
        self.samples.clear()
        self.notes.clear()

    # ------------------------------------------------------------------ #
    # EngineListener protocol
    # ------------------------------------------------------------------ #
    def on_node_fired(
        self, time: float, node: Node, outputs: Mapping[str, Any], enabled: bool
    ) -> None:
        self.firings.append(
            FiringEvent(time=time, node=node.name, enabled=enabled, published=tuple(outputs.keys()))
        )

    def on_mode_switch(
        self, time: float, module_name: str, previous: Mode, new: Mode, reason: str
    ) -> None:
        self.switches.append(
            ModeSwitchEvent(
                time=time, module=module_name, previous=previous.value, new=new.value, reason=reason
            )
        )

    def on_environment_input(self, time: float, topic: str, value: Any) -> None:
        self.inputs += 1

    # ------------------------------------------------------------------ #
    # simulator hooks
    # ------------------------------------------------------------------ #
    def add_sample(self, time: float, signal: str, value: float) -> None:
        """Record a scalar signal sample (drone clearance, battery charge, ...)."""
        self.samples.append(SampleEvent(time=time, signal=signal, value=float(value)))

    def note(self, message: str) -> None:
        """Attach a free-form annotation to the trace."""
        self.notes.append(message)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def firings_of(self, node_name: str) -> List[FiringEvent]:
        return [event for event in self.firings if event.node == node_name]

    def switches_of(self, module_name: str) -> List[ModeSwitchEvent]:
        return [event for event in self.switches if event.module == module_name]

    def disengagements(self, module_name: Optional[str] = None) -> List[ModeSwitchEvent]:
        """All AC→SC switches, optionally restricted to one module."""
        return [
            event
            for event in self.switches
            if event.is_disengagement and (module_name is None or event.module == module_name)
        ]

    def signal(self, name: str) -> List[Tuple[float, float]]:
        """Time series of a sampled signal."""
        return [(event.time, event.value) for event in self.samples if event.signal == name]

    def min_signal(self, name: str) -> Optional[float]:
        """Minimum value a sampled signal attained (None if never sampled)."""
        values = [value for _, value in self.signal(name)]
        return min(values) if values else None

    def duration(self) -> float:
        """Time span covered by the trace."""
        times = [event.time for event in self.firings] + [event.time for event in self.samples]
        if not times:
            return 0.0
        return max(times) - min(times)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def switches_to_csv(self) -> str:
        """Mode switches as CSV text (time, module, previous, new, reason)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["time", "module", "previous", "new", "reason"])
        for event in self.switches:
            writer.writerow([f"{event.time:.3f}", event.module, event.previous, event.new, event.reason])
        return buffer.getvalue()

    def summary(self) -> Dict[str, Any]:
        """Compact dictionary summary of the trace."""
        return {
            "firings": len(self.firings),
            "mode_switches": len(self.switches),
            "disengagements": len(self.disengagements()),
            "environment_inputs": self.inputs,
            "samples": len(self.samples),
            "duration": self.duration(),
        }
