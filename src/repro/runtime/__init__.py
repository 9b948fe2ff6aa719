"""Runtime: scheduling policies, tracing, and fault injection.

The one engine loop is :meth:`repro.core.semantics.SemanticsEngine.run_until`;
:class:`repro.simulation.DroneSimulation` drives it for missions.
"""

from .faults import (
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
from .scheduler import JitteryOSScheduler, OverloadScheduler, PerfectScheduler
from .tracing import ExecutionTrace, FiringEvent, ModeSwitchEvent, SampleEvent

__all__ = [
    "NODE_FAULT_KINDS",
    "TOPIC_FAULT_KINDS",
    "ChoiceFaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlane",
    "FaultSite",
    "FaultWindow",
    "TopicFaultGate",
    "JitteryOSScheduler",
    "OverloadScheduler",
    "PerfectScheduler",
    "ExecutionTrace",
    "FiringEvent",
    "ModeSwitchEvent",
    "SampleEvent",
]
