"""Runtime: executors, scheduling policies, tracing, and fault injection."""

from .executor import ExecutionResult, SimulatedTimeExecutor, WallClockExecutor
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
    "ExecutionResult",
    "SimulatedTimeExecutor",
    "WallClockExecutor",
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
