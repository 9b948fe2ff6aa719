"""SOTER core: the programming model, RTA modules, semantics, and compiler."""

from .errors import (
    CompilationError,
    CompositionError,
    ModuleError,
    NodeError,
    SchedulingError,
    SimulationError,
    SoterError,
    TopicError,
    WellFormednessError,
)
from .resettable import Resettable, is_resettable, reset_all
from .topics import Topic, TopicBoard, TopicRegistry
from .node import ConstantNode, FunctionNode, Node, RelayNode, validate_outputs
from .calendar import Calendar, CalendarEntry, hyperperiod
from .specs import SafetySpec, always_safe, never_safe
from .module import ModuleCertificate, RTAModuleInstance, RTAModuleSpec
from .decision import DecisionModule, Mode, ModeSwitch
from .regions import Region, classify_region, is_consistent
from .wellformed import (
    CheckResult,
    CheckerOptions,
    WellFormednessChecker,
    WellFormednessReport,
    structural_report,
)
from .system import RTASystem, compose_all
from .semantics import EngineStatistics, SemanticsEngine
from .monitor import (
    DeadlineMonitor,
    InvariantMonitor,
    MonitorCadence,
    MonitorResult,
    MonitorSuite,
    SeparationMonitor,
    TopicSafetyMonitor,
    Violation,
)
from .compiler import CompilationResult, Program, SoterCompiler, compile_program
from .codegen import generate_c_source, generate_decision_module

__all__ = [
    "CompilationError",
    "CompositionError",
    "ModuleError",
    "NodeError",
    "SchedulingError",
    "SimulationError",
    "SoterError",
    "TopicError",
    "WellFormednessError",
    "Resettable",
    "is_resettable",
    "reset_all",
    "Topic",
    "TopicBoard",
    "TopicRegistry",
    "ConstantNode",
    "FunctionNode",
    "Node",
    "RelayNode",
    "validate_outputs",
    "Calendar",
    "CalendarEntry",
    "hyperperiod",
    "SafetySpec",
    "always_safe",
    "never_safe",
    "ModuleCertificate",
    "RTAModuleInstance",
    "RTAModuleSpec",
    "DecisionModule",
    "Mode",
    "ModeSwitch",
    "Region",
    "classify_region",
    "is_consistent",
    "CheckResult",
    "CheckerOptions",
    "WellFormednessChecker",
    "WellFormednessReport",
    "structural_report",
    "RTASystem",
    "compose_all",
    "EngineStatistics",
    "SemanticsEngine",
    "DeadlineMonitor",
    "InvariantMonitor",
    "MonitorCadence",
    "MonitorResult",
    "MonitorSuite",
    "SeparationMonitor",
    "TopicSafetyMonitor",
    "Violation",
    "CompilationResult",
    "Program",
    "SoterCompiler",
    "compile_program",
    "generate_c_source",
    "generate_decision_module",
]
