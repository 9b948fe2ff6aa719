"""Systematic testing engine: strategies, abstractions, bounded-asynchrony exploration.

Serial exploration lives in :mod:`~repro.testing.explorer`; the
process-pool sharding of the same exploration lives in
:mod:`~repro.testing.parallel`; named workloads live in the scenario
registry (:mod:`~repro.testing.scenarios`).
"""

from .abstractions import AbstractEnvironment, NondeterministicNode, constant_environment
from .coverage import CoverageKey, CoverageMap, CoverageTracker, merge_maps, vehicle_label
from .explorer import (
    ExecutionRecord,
    ModelInstance,
    SystematicTester,
    TestReport,
)
from .parallel import ParallelReport, ParallelTester, ReplayConfirmation
from .population import PopulationStats, PopulationTester
from .resilience import ResilienceError, ResilienceReport, assert_rta_resilient
from .scenarios import (
    Scenario,
    ScenarioFactory,
    build_scenario,
    register_scenario,
    registered_scenarios,
    scenario,
    scenario_factory,
)
from .scheduler import BoundedAsynchronyScheduler
from .strategies import (
    ChoiceStrategy,
    CoverageGuidedStrategy,
    ExhaustiveStrategy,
    RandomStrategy,
    ReplayStrategy,
    record_trail,
    start_execution,
)

__all__ = [
    "AbstractEnvironment",
    "NondeterministicNode",
    "constant_environment",
    "CoverageKey",
    "CoverageMap",
    "CoverageTracker",
    "merge_maps",
    "vehicle_label",
    "ExecutionRecord",
    "ModelInstance",
    "SystematicTester",
    "TestReport",
    "ParallelReport",
    "ParallelTester",
    "ReplayConfirmation",
    "PopulationStats",
    "PopulationTester",
    "ResilienceError",
    "ResilienceReport",
    "assert_rta_resilient",
    "Scenario",
    "ScenarioFactory",
    "build_scenario",
    "register_scenario",
    "registered_scenarios",
    "scenario",
    "scenario_factory",
    "BoundedAsynchronyScheduler",
    "ChoiceStrategy",
    "CoverageGuidedStrategy",
    "ExhaustiveStrategy",
    "RandomStrategy",
    "ReplayStrategy",
    "record_trail",
    "start_execution",
]
