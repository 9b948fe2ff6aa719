"""A registry of named, buildable systematic-testing scenarios.

Benchmarks, examples, the serial :class:`~repro.testing.SystematicTester`
and the parallel tester all need the same thing: a way to construct a
fresh :class:`~repro.testing.explorer.ModelInstance` per execution.  The
registry names those constructions so every consumer builds workloads
through one API — and so worker *processes* can rebuild a scenario from
its name alone instead of shipping unpicklable closures across the
process boundary.

Scenario builders must be deterministic (fix every seed): counterexample
replay and serial/parallel equivalence both rely on execution ``i`` of a
scenario behaving identically no matter where it runs.

The toy closed-loop scenario lives here because it only needs the core;
the drone-stack scenarios (surveillance, battery abort, faulty planner,
geofence) are registered by :mod:`repro.apps.scenarios`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from ..core.compiler import Program, SoterCompiler
from ..core.module import RTAModuleSpec
from ..core.monitor import InvariantMonitor, MonitorSuite, TopicSafetyMonitor
from ..core.node import FunctionNode
from ..core.specs import SafetySpec
from ..core.topics import Topic
from .abstractions import AbstractEnvironment
from .explorer import ModelInstance

ScenarioBuilder = Callable[..., ModelInstance]


@dataclass(frozen=True)
class Scenario:
    """A named, parameterisable construction of a model under test."""

    name: str
    builder: ScenarioBuilder
    description: str = ""
    tags: Tuple[str, ...] = ()

    def build(self, **overrides: Any) -> ModelInstance:
        """Construct a fresh model instance (keyword overrides reach the builder)."""
        return self.builder(**overrides)


_REGISTRY: Dict[str, Scenario] = {}
_BUILTINS_LOADED = False


def register_scenario(
    name: str, description: str = "", tags: Tuple[str, ...] = ()
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Decorator: register ``builder`` under ``name`` (must be unique)."""

    def decorate(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = Scenario(name=name, builder=builder, description=description, tags=tags)
        return builder

    return decorate


def _load_builtins() -> None:
    """Import the modules that register the built-in scenarios (idempotent)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # The apps layer registers the drone-stack scenarios on import.  The
    # import is deferred so that `repro.testing` does not drag the whole
    # case study in unless scenarios are actually used.  The flag is only
    # set once the import succeeds, so a failing import surfaces its real
    # error on every lookup instead of a misleading KeyError.
    from ..apps import scenarios as _apps_scenarios  # noqa: F401

    _BUILTINS_LOADED = True


def scenario(name: str) -> Scenario:
    """Look up a registered scenario by name.

    Raises ``KeyError`` (listing the known names) for unknown scenarios.

    >>> scenario("toy-closed-loop").tags
    ('toy', 'core')
    """
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown scenario {name!r} (registered: {known})") from None


def build_scenario(name: str, **overrides: Any) -> ModelInstance:
    """Build a fresh model instance of a registered scenario.

    Keyword ``overrides`` are passed straight to the registered builder.

    >>> instance = build_scenario("toy-closed-loop", horizon=0.5)
    >>> instance.horizon
    0.5
    """
    return scenario(name).build(**overrides)


def registered_scenarios() -> List[str]:
    """Sorted names of every registered scenario.

    >>> "drone-surveillance" in registered_scenarios()
    True
    """
    _load_builtins()
    return sorted(_REGISTRY)


@dataclass(frozen=True)
class ScenarioFactory:
    """A picklable ``harness_factory``: rebuilds a scenario from its name.

    Worker processes carry this across the process boundary instead of a
    closure — under the ``spawn`` start method only the name and the
    (picklable) overrides travel; the scenario itself is rebuilt from the
    registry inside the worker.
    """

    name: str
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __call__(self) -> ModelInstance:
        return build_scenario(self.name, **dict(self.overrides))


def scenario_factory(name: str, **overrides: Any) -> ScenarioFactory:
    """A picklable zero-argument factory for a registered scenario.

    Unknown names and overrides the builder does not accept fail eagerly
    (here, not in a worker process or a mission's runner thread).

    >>> factory = scenario_factory("toy-closed-loop", broken_ttf=True)
    >>> factory().horizon
    2.0
    >>> scenario_factory("toy-closed-loop", bogus=1)
    Traceback (most recent call last):
    ...
    TypeError: scenario 'toy-closed-loop': got an unexpected keyword argument 'bogus'
    """
    try:
        inspect.signature(scenario(name).builder).bind(**overrides)
    except TypeError as error:
        raise TypeError(f"scenario {name!r}: {error}") from None
    return ScenarioFactory(name=name, overrides=tuple(sorted(overrides.items())))


# --------------------------------------------------------------------- #
# built-in scenario: the 1-D toy closed loop
# --------------------------------------------------------------------- #

_TOY_CLIFF = 9.0
_TOY_MAX_SPEED = 1.0
_TOY_DELTA = 0.1


def _toy_forward(now: float, inputs: Any) -> Dict[str, float]:
    return {"cmd": _TOY_MAX_SPEED}


def _toy_retreat(now: float, inputs: Any) -> Dict[str, float]:
    return {"cmd": -_TOY_MAX_SPEED}


def _toy_safe(x: float) -> bool:
    return x < _TOY_CLIFF


def _toy_safer(x: float) -> bool:
    return x < _TOY_CLIFF - 2.0 * _TOY_DELTA * _TOY_MAX_SPEED - 0.2


def _toy_may_leave(x: float, horizon: float) -> bool:
    return x + _TOY_MAX_SPEED * horizon >= _TOY_CLIFF


@register_scenario(
    "toy-closed-loop",
    description=(
        "1-D rover guarding a cliff: an RTA module with exact reachability "
        "predicates, driven by a nondeterministic environment that can put "
        "the plant right at the switching boundary.  Safe by construction; "
        "pass broken_ttf=True for a variant whose decision module forgot "
        "the 2Δ lookahead and violates φ_Inv."
    ),
    tags=("toy", "core"),
)
def build_toy_closed_loop(
    broken_ttf: bool = False, horizon: float = 2.0, period: float = _TOY_DELTA
) -> ModelInstance:
    two_delta = 2.0 * _TOY_DELTA
    lookahead = 0.0 if broken_ttf else two_delta * _TOY_MAX_SPEED

    def ttf(x: float) -> bool:
        return x + lookahead >= _TOY_CLIFF

    module = RTAModuleSpec(
        name="toyRover",
        advanced=FunctionNode(
            "ac", _toy_forward, subscribes=("state",), publishes=("cmd",), period=0.05
        ),
        safe=FunctionNode(
            "sc", _toy_retreat, subscribes=("state",), publishes=("cmd",), period=0.05
        ),
        delta=_TOY_DELTA,
        safe_spec=SafetySpec("x<cliff", _toy_safe),
        safer_spec=SafetySpec("x<cliff-2Δ", _toy_safer),
        ttf=ttf,
        state_topics=("state",),
    )
    program = Program(
        name="toy-closed-loop",
        topics=[Topic("state", float), Topic("cmd", float, 0.0)],
        modules=[module],
    )
    system = SoterCompiler(strict=False).compile(program).system
    monitors = MonitorSuite(
        [InvariantMonitor(module=system.modules[0], may_leave_within=_toy_may_leave)]
    )
    environment = AbstractEnvironment(
        menus={"state": [2.0, _TOY_CLIFF - 0.6, _TOY_CLIFF - 0.25, _TOY_CLIFF - 0.05]},
        period=period,
    )
    return ModelInstance(system=system, monitors=monitors, environment=environment, horizon=horizon)
