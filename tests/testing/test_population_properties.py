"""Property harness: population == serial on hundreds of synthetic scenarios.

The registered-scenario equivalence suite proves the population plane on
the case-study models; this harness attacks the same property from the
other side, with a *generator*: seeded random choice-tree scenarios —
nondeterministic nodes and environments with varied branching, periods,
depth, and violation placement — each swept by the serial
:class:`~repro.testing.SystematicTester` and the
:class:`~repro.testing.population.PopulationTester` under the same
strategy.  Reports and coverage must match byte for byte on every one,
with the delta chain limit fuzzed, snapshots fuzzed on and off
(compact-only), and both random and exhaustive strategies.  Between
them the generated models exercise the trie split/compaction paths,
eager snapshotting, the delta capture/restore chains and the adaptive
scheduler on shapes no hand-written scenario covers.
"""

import random

import pytest

from repro.core.compiler import Program, SoterCompiler
from repro.core.monitor import DeadlineMonitor, MonitorSuite, TopicSafetyMonitor
from repro.core.specs import SafetySpec
from repro.core.topics import Topic
from repro.testing import (
    ExhaustiveStrategy,
    PopulationTester,
    RandomStrategy,
    SystematicTester,
)
from repro.testing import population as population_module
from repro.testing.abstractions import AbstractEnvironment, NondeterministicNode
from repro.testing.explorer import ModelInstance

#: How many generated scenarios the harness sweeps (the property budget).
PROPERTY_CASES = 200

#: Finite pools the generator draws from — values are arbitrary but the
#: *shape* axes matter: branching factor, node/environment periods (which
#: set the choice depth within the horizon), and violation thresholds.
_PERIODS = (0.1, 0.2, 0.25, 0.5)
_HORIZONS = (0.5, 0.8, 1.0)
_MENU_VALUES = (-3.0, -1.0, 0.0, 1.0, 2.0, 5.0, 8.0)


def _synthetic_instance(seed: int) -> ModelInstance:
    """A deterministic random choice-tree model for ``seed``.

    Builders must be deterministic per seed (the tester may rebuild), so
    all randomness comes from one seeded generator and every artefact is
    derived from it in a fixed order.
    """
    rng = random.Random(seed)
    node_count = rng.randint(1, 3)
    topics = []
    nodes = []
    monitors = []
    for n in range(node_count):
        topic_count = rng.randint(1, 2)
        menus = {}
        for t in range(topic_count):
            name = f"n{n}t{t}"
            options = rng.sample(_MENU_VALUES, rng.randint(2, 4))
            menus[name] = options
            topics.append(Topic(name, float))
            # Violation placement: ~half the topics get a safety monitor
            # whose threshold sometimes excludes menu values (violating
            # trails exist) and sometimes not (fully safe scenario).
            if rng.random() < 0.5:
                threshold = rng.choice((1.5, 4.0, 10.0))
                monitors.append(
                    TopicSafetyMonitor(
                        name=f"phi_{name}",
                        topic=name,
                        spec=SafetySpec(
                            f"{name}<{threshold}", lambda v, t=threshold: v < t
                        ),
                    )
                )
            elif rng.random() < 0.3:
                # A streak property: only *sustained* bad values violate,
                # exercising the deadline monitor's cross-boundary state.
                monitors.append(
                    DeadlineMonitor(
                        name=f"phi_dl_{name}",
                        topic=name,
                        spec=SafetySpec(f"{name}<=2", lambda v: v <= 2.0),
                        grace=rng.choice((0.1, 0.3)),
                    )
                )
        nodes.append(
            NondeterministicNode(
                name=f"chooser{n}", menus=menus, period=rng.choice(_PERIODS)
            )
        )
    env_menus = {}
    for t in range(rng.randint(0, 2)):
        name = f"envt{t}"
        env_menus[name] = rng.sample(_MENU_VALUES, rng.randint(2, 3))
        topics.append(Topic(name, float))
        if rng.random() < 0.4:
            monitors.append(
                TopicSafetyMonitor(
                    name=f"phi_{name}",
                    topic=name,
                    spec=SafetySpec(f"{name}<5", lambda v: v < 5.0),
                )
            )
    environment = (
        AbstractEnvironment(menus=env_menus, period=rng.choice(_PERIODS))
        if env_menus
        else None
    )
    program = Program(name=f"synthetic-{seed}", topics=topics, nodes=nodes)
    system = SoterCompiler(strict=False).compile(program).system
    return ModelInstance(
        system=system,
        monitors=MonitorSuite(monitors),
        environment=environment,
        horizon=rng.choice(_HORIZONS),
    )


def _record_key(record):
    return (
        record.index,
        record.steps,
        tuple(record.trail or ()),
        tuple(
            (violation.time, violation.monitor, violation.message, violation.state)
            for violation in record.violations
        ),
    )


def _strategy_for(seed: int):
    """Random sweeps mostly; every fourth case enumerates exhaustively."""
    if seed % 4 == 3:
        return ExhaustiveStrategy(max_depth=rngless_depth(seed), max_executions=12)
    return RandomStrategy(seed=seed * 31 + 7, max_executions=10)


def rngless_depth(seed: int) -> int:
    return 2 + (seed // 4) % 3


def _eager_snapshots(monkeypatch):
    monkeypatch.setattr(population_module, "SNAPSHOT_AFTER", 1)
    monkeypatch.setattr(population_module, "SNAPSHOT_MIN_STEPS", 1)


@pytest.mark.parametrize("seed", range(PROPERTY_CASES))
def test_population_equals_serial_on_synthetic_scenario(seed, monkeypatch):
    _eager_snapshots(monkeypatch)
    shared = bool(seed % 3)  # fuzz compact-only vs shared
    if not shared:
        # Above any boundary-hit count: no node ever earns a snapshot.
        monkeypatch.setattr(population_module, "SNAPSHOT_AFTER", 10**9)
    monkeypatch.setattr(population_module, "DELTA_CHAIN_LIMIT", 1 + seed % 4)
    factory = lambda: _synthetic_instance(seed)
    serial = SystematicTester(factory, _strategy_for(seed))
    population = PopulationTester(factory, _strategy_for(seed))
    serial_report = serial.explore()
    population_report = population.explore()
    serial_keys = [_record_key(r) for r in serial_report.executions]
    population_keys = [_record_key(r) for r in population_report.executions]
    assert population_keys == serial_keys
    assert population.coverage.counts == serial.coverage.counts
    assert population.stats.executions == len(serial_report.executions)
    # Snapshotting must never silently give way to prefix replay: the
    # tier-1 gate on the vectorized plane rides on the snapshot path.
    assert population.stats.snapshot_fallbacks == 0
    if not shared:
        assert population.stats.snapshots_taken == 0


def test_generator_produces_violating_and_safe_scenarios():
    """The property sweep is only meaningful if both outcomes occur."""
    outcomes = set()
    for seed in range(PROPERTY_CASES):
        population = PopulationTester(
            lambda: _synthetic_instance(seed), RandomStrategy(seed=1, max_executions=4)
        )
        outcomes.add(population.explore().ok)
        if len(outcomes) == 2:
            break
    assert outcomes == {True, False}


def test_generator_exercises_snapshot_and_delta_paths(monkeypatch):
    """Across the sweep, snapshots are taken, restored, and chained."""
    _eager_snapshots(monkeypatch)
    taken = restored = chained = 0
    for seed in range(0, 40):
        population = PopulationTester(
            lambda: _synthetic_instance(seed), RandomStrategy(seed=5, max_executions=16)
        )
        population.explore()
        stats = population.stats
        taken += stats.snapshots_taken
        restored += stats.restores
        chained += stats.delta_snapshots
    assert taken > 0
    assert restored > 0
    assert chained > 0
