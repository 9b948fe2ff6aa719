"""The mode/region coverage plane of the systematic testing engine.

Random and exhaustive exploration (see :mod:`repro.testing.strategies`)
answer *how* to resolve nondeterministic choices but not *which executions
are worth running next*.  The coverage plane makes that question
answerable: it observes, at every monitor sample of every execution, which
``(vehicle, dm_mode, region)`` triples the protected system occupied —
``dm_mode`` is the decision module's :class:`~repro.core.decision.Mode`
and ``region`` the observable operating region of Figure 10
(:func:`~repro.core.regions.classify_region`) — and accumulates them in a
:class:`CoverageMap`.

Three consumers build on it:

* :class:`~repro.testing.explorer.SystematicTester` (with
  ``track_coverage=True``) attaches a :class:`CoverageTracker` to the
  model instance's monitor suite, merges the per-execution maps into its
  cumulative :attr:`~repro.testing.explorer.SystematicTester.coverage`,
  and publishes the result as
  :attr:`~repro.testing.explorer.TestReport.coverage`;
* :class:`~repro.testing.parallel.ParallelTester` merges the per-shard
  cumulative maps — the merge adds counts, so it is associative,
  commutative and independent of worker completion order;
* :class:`~repro.testing.strategies.CoverageGuidedStrategy` receives each
  execution's map through ``observe_coverage`` and biases future choices
  toward the pairs the sweep has not visited yet.

Everything here is plain-data and picklable: maps cross process
boundaries with the parallel tester's result queue.

>>> a, b = CoverageMap(), CoverageMap()
>>> a.record("drone0", "AC", "R4:nominal")
>>> b.record("drone0", "AC", "R4:nominal")
>>> b.record("drone1", "SC", "R3:switching", count=2)
>>> merged = a.copy().merge(b)
>>> merged.total_samples, len(merged)
(4, 2)
>>> sorted(merged.pairs) == sorted(b.copy().merge(a).pairs)  # commutative
True
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Set, Tuple

from ..core.decision import DecisionModule
from ..core.module import RTAModuleSpec
from ..core.monitor import MonitorResult
from ..core.regions import classify_region
from ..core.semantics import SemanticsEngine

#: One occupancy key: (vehicle label, DM mode value, Region value).  Plain
#: strings, so keys pickle cheaply and render directly in tables.
CoverageKey = Tuple[str, str, str]


def vehicle_label(module_name: str) -> str:
    """The vehicle a namespaced module belongs to (for display grouping).

    Fleet compositions prefix every module name with the vehicle's topic
    namespace (``drone0/SafeMotionPrimitive``); the label is that prefix.
    Unprefixed (single-vehicle) modules are labelled by their own name.
    Coverage keys use the *full* module name (one vehicle may protect
    several modules — motion primitive and battery — whose modes and
    regions must not be conflated); this helper groups keys by vehicle
    when summarising fleets.

    >>> vehicle_label("drone1/SafeMotionPrimitive")
    'drone1'
    >>> vehicle_label("SafeMotionPrimitive")
    'SafeMotionPrimitive'
    """
    prefix, separator, _ = module_name.partition("/")
    return prefix if separator else module_name


@dataclass
class CoverageMap:
    """Occupancy counts over ``(vehicle, dm_mode, region)`` triples.

    The map is a plain counter: :meth:`record` adds samples,
    :meth:`merge` adds another map's counts into this one.  Because
    merging adds non-negative integers, it is associative, commutative
    and order-independent — the parallel tester relies on that to
    aggregate shard maps in whatever order workers finish
    (``tests/testing/test_coverage.py`` proves the laws).

    >>> cm = CoverageMap()
    >>> cm.record("drone0", "AC", "R4:nominal")
    >>> cm.record("drone0", "SC", "R3:switching", count=3)
    >>> len(cm), cm.total_samples
    (2, 4)
    >>> cm.novelty(("drone0", "AC", "R4:nominal"))
    0.5
    """

    counts: Counter = field(default_factory=Counter)

    # -- growing the map ------------------------------------------------- #
    def record(self, vehicle: str, mode: str, region: str, count: int = 1) -> None:
        """Add ``count`` samples of one ``(vehicle, mode, region)`` triple."""
        self.counts[(vehicle, mode, region)] += count

    def merge(self, other: "CoverageMap") -> "CoverageMap":
        """Fold ``other``'s counts into this map (in place); returns ``self``.

        ``Counter.update`` adds counts, so ``a.merge(b)`` and
        ``b.merge(a)`` hold the same counts afterwards, and merging many
        maps gives the same result in any order.
        """
        self.counts.update(other.counts)
        return self

    def copy(self) -> "CoverageMap":
        """An independent copy (mutating it leaves this map untouched)."""
        return CoverageMap(counts=Counter(self.counts))

    def clear(self) -> None:
        """Forget every recorded sample."""
        self.counts.clear()

    # -- reading the map -------------------------------------------------- #
    @property
    def pairs(self) -> Set[CoverageKey]:
        """The distinct ``(vehicle, mode, region)`` triples visited so far."""
        return set(self.counts)

    @property
    def total_samples(self) -> int:
        """Total number of recorded samples across all triples."""
        return self.counts.total()

    def __len__(self) -> int:
        return len(self.counts)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def new_pairs_against(self, other: "CoverageMap") -> Set[CoverageKey]:
        """Triples this map visits that ``other`` has never seen."""
        return {key for key in self.counts if key not in other.counts}

    def novelty(self, key: CoverageKey) -> float:
        """How novel one triple is under this map: ``1 / (1 + visits)``.

        1.0 for a never-visited triple, decaying toward 0 as the triple
        saturates.  :class:`~repro.testing.strategies.CoverageGuidedStrategy`
        scores candidate choices with this.
        """
        return 1.0 / (1.0 + self.counts.get(key, 0))

    def table(self) -> str:
        """A small aligned occupancy table (vehicle / mode / region / samples)."""
        if not self.counts:
            return "coverage: <no samples>"
        rows = sorted(self.counts.items())
        lines = [f"coverage: {len(rows)} distinct (vehicle, mode, region) pair(s)"]
        width = max(len(vehicle) for (vehicle, _, _), _ in rows)
        for (vehicle, mode, region), count in rows:
            lines.append(f"  {vehicle:<{width}}  {mode:<2}  {region:<13}  {count:>6} sample(s)")
        return "\n".join(lines)


def merge_maps(maps: Iterable[Optional["CoverageMap"]]) -> CoverageMap:
    """Merge any number of maps (``None`` entries are skipped) into a new one."""
    merged = CoverageMap()
    for item in maps:
        if item is not None:
            merged.merge(item)
    return merged


@dataclass
class _TrackedModule:
    """One RTA module's coverage feed: where to read, how to classify."""

    vehicle: str
    spec: RTAModuleSpec
    decision: DecisionModule
    state_topic: str


class CoverageTracker:
    """Feeds a per-execution :class:`CoverageMap` from monitor samples.

    The tracker implements the monitor protocol (``check``/``reset``,
    plus an always-empty ``result``) so the systematic tester can drop it
    into the model instance's existing
    :class:`~repro.core.monitor.MonitorSuite`: it is sampled at exactly
    the instants the safety monitors are, but it never reports a
    violation, so attaching it cannot change any exploration verdict.

    Classification is cheap by construction: ``classify_region`` asks the
    module's φ_safe/φ_safer/``ttf_2Δ`` predicates, which all route
    through the workspace's warm
    :class:`~repro.geometry.ClearanceField` on the cached query plane and
    reuse any verdict already reached on the same state object.

    ``reset()`` clears only the per-execution map — the *cumulative* map
    lives with whoever owns the tracker (the tester), which is how the
    reset-and-reuse path keeps cumulative coverage warm across in-place
    instance resets.
    """

    def __init__(self, system: Any, name: str = "coverage", fault_plane: Any = None) -> None:
        self.name = name
        self.result = MonitorResult(name=name)  # stays empty: never a violation
        # The "vehicle" coordinate is the full (namespace-prefixed) module
        # name: in fleets that is "drone<i>/<Module>" — vehicle-qualified
        # by construction — and one vehicle's motion-primitive and battery
        # planes stay distinguishable.
        self._modules: List[_TrackedModule] = [
            _TrackedModule(
                vehicle=module.name,
                spec=module.spec,
                decision=module.decision,
                state_topic=module.spec.state_topics[0],
            )
            for module in getattr(system, "modules", [])
        ]
        # The fault axis: every fault site of the scenario's FaultPlane
        # (node injectors and topic gate states) exposes
        # ``coverage_sample(now)`` returning a (fault:<site>, kind, window)
        # key — or None outside/ahead of a decided window.  Recording
        # those keys alongside the mode/region triples lets the
        # coverage-guided strategy steer *into* fault activations the
        # same way it steers into rare modes.
        self._fault_sites: List[Any] = list(getattr(fault_plane, "fault_sites", ()) or ())
        self._execution = CoverageMap()

    # -- the monitor protocol -------------------------------------------- #
    def check(self, engine: SemanticsEngine) -> None:
        """Record one sample per tracked module; never returns a violation."""
        for tracked in self._modules:
            state = engine.read_topic(tracked.state_topic)
            if state is None:
                continue  # nothing injected yet: no region to classify
            self._execution.record(
                tracked.vehicle,
                tracked.decision.mode.value,
                classify_region(tracked.spec, state).value,
            )
        if self._fault_sites:
            now = engine.current_time
            for site in self._fault_sites:
                key = site.coverage_sample(now)
                if key is not None:
                    self._execution.record(*key)

    def reset(self) -> None:
        """Start the next execution's map (the cumulative one is the owner's)."""
        self._execution = CoverageMap()

    # -- delta-snapshot hooks (see repro.core.resettable) ---------------- #
    def capture_delta_state(self) -> Counter:
        return self._execution.counts.copy()

    def restore_delta_state(self, state: Counter) -> None:
        # A fresh map: one handed over by take_execution_map is the owner's.
        self._execution = CoverageMap(counts=state.copy())

    @property
    def tracks_anything(self) -> bool:
        """False with no RTA modules and no fault sites (nothing to classify)."""
        return bool(self._modules) or bool(self._fault_sites)

    @property
    def execution_map(self) -> CoverageMap:
        """The (live) map of the execution currently being explored."""
        return self._execution

    def take_execution_map(self) -> CoverageMap:
        """Hand over the finished execution's map and start a fresh one."""
        finished = self._execution
        self._execution = CoverageMap()
        return finished
