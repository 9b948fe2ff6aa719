"""Population execution plane: run K executions of one scenario in lock-step.

The reset-and-reuse explorer (:class:`~repro.testing.explorer.SystematicTester`)
pays the full engine loop for every execution, even though a systematic
sweep re-executes enormously redundant work: random sweeps over finite
menus revisit whole trails, and exhaustive enumeration's depth-first
odometer re-runs a deep shared prefix before every deviation.

:class:`PopulationTester` removes that redundancy while staying
**bit-identical** to the serial tester.  It maintains a *trail trie* — the
prefix tree of every choice sequence explored so far, annotated with the
option count and label of each choice point:

* executions that share a trail prefix are one *row-group*: they step as a
  single representative, materialised at most once;
* where choice trails branch, the group *splits* — a divergence is
  detected the moment the strategy draws a value with no trie edge, and
  only the diverged suffix runs live;
* fully-duplicated rows are *compacted*: a walk that ends on a leaf
  returns the recorded outcome without touching the engine at all.

Equivalence argument (the contract every test in
``tests/testing/test_population.py`` checks differentially): the model
under test is fully determined by its choice trail (the strategy
contract of :mod:`repro.testing.strategies`), so

1. the *walk* drives the **real** strategy through exactly the
   ``choose(options, label)`` calls the serial execution would make —
   RNG streams, odometer state and coverage credits evolve identically;
2. a walk ending on a leaf proves the serial execution would retrace a
   known trail, whose steps/violations/coverage were recorded when that
   trail first ran — returning them is what the serial tester would have
   recomputed;
3. a walk that diverges replays the already-drawn prefix *by value*
   (never re-drawing from the strategy) and hands the live tail back to
   the strategy — the same split the serial execution makes implicitly.

Prefix sharing is made cheap with *lazy snapshots*: trie nodes on
repeatedly re-run prefixes capture the model state at a step boundary;
later executions diverging below that node restore the capture instead
of re-executing the prefix.  Snapshots are a pure optimisation:
restoring one lands on exactly the state the replayed prefix would have
recomputed.

A snapshot is a component *delta*: the model is decomposed into
*components* — the engine scalars, topic board, calendar, each node's
local state, the monitors, and the environment — and a snapshot records
only the components whose state changed since the parent snapshot,
detected through the dirty-tracking version ids of
:mod:`repro.core.resettable` (``TopicBoard``/``Calendar``/environment
hooks, the engine's per-node fire clock).  A restore resolves each
component against the delta chain up to the deepest full snapshot and
rewinds the **live** instance in place, skipping components whose
version already matches — no pickling, no object-graph rebuild, and
capture cost proportional to what actually changed.  A model some
component of which resists capture (e.g. un-deepcopyable state) stops
snapshotting at the first failure and replays prefixes from then on
(compaction only), so only the speed changes
(``PopulationStats.snapshot_fallbacks`` records the switch); snapshots
captured before the failure keep restoring.

Snapshot *scheduling* is adaptive: :data:`SNAPSHOT_AFTER` caps how many
boundary visits a node needs before it earns a snapshot, and the
effective threshold anneals toward eager capture while live runs keep
replaying long prefixes (measured re-run depth), back toward lazy when
restores land exactly on the divergence point.

``population_size`` bounds the number of retained snapshots — the
working set of materialised row-group states (the (K, …) plant matrices
live in :class:`~repro.simulation.plantenv.RowGroupPlant`; here K bounds
state, not concurrency).

The trie is kept only while it pays.  The first :data:`SHARING_PROBE`
executions after the trie is (re)built, or after ``strategy`` is
replaced, are a *probe window*: they run on the trie as described
above.  If none of them compacted, restored or took a snapshot, the
traffic shares nothing, so the tester drops the trie and its snapshots
and runs every later execution on the *serial route* — the plain
:meth:`SystematicTester.run_single` step loop with the raw strategy
bound in place of the trail router — which is the serial tester
itself, hence trivially equal to it (``PopulationStats.serial_runs``
counts those executions).  :meth:`~SystematicTester.replay` always runs
on the serial route and touches neither the trie nor the probe.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.monitor import Violation
from ..core.resettable import capture_state, restore_state
from ..core.semantics import SemanticsEngine
from .coverage import CoverageMap
from .explorer import ExecutionRecord, ModelInstance, SystematicTester
from .strategies import ChoiceStrategy, record_trail

#: Live step-boundary visits a trie node must see before it earns a
#: snapshot (the laziness bound the adaptive threshold anneals below).
SNAPSHOT_AFTER = 3
#: Steps a prefix must have run before its snapshot can amortise.
SNAPSHOT_MIN_STEPS = 6
#: Chained deltas after which a capture is a full component vector
#: (bounds restore-time chain walks).
DELTA_CHAIN_LIMIT = 8
#: Executions the trie gets, after each reset or strategy swap, to show
#: any sharing (a compaction, a restore or a snapshot) before the tester
#: drops it and runs the serial step loop (at least 1).
SHARING_PROBE = 32


@dataclass
class _Leaf:
    """Recorded outcome of one fully-explored trail (a compacted row).

    ``tail`` is the path-compressed suffix of the trail: the
    ``(options, label, value)`` triples of every choice point below the
    trie node this leaf hangs from.  Suffixes only materialise into trie
    nodes when a second trail diverges somewhere inside them (the radix
    split in :meth:`PopulationTester._split_leaf`), so a sweep of mostly
    distinct trails allocates one leaf per trail instead of one node per
    choice.
    """

    steps: int
    violations: Tuple[Violation, ...]
    coverage: Optional[CoverageMap]
    tail: Tuple[Tuple[int, str, int], ...] = ()


@dataclass
class _Snapshot:
    """A row-group state captured at a step boundary of a shared prefix.

    The capture is the model mid-execution with exactly ``position``
    choices consumed — the values on the trie path to the node holding
    this snapshot, as an incremental component *delta*: ``vector`` maps
    component keys to captured states for the components that changed
    since ``parent`` (a full vector when ``parent`` is None), and
    ``versions`` records every component's dirty-tracking id at capture
    time so restores can skip components already in the right state.
    """

    steps: int
    violations: Tuple[Violation, ...]
    position: int
    vector: Dict[str, Any]
    versions: Dict[str, Optional[int]]
    parent: Optional["_Snapshot"] = None
    depth: int = 0


class _TrieNode:
    """One choice point (or trail end) in the trail trie.

    Three kinds, discriminated structurally:

    * **unexplored** — ``options is None`` and ``leaf is None`` (only the
      fresh root is ever observable in this state);
    * **internal** — ``options``/``label`` record the choice point;
      ``children`` maps each chosen value to the next node;
    * **leaf** — ``leaf`` holds the recorded outcome of the trail ending
      here.

    No trail is a strict prefix of another (same choices ⇒ same
    execution ⇒ same length), so a node is internal *or* leaf, never
    both.
    """

    __slots__ = ("options", "label", "children", "leaf", "snapshot", "boundary_hits")

    def __init__(self) -> None:
        self.options: Optional[int] = None
        self.label: str = ""
        self.children: Dict[int, "_TrieNode"] = {}
        self.leaf: Optional[_Leaf] = None
        self.snapshot: Optional[_Snapshot] = None
        self.boundary_hits: int = 0


class _TrailRouter:
    """The strategy facade bound into the model in place of the raw strategy.

    During a live run the first ``len(replay)`` choices are returned *by
    value* (they were already drawn from the real strategy during the trie
    walk — consuming them again would desynchronise RNG streams and
    odometers); every later choice delegates to the tester's strategy and
    is recorded in ``tail`` for trie extension.  The router holds the
    strategy, not the tester, so a tester is freed by reference counting
    alone.
    """

    __slots__ = ("_strategy", "_replay", "_expected", "position", "tail")

    def __init__(self) -> None:
        self._strategy: Optional[ChoiceStrategy] = None
        self._replay: List[int] = []
        self._expected: List[_TrieNode] = []
        self.position = 0
        self.tail: List[Tuple[int, str, int]] = []

    def arm(
        self,
        strategy: Optional[ChoiceStrategy],
        replay: List[int],
        expected: List[_TrieNode],
        position: int,
    ) -> None:
        """Prepare for one live run: strategy, replay values, trie path, start position."""
        self._strategy = strategy
        self._replay = replay
        self._expected = expected
        self.position = position
        self.tail = []

    def choose(self, options: int, label: str = "") -> int:
        position = self.position
        self.position = position + 1
        if position < len(self._replay):
            node = self._expected[position]
            if node.options != options or node.label != label:
                raise RuntimeError(
                    "model is not trail-deterministic: choice point "
                    f"{position} saw ({options}, {label!r}), trie recorded "
                    f"({node.options}, {node.label!r})"
                )
            return self._replay[position]
        value = self._strategy.choose(options, label)
        self.tail.append((options, label, value))
        return value


@dataclass
class PopulationStats:
    """Counters describing how much work the population plane elided."""

    executions: int = 0
    live_runs: int = 0  # trails that touched the engine
    compacted: int = 0  # dead rows: walks that ended on a known leaf
    restores: int = 0  # live runs resumed from a prefix snapshot
    snapshots_taken: int = 0
    snapshots_retained: int = 0
    replayed_choices: int = 0  # choices answered from the trie during live runs
    live_choices: int = 0
    delta_snapshots: int = 0  # incremental (non-full) component captures
    snapshot_fallbacks: int = 0  # 1 once a failed capture switched to replay
    serial_runs: int = 0  # executions run on the serial route (no trie)

    @property
    def compaction_rate(self) -> float:
        """Fraction of executions answered without running the engine."""
        if self.executions == 0:
            return 0.0
        return self.compacted / self.executions


#: Object types never captured into snapshots: immutable (or
#: execution-invariant) geometry shared by every execution.  Missing a
#: type here costs snapshot size, never correctness — a copied workspace
#: answers queries identically.
def _pin_types() -> tuple:
    from ..geometry.clearance import ClearanceField
    from ..geometry.occupancy import OccupancyGrid
    from ..geometry.workspace import Workspace

    return (Workspace, ClearanceField, OccupancyGrid)


class PopulationTester(SystematicTester):
    """A :class:`SystematicTester` that compacts and shares executions.

    Drop-in replacement: same constructor arguments plus
    ``population_size``, same :meth:`explore`/:meth:`run_single`/:meth:`replay`
    API, and — the load-bearing property — reports identical to the
    serial tester on every scenario and strategy (trails, steps,
    violations, coverage).  It always reuses one instance: row-group
    sharing is defined over it.

    Args:
        population_size: bound on retained prefix snapshots (the
            materialised row-group working set).

    The snapshot schedule reads :data:`SNAPSHOT_AFTER`,
    :data:`SNAPSHOT_MIN_STEPS` and :data:`DELTA_CHAIN_LIMIT`, and the
    sharing probe :data:`SHARING_PROBE`, when the tester is built.

    >>> from repro.testing import RandomStrategy, scenario_factory
    >>> tester = PopulationTester(
    ...     scenario_factory("toy-closed-loop", broken_ttf=True),
    ...     RandomStrategy(seed=0, max_executions=10))
    >>> report = tester.explore()
    >>> report.ok
    False
    >>> tester.stats.executions
    10
    """

    def __init__(
        self,
        harness_factory: Callable[[], ModelInstance],
        strategy: Optional[ChoiceStrategy] = None,
        max_permuted: int = 6,
        track_coverage: Optional[bool] = None,
        population_size: int = 256,
    ) -> None:
        if population_size < 1:
            raise ValueError("population_size must be at least 1")
        super().__init__(
            harness_factory,
            strategy,
            max_permuted=max_permuted,
            track_coverage=track_coverage,
        )
        self.population_size = population_size
        self._snapshot_after = SNAPSHOT_AFTER
        self._snapshot_min_steps = SNAPSHOT_MIN_STEPS
        self._delta_chain_limit = DELTA_CHAIN_LIMIT
        self._sharing_probe = SHARING_PROBE
        self.stats = PopulationStats()
        self._router = _TrailRouter()
        self._root = _TrieNode()
        # The track_coverage setting the trie's leaves and snapshots were
        # recorded under (None until the first execution).
        self._trie_tracking: Optional[bool] = None
        self._snapshots_ok = True  # flips off after the first failed capture
        # Snapshot bookkeeping: the component decomposition of the reused
        # instance, the objects every capture/restore memo keeps by
        # reference, and the version vector of the state point the live
        # graph last synchronised with (None right after a reset — the
        # next capture must be a full vector).
        self._components: Optional[List[Tuple[str, Any]]] = None
        self._component_pins: List[Any] = []
        self._delta_baseline: Optional[Dict[str, Optional[int]]] = None
        self._delta_parent: Optional[_Snapshot] = None
        self._effective_after = self._snapshot_after
        # The sharing probe: the strategy it watches, the trie executions
        # it has left (0 once the trie has paid), and whether it found no
        # sharing and switched to the serial route.
        self._probe_strategy: Optional[ChoiceStrategy] = None
        self._probe_left = 0
        self._serial_route = False

    def _acquire(self) -> Tuple[ModelInstance, SemanticsEngine]:
        built = self._instance is not None
        harness, engine = super()._acquire()
        if not built:
            # Plant-in-the-loop environments can step their vehicles as one
            # (K, …) matrix plant (see repro.simulation.plantenv) — ask for
            # the bit-identical batch path when the environment offers it;
            # the environment engages it from BATCH_PLANT_MIN_ROWS vehicles,
            # and the setting outlives resets.
            enable_batch = getattr(harness.environment, "set_batch_plant", None)
            if enable_batch is not None:
                enable_batch(True)
        return harness, engine

    # ------------------------------------------------------------------ #
    # single execution: the serial route, or walk the trie, then
    # compact / restore / run live
    # ------------------------------------------------------------------ #
    def run_single(self, index: int) -> ExecutionRecord:
        stats = self.stats
        stats.executions += 1
        tracking = self.track_coverage
        if tracking != self._trie_tracking:
            self._reset_trie(tracking)
        elif self.strategy is not self._probe_strategy:
            self._restart_probe()
        if self._serial_route:
            stats.serial_runs += 1
            return SystematicTester.run_single(self, index)
        if not self._probe_left:
            return self._walk(index)
        shared = stats.compacted + stats.restores + stats.snapshots_taken
        record = self._walk(index)
        if stats.compacted + stats.restores + stats.snapshots_taken != shared:
            self._probe_left = 0  # the trie pays: keep it
        else:
            self._probe_left -= 1
            if not self._probe_left:
                # A whole window without sharing: the trie is pure overhead.
                self._drop_trie()
                self._serial_route = True
        return record

    def _restart_probe(self) -> None:
        """Open a probe window on the trie for the current strategy."""
        self._probe_strategy = self.strategy
        self._probe_left = self._sharing_probe
        self._serial_route = False

    def _walk(self, index: int) -> ExecutionRecord:
        """One execution on the trie: walk it, then compact or run live."""
        node = self._root
        path_nodes: List[_TrieNode] = []
        values: List[int] = []
        strategy = self.strategy
        while True:
            leaf = node.leaf
            if leaf is not None:
                # Match the compressed suffix choice by choice, still
                # driving the real strategy.
                for matched, (options, label, value) in enumerate(leaf.tail):
                    drawn = strategy.choose(options, label)
                    if drawn != value:
                        self._split_leaf(node, leaf, matched, path_nodes, values)
                        values.append(drawn)
                        return self._run_live(index, path_nodes, values)
                return self._compact(index, leaf)
            if node.options is None:
                break  # the unexplored fresh root: everything runs live
            value = strategy.choose(node.options, node.label)
            path_nodes.append(node)
            values.append(value)
            child = node.children.get(value)
            if child is None:
                break  # divergence: no execution took this value here yet
            node = child
        return self._run_live(index, path_nodes, values)

    def _compact(self, index: int, leaf: _Leaf) -> ExecutionRecord:
        """A dead row: the walked trail is fully known — duplicate its outcome.

        The strategy already made every choice of this execution during
        the walk, so its state (and ``record_trail``) is exactly what the
        serial re-execution would leave behind; steps, violations and
        coverage come from the recorded first run of the trail.
        """
        self.stats.compacted += 1
        if leaf.coverage is not None:  # recorded iff the trie tracks coverage
            self._credit_coverage(leaf.coverage)
        return ExecutionRecord(
            index=index,
            steps=leaf.steps,
            violations=list(leaf.violations),
            trail=record_trail(self.strategy),
        )

    def _run_live(
        self, index: int, path_nodes: List[_TrieNode], values: List[int]
    ) -> ExecutionRecord:
        """Run the engine for a new trail, resuming from a snapshot if one fits."""
        self.stats.live_runs += 1
        router = self._router
        start_steps = 0
        base_violations: Tuple[Violation, ...] = ()
        restore_position = 0
        snapshot: Optional[_Snapshot] = None
        # Deepest snapshotted node on the walked path wins: its state has
        # consumed exactly the values leading to it.  A restore keeps the
        # model's binding, so it needs the router bound; after a serial-route
        # run (a replay) the model is rebound by running from the start.
        if self._bound_source is router:
            for j in range(len(path_nodes) - 1, 0, -1):
                snapshot = path_nodes[j].snapshot
                if snapshot is not None:
                    restore_position = j
                    break
        if snapshot is not None:
            self.stats.restores += 1
            # The restore rewinds the live instance in place — no new
            # objects, no tracker rebinding.
            self._restore_delta(snapshot)
            harness, engine = self._instance, self._engine
            start_steps = snapshot.steps
            base_violations = snapshot.violations
        else:
            self._delta_baseline = None
            self._delta_parent = None
            harness, engine = self._acquire()
            self._bind_strategy(harness, router)
        router.arm(self.strategy, values, path_nodes, restore_position)
        replayed = len(values) - restore_position
        self.stats.replayed_choices += replayed
        # Anneal the snapshot threshold from measured re-run depth: long
        # replayed prefixes mean capture is being under-spent on the paths
        # restores actually resume from; exact landings mean the current
        # laziness suffices.
        if replayed > 2:
            if self._effective_after > 1:
                self._effective_after -= 1
        elif replayed == 0 and self._effective_after < self._snapshot_after:
            self._effective_after += 1
        scheduler = self._order_scheduler(router)
        violations = self._violation_buffer
        violations.clear()
        violations.extend(base_violations)
        boundary = self._snapshot_policy(path_nodes) if self._snapshots_ok else None
        steps = self._run_steps(harness, engine, scheduler, start_steps, boundary)
        self.stats.live_choices += len(router.tail)
        leaf_coverage = self._harvest_coverage()
        self._extend_trie(
            path_nodes,
            values,
            _Leaf(
                steps=steps,
                violations=tuple(violations),
                coverage=leaf_coverage,
                tail=tuple(router.tail),
            ),
        )
        return ExecutionRecord(
            index=index,
            steps=steps,
            violations=list(violations),
            trail=record_trail(self.strategy),
        )

    def _snapshot_policy(self, path_nodes: List[_TrieNode]) -> Callable[[int], None]:
        """The step-boundary hook of one live run: the lazy snapshot policy.

        A step boundary inside the walked (shared) prefix makes the node at
        the current choice position a snapshot candidate; live tails
        (position beyond the walked path) never pay for copies.
        """
        router = self._router
        population = self.stats
        violations = self._violation_buffer
        n_path = len(path_nodes)
        snapshot_after = self._effective_after
        min_steps = self._snapshot_min_steps

        def at_boundary(steps: int) -> None:
            position = router.position
            if 1 <= position < n_path:
                node = path_nodes[position]
                if node.snapshot is None:
                    node.boundary_hits += 1
                    if (
                        node.boundary_hits >= snapshot_after
                        and steps >= min_steps
                        and population.snapshots_retained < self.population_size
                        and self._snapshots_ok
                    ):
                        try:
                            node.snapshot = self._take_snapshot(steps, violations, position)
                        except Exception:
                            # Some component resists capture (e.g.
                            # un-deepcopyable state): replay prefixes from
                            # now on.
                            self._snapshots_ok = False
                            population.snapshot_fallbacks += 1
                            return
                        population.snapshots_taken += 1
                        population.snapshots_retained += 1

        return at_boundary

    # ------------------------------------------------------------------ #
    # trie maintenance
    # ------------------------------------------------------------------ #
    def _reset_trie(self, tracking: bool) -> None:
        """Start a fresh trie for ``tracking``, and a fresh probe window.

        Leaves record coverage only while tracking is on, and switching it
        on adds a tracker to the monitor roster, so nothing recorded under
        the other setting describes what an execution would do now.
        """
        self._trie_tracking = tracking
        self._drop_trie()
        self._restart_probe()

    def _drop_trie(self) -> None:
        """Forget every recorded trail and snapshot, and the component list."""
        self._root = _TrieNode()
        self._components = None
        self._component_pins = []
        self._delta_baseline = None
        self._delta_parent = None
        self._router.arm(None, [], [], 0)
        self.stats.snapshots_retained = 0

    def _split_leaf(
        self,
        node: _TrieNode,
        leaf: _Leaf,
        matched: int,
        path_nodes: List[_TrieNode],
        values: List[int],
    ) -> None:
        """Radix split: a walk diverged inside a compressed leaf suffix.

        Materialises internal nodes for the first ``matched + 1`` entries
        of ``leaf.tail`` (the matched prefix plus the mismatching choice
        point), re-hangs the old outcome one edge below the mismatch with
        the rest of its suffix still compressed, and extends
        ``path_nodes``/``values`` with the materialised chain — the
        mismatch node joins ``path_nodes`` with no value; the caller
        appends the freshly drawn one.
        """
        tail = leaf.tail
        node.leaf = None
        current = node
        for position in range(matched + 1):
            options, label, value = tail[position]
            current.options = options
            current.label = label
            path_nodes.append(current)
            if position < matched:
                values.append(value)
            child = _TrieNode()
            current.children[value] = child
            current = child
        # ``current`` (under the mismatch entry's recorded value) carries
        # the old trail's outcome with the rest of its suffix compressed.
        current.leaf = _Leaf(
            steps=leaf.steps,
            violations=leaf.violations,
            coverage=leaf.coverage,
            tail=tail[matched + 1 :],
        )

    def _extend_trie(
        self,
        path_nodes: List[_TrieNode],
        values: List[int],
        leaf: _Leaf,
    ) -> None:
        """Hang the new trail's outcome (live tail kept compressed) on the trie."""
        if values:
            parent = path_nodes[-1]
            node = parent.children.get(values[-1])
            if node is None:
                node = _TrieNode()
                parent.children[values[-1]] = node
        else:
            node = self._root
        node.leaf = leaf

    # ------------------------------------------------------------------ #
    # snapshots: component decomposition, capture, restore
    # ------------------------------------------------------------------ #
    def _ensure_components(self) -> None:
        """Decompose the reused instance into snapshot components.

        Component keys are stable across the sweep (the reuse contract
        fixes the node set and monitor roster after the first acquire).
        Every component object — plus the system wiring it hangs from, the
        router and the static geometry — is pinned into capture/restore
        memos, so a component's captured state holds cross-component
        *references*, never clones: each component's state always comes
        from its own snapshot entry.
        """
        engine = self._engine
        instance = self._instance
        assert engine is not None and instance is not None
        components: List[Tuple[str, Any]] = [
            ("engine", engine),
            ("board", engine.board),
            ("calendar", engine.calendar),
        ]
        for name, node in engine._nodes.items():
            components.append(("node:" + name, node))
        # The suite itself holds no per-execution state, only its roster.
        for index, monitor in enumerate(instance.monitors.monitors):
            components.append((f"monitor:{index}", monitor))
        if instance.environment is not None:
            components.append(("environment", instance.environment))
        pins: List[Any] = [obj for _, obj in components]
        pins.extend([instance, instance.monitors, engine.system, self._router])
        for module in getattr(engine.system, "modules", ()):
            pins.extend([module, module.spec])
        pins.extend(self._collect_pins(instance, engine))
        self._components = components
        self._component_pins = pins

    def _component_memo(self) -> Dict[int, Any]:
        """Deepcopy memo for one capture/restore event: every pinned object
        (kept by reference; components are restored via their own entry)."""
        return {id(obj): obj for obj in self._component_pins}

    def _take_snapshot(
        self, steps: int, violations: List[Violation], position: int
    ) -> _Snapshot:
        """Capture the live instance as a delta against the last state point."""
        if self._components is None:
            self._ensure_components()
        engine = self._engine
        node_versions = engine.node_versions
        baseline = self._delta_baseline
        parent = self._delta_parent
        full = (
            baseline is None
            or parent is None
            or parent.depth + 1 >= self._delta_chain_limit
        )
        if full:
            parent = None
        memo = self._component_memo()
        vector: Dict[str, Any] = {}
        versions: Dict[str, Optional[int]] = {}
        for key, obj in self._components:
            if key.startswith("node:"):
                version: Optional[int] = node_versions.get(key[5:], 0)
            else:
                version = getattr(obj, "delta_version", None)
            versions[key] = version
            if full or version is None or baseline.get(key) != version:
                vector[key] = capture_state(obj, memo)
        snapshot = _Snapshot(
            steps=steps,
            violations=tuple(violations),
            position=position,
            vector=vector,
            versions=versions,
            parent=parent,
            depth=0 if parent is None else parent.depth + 1,
        )
        if parent is not None:
            self.stats.delta_snapshots += 1
        self._delta_baseline = versions
        self._delta_parent = snapshot
        return snapshot

    def _restore_delta(self, snapshot: _Snapshot) -> None:
        """Rewind the live instance, in place, to a snapshot.

        Each component's target state is its shallowest occurrence on the
        parent chain (the full root vector covers every component);
        components whose live version id already equals the target are
        provably unchanged and skipped.
        """
        resolved: Dict[str, Any] = {}
        chain: Optional[_Snapshot] = snapshot
        while chain is not None:
            for key, state in chain.vector.items():
                if key not in resolved:
                    resolved[key] = state
            chain = chain.parent
        memo = self._component_memo()
        engine = self._engine
        node_versions = engine.node_versions
        versions = snapshot.versions
        assert self._components is not None
        for key, obj in self._components:
            target = versions[key]
            if key.startswith("node:"):
                name = key[5:]
                if node_versions.get(name, 0) == target:
                    continue
                restore_state(obj, resolved[key], memo)
                node_versions[name] = target  # type: ignore[assignment]
            else:
                if target is not None and getattr(obj, "delta_version", None) == target:
                    continue
                restore_state(obj, resolved[key], memo)
                if target is not None:
                    obj.delta_version = target
        self._delta_baseline = versions
        self._delta_parent = snapshot

    def _collect_pins(self, *roots: Any) -> List[Any]:
        """Find the static geometry reachable from the model object graph.

        A plain iterative traversal over ``__dict__``/container structure;
        objects of the pinned types are collected and not descended into.
        The traversal runs once per component decomposition — objects it
        misses (e.g. geometry reachable only through ``__slots__``) merely
        get copied into snapshots, which costs memory, not correctness.
        """
        pin_types = _pin_types()
        pins: List[Any] = []
        seen: set = set()
        atomic = (str, bytes, int, float, bool, complex, type(None))
        stack: List[Any] = [obj for obj in roots if obj is not None]
        while stack:
            obj = stack.pop()
            if isinstance(obj, atomic):
                continue
            oid = id(obj)
            if oid in seen:
                continue
            seen.add(oid)
            if isinstance(obj, pin_types):
                pins.append(obj)
                continue
            if isinstance(obj, (types.FunctionType, types.BuiltinFunctionType, types.ModuleType, type)):
                continue
            if isinstance(obj, types.MethodType):
                stack.append(obj.__self__)
                continue
            if isinstance(obj, dict):
                stack.extend(obj.keys())
                stack.extend(obj.values())
                continue
            if isinstance(obj, (list, tuple, set, frozenset)):
                stack.extend(obj)
                continue
            attributes = getattr(obj, "__dict__", None)
            if attributes:
                stack.extend(attributes.values())
        return pins
