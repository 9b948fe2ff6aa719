"""Parallel systematic testing: shard executions across worker processes.

The serial :class:`~repro.testing.SystematicTester` explores one execution
at a time in-process.  This module scales the same exploration across
worker processes:

* **Random sweeps** are sharded by execution index.  Because
  :class:`~repro.testing.strategies.RandomStrategy` derives execution
  *i*'s RNG stream from ``(seed, i)``, every worker reproduces exactly the
  choices the serial tester would have made for its slice — same seed ⇒
  same violation set and identical replayable trails, regardless of the
  worker count.

* **Exhaustive enumeration** is sharded by *trail prefix*.  The first
  choice point of a model is reached deterministically, so pinning each of
  its options splits the choice tree into disjoint subtrees; a few cheap
  probe executions discover the branching structure and
  :class:`~repro.testing.strategies.ExhaustiveStrategy`'s ``prefix``
  restricts each worker to its own subtree.  The union of the subtree
  enumerations is exactly the serial enumeration.

The shards run as one session on a private, in-process
:class:`~repro.swarm.controlplane.ControlPlane` — the scheduler the HTTP
swarm and the mission service use.  Each forked worker is a
:class:`~repro.swarm.drone.Drone` that reaches the plane over a
``multiprocessing.Pipe`` and streams
:class:`~repro.testing.explorer.ExecutionRecord`s home as they finish;
a single-shard run uses one in-process drone thread that calls the
plane directly.  The plane's ladder heals the pool: a worker that dies
has its shard re-leased to a survivor, and ingestion keyed by execution
identity keeps every record exactly once.  With early stop, the first
ingested violation drains every worker.  Every counterexample the pool
reports can be (and by default is) replayed on the serial engine for
confirmation.

Workloads are named through the scenario registry
(:mod:`repro.testing.scenarios`) so that worker processes can rebuild the
model under test from a string instead of pickling closures; an arbitrary
``harness_factory`` is also accepted (it must be picklable: it travels
to the workers inside their lease grants).
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.monitor import Violation
from .explorer import ExecutionRecord, ModelInstance, SystematicTester, TestReport
from .scenarios import scenario_factory
from .strategies import ChoiceStrategy, ExhaustiveStrategy, RandomStrategy

HarnessFactory = Callable[[], ModelInstance]


# --------------------------------------------------------------------- #
# work descriptions shipped to workers
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _RandomShard:
    """A slice of a random sweep: run exactly these execution indices."""

    factory: HarnessFactory
    seed: int
    max_executions: int
    indices: Tuple[int, ...]
    max_permuted: int
    stop_at_first_violation: bool
    track_coverage: bool = False


@dataclass(frozen=True)
class _ExhaustiveShard:
    """A set of disjoint choice-tree subtrees to enumerate fully."""

    factory: HarnessFactory
    prefixes: Tuple[Tuple[int, ...], ...]
    max_depth: int
    max_executions: int
    max_permuted: int
    stop_at_first_violation: bool
    track_coverage: bool = False


# --------------------------------------------------------------------- #
# reports
# --------------------------------------------------------------------- #


@dataclass
class ReplayConfirmation:
    """The serial replay of one parallel-found counterexample."""

    trail: List[int]
    replayed: ExecutionRecord
    confirmed: bool


@dataclass
class ParallelReport(TestReport):
    """A :class:`TestReport` plus parallel-run bookkeeping."""

    workers: int = 0
    wall_time: float = 0.0
    partitions: List[Tuple[int, ...]] = field(default_factory=list)
    confirmations: List[ReplayConfirmation] = field(default_factory=list)
    #: How many shards ran to completion (an early stop cancels the rest).
    completed_workers: int = 0
    #: Duplicate executions the control plane's idempotent ingestion
    #: dropped (zombie/re-lease/split races; 0 on a healthy run).
    duplicates: int = 0
    #: The session's self-healing event log (warnings, re-leases, splits,
    #: drone deaths) — the report-side view of the escalation ladder.
    events: List[str] = field(default_factory=list)

    @property
    def all_confirmed(self) -> bool:
        """True when every counterexample replayed to a violation serially."""
        return len(self.confirmations) == len(self.failing) and all(
            confirmation.confirmed for confirmation in self.confirmations
        )

    def summary(self) -> str:
        base = super().summary()
        return f"{base} [{self.workers} worker(s), {self.wall_time:.2f}s wall]"


def _violation_keys(violations: Sequence[Violation]) -> List[Tuple[float, str, str]]:
    return sorted((violation.time, violation.monitor, violation.message) for violation in violations)


# --------------------------------------------------------------------- #
# the parallel tester
# --------------------------------------------------------------------- #


class ParallelTester:
    """Shards a systematic-testing run across worker processes.

    The workers are drones of a private in-process control plane, so a
    worker that dies mid-shard is healed like a swarm drone: its shard
    is re-leased to a survivor.  Only when every worker is gone does
    :meth:`explore` raise, naming their exit codes.

    ``scenario`` names a registered scenario (the portable way to describe
    the workload — workers rebuild it by name); alternatively pass
    ``harness_factory`` as for :class:`SystematicTester` (picklable, when
    several workers each receive it over a pipe).  Every worker runs the
    serial :class:`SystematicTester`; workers, probes and :meth:`confirm`
    all build their model once and reset it between executions.

    ``track_coverage=True`` makes every worker feed the coverage plane;
    each streamed record carries its execution's coverage delta, and the
    deltas of accepted records are summed — addition, so the result is
    independent of worker completion order — into ``report.coverage``.  A random sweep's parallel coverage equals the
    serial tester's map for the same seed and budget exactly (identical
    per-execution maps, order-independent merge); an exhaustive run's
    map covers every execution the workers actually performed, which can
    exceed the serially-truncated record list.

    >>> from repro.testing import RandomStrategy
    >>> report = ParallelTester(
    ...     "toy-closed-loop", scenario_overrides={"broken_ttf": True},
    ...     strategy=RandomStrategy(seed=0, max_executions=6),
    ...     workers=2, track_coverage=True).explore()
    >>> report.ok, report.all_confirmed
    (False, True)
    >>> sorted({region for _, _, region in report.coverage.pairs})
    ['R4:nominal', 'R5:safer']
    """

    def __init__(
        self,
        scenario: Optional[str] = None,
        *,
        harness_factory: Optional[HarnessFactory] = None,
        strategy: Optional[ChoiceStrategy] = None,
        workers: Optional[int] = None,
        max_permuted: int = 6,
        scenario_overrides: Optional[dict] = None,
        track_coverage: bool = False,
    ) -> None:
        if (scenario is None) == (harness_factory is None):
            raise ValueError("pass exactly one of scenario= or harness_factory=")
        if scenario is not None:
            harness_factory = scenario_factory(scenario, **(scenario_overrides or {}))
        elif scenario_overrides:
            raise ValueError("scenario_overrides only applies with scenario=")
        self.harness_factory: HarnessFactory = harness_factory  # type: ignore[assignment]
        self.track_coverage = track_coverage
        self._probe_tester: Optional[SystematicTester] = None
        self.strategy: ChoiceStrategy = strategy or RandomStrategy()
        if not isinstance(self.strategy, (RandomStrategy, ExhaustiveStrategy)):
            raise TypeError(
                "ParallelTester shards RandomStrategy and ExhaustiveStrategy runs; "
                "replay a single trail with SystematicTester.replay instead"
            )
        self.workers = max(1, workers if workers is not None else (multiprocessing.cpu_count() or 1))
        self.max_permuted = max_permuted

    # ------------------------------------------------------------------ #
    # sharding
    # ------------------------------------------------------------------ #
    def _random_shards(self, stop_at_first_violation: bool) -> List[_RandomShard]:
        assert isinstance(self.strategy, RandomStrategy)
        total = self.strategy.max_executions
        workers = min(self.workers, total)
        # Contiguous balanced blocks: worker w runs indices [bounds[w], bounds[w+1]).
        base, extra = divmod(total, workers)
        shards: List[_RandomShard] = []
        start = 0
        for worker in range(workers):
            size = base + (1 if worker < extra else 0)
            shards.append(
                _RandomShard(
                    factory=self.harness_factory,
                    seed=self.strategy.seed,
                    max_executions=total,
                    indices=tuple(range(start, start + size)),
                    max_permuted=self.max_permuted,
                    stop_at_first_violation=stop_at_first_violation,
                    track_coverage=self.track_coverage,
                )
            )
            start += size
        return shards

    def _probe_option_counts(self, prefix: Tuple[int, ...]) -> List[int]:
        """Run one execution with ``prefix`` pinned; report the branching beyond it.

        All probes share one reset-and-reuse tester, so partitioning the
        choice tree costs one model build total rather than one per probe.
        """
        assert isinstance(self.strategy, ExhaustiveStrategy)
        strategy = ExhaustiveStrategy(max_depth=self.strategy.max_depth, prefix=prefix)
        if self._probe_tester is None:
            self._probe_tester = SystematicTester(
                self.harness_factory,
                strategy,
                max_permuted=self.max_permuted,
                # Probe records are discarded and re-enumerated by the
                # workers; counting their coverage would double-count.
                track_coverage=False,
            )
        else:
            self._probe_tester.strategy = strategy
        strategy.begin_execution()
        self._probe_tester.run_single(0)
        return strategy.option_counts()

    def partition_prefixes(self, target: Optional[int] = None, depth_cap: int = 4) -> List[Tuple[int, ...]]:
        """Split the choice tree into at least ``target`` disjoint subtrees.

        Breadth-first: probe a prefix (one execution along its all-zeros
        extension) to learn the branching factor at the next choice point,
        then replace the prefix by its children.  All executions sharing a
        prefix behave identically up to the next choice point, so siblings
        partition their parent exactly.  Probes cost one execution each
        and their records are discarded (workers re-enumerate them).
        """
        assert isinstance(self.strategy, ExhaustiveStrategy)
        target = target if target is not None else self.workers
        expandable: List[Tuple[int, ...]] = [()]
        leaves: List[Tuple[int, ...]] = []
        while expandable and len(expandable) + len(leaves) < target:
            prefix = expandable.pop(0)
            if len(prefix) >= depth_cap or len(prefix) + 1 >= self.strategy.max_depth:
                leaves.append(prefix)
                continue
            counts = self._probe_option_counts(prefix)
            if not counts:
                # No choice points beyond this prefix: a one-execution subtree.
                leaves.append(prefix)
            else:
                expandable.extend(prefix + (option,) for option in range(counts[0]))
        return leaves + expandable

    def _exhaustive_shards(self, stop_at_first_violation: bool) -> List[_ExhaustiveShard]:
        assert isinstance(self.strategy, ExhaustiveStrategy)
        prefixes = self.partition_prefixes()
        workers = min(self.workers, len(prefixes))
        assigned: List[List[Tuple[int, ...]]] = [[] for _ in range(workers)]
        for position, prefix in enumerate(prefixes):
            assigned[position % workers].append(prefix)
        return [
            _ExhaustiveShard(
                factory=self.harness_factory,
                prefixes=tuple(prefix_group),
                max_depth=self.strategy.max_depth,
                max_executions=self.strategy.max_executions,
                max_permuted=self.max_permuted,
                stop_at_first_violation=stop_at_first_violation,
                track_coverage=self.track_coverage,
            )
            for prefix_group in assigned
        ]

    # ------------------------------------------------------------------ #
    # exploration
    # ------------------------------------------------------------------ #
    def explore(
        self,
        stop_at_first_violation: bool = False,
        confirm_counterexamples: bool = True,
    ) -> ParallelReport:
        """Run the sharded exploration and aggregate the streamed records.

        With ``stop_at_first_violation`` the pool stops as soon as *a*
        counterexample arrives (not necessarily the one the serial tester
        would report first).  With ``confirm_counterexamples`` (default)
        every failing trail is replayed on the serial engine and the
        replay is attached to the report.
        """
        started = time.perf_counter()
        if isinstance(self.strategy, RandomStrategy):
            shards: Sequence[Any] = self._random_shards(stop_at_first_violation)
            partitions: List[Tuple[int, ...]] = []
        else:
            exhaustive_shards = self._exhaustive_shards(stop_at_first_violation)
            shards = exhaustive_shards
            partitions = [prefix for shard in exhaustive_shards for prefix in shard.prefixes]

        report = self._new_report(len(shards), partitions)
        self._execute(shards, report)

        self._finalise(report, stop_at_first_violation)
        if confirm_counterexamples:
            self.confirm(report)
        report.wall_time = time.perf_counter() - started
        return report

    def _new_report(self, workers: int, partitions: List[Tuple[int, ...]]) -> ParallelReport:
        """Report factory hook (the swarm facade substitutes its subclass)."""
        return ParallelReport(workers=workers, partitions=partitions)

    def _execute(self, shards: Sequence[Any], report: ParallelReport) -> None:
        """Run the shards and stream their records into ``report``.

        The shards become one session on a private in-process control
        plane.  Several shards fork one worker process per shard, each a
        drone reaching the plane over a pipe; a single shard runs on one
        in-process drone thread.  :class:`~repro.swarm.SwarmTester`
        overrides this hook to run the very same session over HTTP.
        """
        # Imported here: the swarm package builds on this module.
        from ..swarm import protocol
        from ..swarm.controlplane import ControlPlane
        from ..swarm.drone import LocalFleet

        if len(shards) > 1:
            try:  # each forked worker receives the factory pickled over its pipe
                pickle.dumps(self.harness_factory)
            except Exception as error:
                raise TypeError(f"several workers need a picklable harness_factory: {error}") from error
        plane = ControlPlane()
        finished = threading.Event()
        plane.add_listener(SimpleNamespace(session_finished=lambda _session: finished.set()))
        fleet = LocalFleet(plane, len(shards), processes=len(shards) > 1)
        # The private plane never reaches JSON: factories (any picklable
        # callable) and records travel as objects.
        encoded = [protocol.encode_shard(shard, portable=False) for shard in shards]
        try:
            self._run_on_plane(plane, encoded, report, finished, None, fleet=fleet)
        finally:
            fleet.stop()

    def _run_on_plane(
        self,
        plane: Any,
        shards: List[Dict[str, Any]],
        report: ParallelReport,
        finished: threading.Event,
        deadline: Optional[float],
        *,
        fleet: Any = None,
        on_session: Optional[Callable[[str], None]] = None,
        label: str = "",
    ) -> None:
        """Run one session on an in-process plane and ingest its report.

        Creates the session from the shards' wire form, hands its id to
        ``on_session``, then starts ``fleet`` (session first: the drones
        find work on their first poll).  The wait is event-driven:
        ``finished`` is set by the plane's ``session_finished`` listener.
        Every 0.25 s the wait also sweeps the healing ladder, reports
        exited workers and checks ``deadline`` (seconds, or ``None``).
        """
        session_id = plane.create_session(
            shards,
            stop_at_first_violation=bool(shards[0]["stop_at_first_violation"]),
            label=label,
        )
        if on_session is not None:
            on_session(session_id)
        if fleet is not None:
            fleet.start()
        give_up = None if deadline is None else time.monotonic() + deadline
        while not finished.wait(timeout=0.25):
            plane.sweep()  # keep the healing ladder ticking on a quiet fleet
            if fleet is not None:
                fleet.reap()
            if give_up is not None and time.monotonic() >= give_up:
                raise RuntimeError(f"session {session_id} missed its {deadline:.0f}s deadline")
        summary = plane.session_report(session_id)
        self._ingest_report(summary, report)
        self._raise_if_failed(summary, fleet)

    def _ingest_report(self, summary: Dict[str, Any], report: ParallelReport) -> None:
        """Fold a plane's session report (wire form) into ``report``."""
        from ..swarm import protocol

        for record_data in summary["records"]:
            report.executions.append(protocol.decode_record(record_data))
        coverage = protocol.decode_coverage(summary["coverage"])
        if coverage is not None:
            report.coverage.merge(coverage)
        report.completed_workers = sum(
            1 for shard in summary["shards"] if shard["status"] == "done"
        )
        report.duplicates = summary["duplicates"]
        report.events = list(summary["events"])
        report.invalidate_caches()

    @staticmethod
    def _raise_if_failed(summary: Dict[str, Any], fleet: Any) -> None:
        failure = summary["failed"]
        if failure is None:
            return
        exit_codes = []
        if fleet is not None:
            # A worker's pipe reads EOF before its exit status can be
            # collected: retire the fleet so every code is final.
            fleet.stop()
            exit_codes = fleet.exit_codes
        if any(code is not None for code in exit_codes):
            failure += f"\n(worker exit codes: {exit_codes})"
        raise RuntimeError(f"parallel exploration failed in a worker:\n{failure}")

    def _finalise(self, report: ParallelReport, stop_at_first_violation: bool) -> None:
        """Put streamed records into a deterministic order and reindex.

        Exhaustive runs are additionally truncated to the strategy's
        ``max_executions``: each subtree was enumerated under the same
        bound, and serial depth-first order is exactly ascending trail
        order (no trail is a strict prefix of another — executions that
        share leading choices behave identically up to their next choice
        point), so keeping the first ``max_executions`` sorted records
        reproduces the serial budget semantics.  Early-stopped runs are
        left untruncated: their execution set is already pruned and the
        counterexample that triggered the stop must survive.
        """
        if isinstance(self.strategy, RandomStrategy):
            report.executions.sort(key=lambda record: record.index)
            report.invalidate_caches()
            return
        report.executions.sort(key=lambda record: tuple(record.trail or ()))
        if not stop_at_first_violation:
            del report.executions[self.strategy.max_executions :]
        for position, record in enumerate(report.executions):
            record.index = position
        report.invalidate_caches()

    # ------------------------------------------------------------------ #
    # serial confirmation
    # ------------------------------------------------------------------ #
    def confirm(self, report: ParallelReport) -> bool:
        """Replay every counterexample trail on the serial engine.

        A counterexample is *confirmed* when its replay reproduces the
        same violation set (time, monitor, message).  Confirmations are
        recorded on the report; returns ``report.all_confirmed``.
        """
        serial = SystematicTester(
            self.harness_factory,
            max_permuted=self.max_permuted,
            track_coverage=False,  # confirmation replays must not add coverage
        )
        report.confirmations = []
        for record in report.failing:
            replayed = serial.replay(record.trail or [], index=record.index)
            confirmed = _violation_keys(replayed.violations) == _violation_keys(record.violations)
            report.confirmations.append(
                ReplayConfirmation(trail=list(record.trail or []), replayed=replayed, confirmed=confirmed)
            )
        return report.all_confirmed
