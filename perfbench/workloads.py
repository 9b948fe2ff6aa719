"""The benchmark's workloads: what runs, what is timed, what is checked.

Each workload has the same life cycle, driven by ``run.py``:

1. ``setup()`` — everything before timed work (world build and densify,
   first instance build, server and fleet start, warm-up).  Repeated a
   few times; ``teardown()`` runs between repeats and at the end.
2. ``prepare()`` — untimed oracle work the correctness checks compare
   against (the serial tester on each sweep or mission seed).
3. ``run_op(k)`` — operation ``k``, timed by the workload itself and
   checked right after; returns an :class:`OpResult` whose timed work is
   cut into :class:`Window` s, each preceded by a :func:`measure.reference_s`
   reading of the host's speed.
4. ``finish()`` — end-of-run checks (determinism re-runs, golden digest).

Every input comes from the workload seed through
:func:`measure.derive_seed`; the program only sees the derived integers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from measure import derive_seed, digest, reference_s

clock = time.perf_counter


@dataclass
class Window:
    """A stretch of timed work and the host's speed measured right before it."""

    host_s: float  # host seconds of the stretch
    executions: int  # executions completed (see each workload's definition)
    sim_s: float  # simulated seconds covered
    reference_s: float  # measure.reference_s() just before the stretch
    latencies_s: List[float] = field(default_factory=list)


@dataclass
class OpResult:
    """What one timed operation did."""

    host_s: float  # host seconds of the timed operation, reference loops excluded
    windows: List[Window] = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    first_records_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def executions(self) -> int:
        return sum(window.executions for window in self.windows)


def clear_world_memo() -> None:
    """Drop the per-process surveillance world so the next build densifies again."""
    import repro.apps.scenarios as scenarios

    scenarios._shared_world.cache_clear()


def shared_clearance_stats() -> Any:
    import repro.apps.scenarios as scenarios

    return scenarios._shared_world().workspace.clearance_field().stats


class Workload:
    name = ""
    why = ""
    #: What ``latency_*`` times on this workload.
    latency_of = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def op_attempts(self, k: int) -> int:
        """How many operations ``run_op(k)`` attempts (counted as failed if it raises)."""
        return 1

    def run_op(self, k: int) -> OpResult:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """End-of-run checks; returns the problems found."""
        return []

    def layer_state(self) -> Dict[str, float]:
        """Workload-side per-layer counters, diffed around the traced pass."""
        return {}

    def summary(self) -> List[str]:
        return []


def _clearance_state(stats: Any) -> Dict[str, float]:
    return {
        "clearance.queries": stats.queries,
        "clearance.decisive": stats.decisive,
        "clearance.dense_hits": stats.dense_hits,
        "clearance.exact_fallbacks": stats.exact_fallbacks,
    }


# --------------------------------------------------------------------------- #
# mission-city: the protected stack flying Fig. 12b missions
# --------------------------------------------------------------------------- #
MISSION_DURATION = 300.0
CANARY_SEED = 0
#: Discrete steps per window: missions differ in length and cost, and ~50
#: windows per run give a steadier median than ~13 missions.
STEP_WINDOW = 500
#: Digest of the canary mission's simulated statistics (seed 0).  It must
#: not change across commits: the runtime is deterministic.
CANARY_DIGEST = "671a9ae9118b5e11"


class MissionCity(Workload):
    name = "mission-city"
    why = (
        "Fig. 12b protected missions over the city: engine firing, DM switches, "
        "clearance queries, plant substeps and A* replans; no tester plane runs"
    )
    latency_of = "one engine.step() of the RTA runtime (plant physics excluded)"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.world: Any = None
        self.canary_digests: List[str] = []
        self.digests: Dict[int, str] = {}
        self.ac_fractions: List[float] = []

    def setup(self) -> None:
        from repro.simulation import surveillance_city

        world = surveillance_city()
        world.workspace.clearance_field().densify()
        self.world = world
        self.canary_digests.append(self._mission(CANARY_SEED)[-1])

    def _mission(self, mission_seed: int) -> Tuple[float, Any, List[Window], str]:
        """Fly one mission; the windows cover the stack build and every full
        window of ``STEP_WINDOW`` steps (a trailing partial window is dropped)."""
        from repro.apps import StackConfig, build_stack

        windows: List[Window] = []
        open_window = Window(0.0, 0, 0.0, reference_s())
        reference_total = 0.0
        window_started = started = clock()
        stack = build_stack(
            StackConfig(
                world=self.world,
                random_goals=5,
                planner="astar",
                tracker="learned",
                protect_battery=True,
                seed=mission_seed,
            )
        )
        engine = stack.simulation.engine
        step = engine.step
        window_sim_start = engine.current_time

        def timed_step() -> Any:
            nonlocal open_window, window_started, window_sim_start, reference_total
            if len(open_window.latencies_s) == STEP_WINDOW:
                ended = clock()
                open_window.host_s = ended - window_started
                open_window.executions = STEP_WINDOW
                open_window.sim_s = engine.current_time - window_sim_start
                windows.append(open_window)
                open_window = Window(0.0, 0, 0.0, reference_s())
                window_started = clock()
                reference_total += window_started - ended
                window_sim_start = engine.current_time
            begun = clock()
            result = step()
            open_window.latencies_s.append(clock() - begun)
            return result

        engine.step = timed_step
        metrics, result = stack.run(MISSION_DURATION)
        host = clock() - started - reference_total
        stats = result.engine.stats
        record = {
            "mission_time": metrics.mission_time,
            "goals_visited": metrics.goals_visited,
            "node_firings": stats.node_firings,
            "time_progress_steps": stats.time_progress_steps,
            "mode_switches": stats.mode_switches,
            "min_clearance": metrics.min_clearance,
        }
        return host, metrics, windows, digest(record)

    def mission_seed(self, k: int) -> int:
        return derive_seed(self.seed, "mission", k)

    def run_op(self, k: int) -> OpResult:
        mission_seed = self.mission_seed(k)
        host, metrics, windows, mission_digest = self._mission(mission_seed)
        problems = []
        if metrics.collided:
            problems.append(f"mission seed {mission_seed} collided")
        known = self.digests.setdefault(mission_seed, mission_digest)
        if known != mission_digest:
            problems.append(f"mission seed {mission_seed} is not deterministic")
        self.ac_fractions.append(metrics.ac_time_fraction.get("SafeMotionPrimitive", 1.0))
        return OpResult(
            host_s=host, windows=windows, failed=1 if problems else 0, problems=problems
        )

    def finish(self) -> List[str]:
        problems = []
        if any(seen != CANARY_DIGEST for seen in self.canary_digests):
            problems.append(
                f"canary mission digest {self.canary_digests} != golden {CANARY_DIGEST}"
            )
        if self.digests:
            first = self.mission_seed(0)
            if self._mission(first)[-1] != self.digests[first]:
                problems.append(f"mission seed {first} digest changed on re-run")
        return problems

    def layer_state(self) -> Dict[str, float]:
        return _clearance_state(self.world.workspace.clearance_field().stats)

    def summary(self) -> List[str]:
        if not self.ac_fractions:
            return []
        mean_ac = sum(self.ac_fractions) / len(self.ac_fractions)
        return [
            f"AC-in-control fraction of SafeMotionPrimitive (performance retained): "
            f"{mean_ac:.3f} mean over {len(self.ac_fractions)} missions",
            f"canary digest {self.canary_digests[-1]} (golden {CANARY_DIGEST})",
        ]


# --------------------------------------------------------------------------- #
# sweeps: the population plane timed, the serial plane as the oracle
# --------------------------------------------------------------------------- #
SCENARIO = "drone-surveillance"
WARMUP_SEED = 1
WARMUP_EXECUTIONS = 64


def _report_keys(report: Any) -> list:
    return [
        (
            record.index,
            record.steps,
            tuple(record.trail or ()),
            tuple((v.time, v.monitor, v.message) for v in record.violations),
        )
        for record in report.executions
    ]


class Sweep(Workload):
    """Random ``drone-surveillance`` sweeps through ``PopulationTester``.

    Each sweep is checked record by record against the serial
    ``SystematicTester`` (reset-reuse) on the same seed, run untimed.
    """

    latency_of = "one execution (run_single) inside the sweep"

    def __init__(
        self, seed: int, *, name: str, why: str, horizon: float, max_permuted: int, budget: int
    ) -> None:
        super().__init__(seed)
        self.name = name
        self.why = why
        self.horizon = horizon
        self.max_permuted = max_permuted
        self.budget = budget
        self.sweep_seeds = [derive_seed(seed, "sweep", k) for k in range(SWEEP_SEEDS)]
        self.reference: Dict[int, list] = {}
        self.population = {"executions": 0, "compacted": 0, "live_runs": 0, "restores": 0}

    def _tester(self, tester_class: Any, sweep_seed: int, budget: int) -> Any:
        from repro.testing import RandomStrategy, scenario_factory

        return tester_class(
            scenario_factory(SCENARIO, horizon=self.horizon),
            RandomStrategy(seed=sweep_seed, max_executions=budget),
            max_permuted=self.max_permuted,
        )

    def setup(self) -> None:
        from repro.testing import PopulationTester

        clear_world_memo()
        self._tester(PopulationTester, WARMUP_SEED, WARMUP_EXECUTIONS).explore()

    def prepare(self) -> None:
        from repro.testing import SystematicTester

        for sweep_seed in self.sweep_seeds:
            report = self._tester(SystematicTester, sweep_seed, self.budget).explore()
            self.reference[sweep_seed] = _report_keys(report)

    def op_attempts(self, k: int) -> int:
        return self.budget

    def run_op(self, k: int) -> OpResult:
        from repro.testing import PopulationTester

        sweep_seed = self.sweep_seeds[k % len(self.sweep_seeds)]
        tester = self._tester(PopulationTester, sweep_seed, self.budget)
        latencies: List[float] = []
        run_single = tester.run_single

        def timed_run_single(index: int) -> Any:
            begun = clock()
            record = run_single(index)
            latencies.append(clock() - begun)
            return record

        tester.run_single = timed_run_single
        reference = reference_s()
        started = clock()
        report = tester.explore()
        host = clock() - started
        records = _report_keys(report)
        expected = self.reference[sweep_seed]
        problems = []
        failed = sum(1 for record in report.executions if not record.ok)
        if failed:
            problems.append(f"sweep seed {sweep_seed}: {failed} failing executions")
        if len(records) != len(expected):
            problems.append(f"sweep seed {sweep_seed}: {len(records)} records, serial has {len(expected)}")
            failed = self.budget
        else:
            mismatched = sum(1 for ours, theirs in zip(records, expected) if ours != theirs)
            if mismatched:
                problems.append(f"sweep seed {sweep_seed}: {mismatched} records differ from serial")
            failed = min(self.budget, failed + mismatched)
        for key in self.population:
            self.population[key] += getattr(tester.stats, key)
        window = Window(
            host, report.execution_count, report.execution_count * self.horizon, reference,
            latencies,
        )
        return OpResult(
            host_s=host, windows=[window], attempted=self.budget, failed=failed, problems=problems
        )

    def layer_state(self) -> Dict[str, float]:
        state = _clearance_state(shared_clearance_stats())
        state.update({f"population.{key}": value for key, value in self.population.items()})
        return state

    def summary(self) -> List[str]:
        p = self.population
        return [
            f"population plane: {p['compacted']}/{p['executions']} compacted, "
            f"{p['restores']}/{p['live_runs']} live runs restored from snapshots"
        ]


#: Sweep seeds per run, cycled; each sweep seed's serial oracle runs once.
SWEEP_SEEDS = 4


def sweep_workloads() -> Dict[str, Dict[str, Any]]:
    return {
        "sweep-shared": dict(
            horizon=1.5, max_permuted=1, budget=1024,
            why="PopulationTester, horizon 1.5 s, max_permuted=1: trails share long prefixes, "
            "so trie compaction and snapshot restores do most of the work",
        ),
        "sweep-distinct": dict(
            horizon=2.0, max_permuted=6, budget=256,
            why="PopulationTester, horizon 2 s, max_permuted=6: schedules diverge at the first "
            "step, no compaction or restores; the population bookkeeping is pure overhead",
        ),
    }


# --------------------------------------------------------------------------- #
# service-stream: one closed-loop client against a two-drone mission server
# --------------------------------------------------------------------------- #
SERVICE_HORIZON = 2.0
SERVICE_BUDGET = 40
#: Distinct missions per run, cycled.  Missions of different seeds differ
#: in cost by up to a third, so a run's figures depend on the mix; 24 keep
#: that mix close across workload seeds (8 spread runs by ~0.1) while the
#: serial oracle for all of them takes ~2 s of set-up.
SERVICE_SEEDS = 24
SERVICE_WARMUP_MISSIONS = 2


class ServiceStream(Workload):
    name = "service-stream"
    why = (
        "one closed-loop client streaming 40-execution missions from a 2-drone "
        "MissionServer: protocol, leases, HTTP, event log and drone loop dominate"
    )
    latency_of = "one mission, from submit until its result is received"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: Any = None
        self.client: Any = None
        self.mission_seeds = [derive_seed(seed, "mission", k) for k in range(SERVICE_SEEDS)]
        self.reference: Dict[int, Tuple[list, dict]] = {}
        self.duplicates = 0

    def setup(self) -> None:
        from repro.service import MissionClient, MissionServer

        clear_world_memo()
        # Build and densify the shared world here, before any server thread
        # runs: its memo is an unlocked ``lru_cache``, so the HTTP handler
        # validating the first mission and both drones would otherwise race
        # to densify one world each, and how many of them overlapped moved
        # the peak RSS between 217 and 265 MB.
        shared_clearance_stats()
        self.server = MissionServer(fleet=2).start()
        self.client = MissionClient(self.server.url)
        for index in range(SERVICE_WARMUP_MISSIONS):
            self._mission(WARMUP_SEED + index)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def prepare(self) -> None:
        from repro.testing import RandomStrategy, SystematicTester, scenario_factory

        for mission_seed in self.mission_seeds:
            tester = SystematicTester(
                scenario_factory(SCENARIO, horizon=SERVICE_HORIZON),
                RandomStrategy(seed=mission_seed, max_executions=SERVICE_BUDGET),
                track_coverage=True,
            )
            report = tester.explore()
            trails = sorted((r.index, tuple(r.trail or ())) for r in report.executions)
            self.reference[mission_seed] = (trails, dict(tester.coverage.counts))

    def _mission(self, mission_seed: int) -> Tuple[float, Optional[float], int, Any, Any]:
        from repro.testing import RandomStrategy

        started = clock()
        mission_id = self.client.submit(
            SCENARIO,
            strategy=RandomStrategy(seed=mission_seed, max_executions=SERVICE_BUDGET),
            overrides={"horizon": SERVICE_HORIZON},
            track_coverage=True,
            confirm=False,
        )
        first_record = None
        streamed = 0
        finished = None
        for event in self.client.events(mission_id):
            if event["type"] == "record":
                streamed += 1
                if first_record is None:
                    first_record = clock() - started
            elif event["type"] == "finished":
                finished = event
        report = self.client.result(mission_id)
        return clock() - started, first_record, streamed, finished, report

    def run_op(self, k: int) -> OpResult:
        from repro.service.client import decode_report_coverage, decode_report_records

        mission_seed = self.mission_seeds[k % len(self.mission_seeds)]
        reference = reference_s()
        host, first_record, streamed, finished, report = self._mission(mission_seed)
        window = Window(host, streamed, streamed * SERVICE_HORIZON, reference, [host])
        problems = []
        if finished is None or finished.get("error"):
            problems.append(f"mission seed {mission_seed} did not finish cleanly: {finished}")
        if streamed != SERVICE_BUDGET:
            problems.append(f"mission seed {mission_seed} streamed {streamed}/{SERVICE_BUDGET}")
        duplicates = report.get("duplicates", 0)
        self.duplicates += duplicates
        if duplicates:
            problems.append(f"mission seed {mission_seed}: {duplicates} duplicate records")
        trails = sorted((r.index, tuple(r.trail or ())) for r in decode_report_records(report))
        decoded = decode_report_coverage(report)
        coverage = dict(decoded.counts) if decoded is not None else {}
        if (trails, coverage) != self.reference[mission_seed]:
            problems.append(
                f"mission seed {mission_seed}: trails or coverage differ from the serial tester"
            )
        return OpResult(
            host_s=host,
            windows=[window],
            failed=1 if problems else 0,
            first_records_s=[first_record] if first_record is not None else [],
            problems=problems,
        )

    def layer_state(self) -> Dict[str, float]:
        state = _clearance_state(shared_clearance_stats())
        state["service.duplicates"] = self.duplicates
        state["service.retained"] = len(self.server.service._missions)
        return state


def build(name: str, seed: int) -> Workload:
    """The workload called ``name``, with inputs drawn from ``seed``."""
    if name == MissionCity.name:
        return MissionCity(seed)
    if name == ServiceStream.name:
        return ServiceStream(seed)
    sweeps = sweep_workloads()
    if name in sweeps:
        return Sweep(seed, name=name, **sweeps[name])
    raise KeyError(name)


def names() -> List[str]:
    return [MissionCity.name, *sweep_workloads(), ServiceStream.name]
