"""Fault injection on the sharded testers' failure paths.

Both local fabrics run their workers as drones of a control plane — the
pool's forked workers over a pipe to its private plane, a self-hosted
``SwarmTester(drone_processes=True)`` over HTTP — so one set of failure
tests covers both:

* a worker SIGKILLed mid-shard is healed: its shard is re-leased to the
  survivor and the report equals a healthy run's;
* when every worker dies, ``explore`` raises naming their exit codes
  (no hang);
* a scenario that cannot even build surfaces the builder's own
  traceback;
* an early-stopped run's coverage is exactly that of the executions it
  reports (coverage rides each accepted record);
* an unpicklable pool factory is refused up front, not left to hang the
  pipe.
"""

import dataclasses
import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.swarm import SwarmTester
from repro.testing import ParallelTester, RandomStrategy, SystematicTester
from repro.testing import scenarios
from repro.testing.scenarios import build_scenario, scenario_factory

#: ``ModelInstance.reset()`` calls per process id, so a worker can die after
#: streaming some records (a forked worker inherits this dict, but not its
#: parent's pid).
_resets = {}


@dataclass(frozen=True)
class KillWorkerFactory:
    """Picklable factory: a worker SIGKILLs itself on its ``kill_at_reset``-th
    ``ModelInstance.reset()`` — the rewind before each execution after the
    first on a reused instance (0 never kills).

    Only the first worker to get there dies, unless ``every_worker``.  The
    process that made the factory (the test itself) never dies.
    """

    sentinel_dir: str
    parent_pid: int
    kill_at_reset: int = 1
    every_worker: bool = False

    scenario = "test-worker-failure-kill"

    def __call__(self):
        instance = build_scenario("toy-closed-loop", broken_ttf=True)
        reset = instance.reset

        def reset_or_die():
            pid = os.getpid()
            _resets[pid] = _resets.get(pid, 0) + 1
            if pid != self.parent_pid and _resets[pid] == self.kill_at_reset:
                if self.every_worker or _first_to_claim(self.sentinel_dir):
                    os.kill(pid, signal.SIGKILL)
            reset()

        instance.reset = reset_or_die
        return instance


@dataclass(frozen=True)
class ExplodingFactory:
    """Picklable factory that can never build its scenario."""

    scenario = "test-worker-failure-explode"

    def __call__(self):
        raise ValueError("scenario build exploded")


def _first_to_claim(sentinel_dir):
    try:
        os.mkdir(os.path.join(sentinel_dir, "killed"))  # atomic: one winner
    except FileExistsError:
        return False
    return True


@pytest.fixture(autouse=True)
def failing_scenarios(monkeypatch):
    """Register the failing factories as scenarios for one test only.

    SwarmTester ships workloads by registry name, and forked drones
    inherit the registry.  The entries go away after the test, so
    registry-wide sweeps elsewhere never build them.
    """
    scenarios.registered_scenarios()  # load the built-ins first
    for factory in (KillWorkerFactory, ExplodingFactory):
        monkeypatch.setitem(scenarios._REGISTRY, factory.scenario, scenarios.Scenario(
            name=factory.scenario,
            builder=lambda _cls=factory, **fields: _cls(**fields)(),
            description=factory.__doc__,
        ))


def _tester(fabric, factory, workers=2, **options):
    """The same run on the pool (pipe) or the swarm (HTTP)."""
    if fabric == "pool":
        return ParallelTester(harness_factory=factory, workers=workers, **options)
    return SwarmTester(
        factory.scenario,
        scenario_overrides=dataclasses.asdict(factory),
        drones=workers,
        drone_processes=True,
        **options,
    )


def _keys(report):
    return [
        (record.index, tuple(record.trail),
         tuple((v.time, v.monitor, v.message) for v in record.violations))
        for record in report.executions
    ]


FABRICS = pytest.mark.parametrize("fabric", ["pool", "swarm"],
                                  ids=["pool-pipe", "swarm-http"])


@FABRICS
class TestWorkerFailures:
    def test_sigkilled_worker_is_healed(self, fabric, tmp_path):
        strategy = dict(strategy=RandomStrategy(seed=0, max_executions=12),
                        track_coverage=True)
        healthy = ParallelTester("toy-closed-loop", scenario_overrides={"broken_ttf": True},
                                 workers=2, **strategy).explore()
        # The doomed worker runs three executions of its six, then dies
        # rewinding the instance for its fourth.
        factory = KillWorkerFactory(str(tmp_path), os.getpid(), kill_at_reset=3)
        report = _tester(fabric, factory, **strategy).explore()
        assert os.path.isdir(tmp_path / "killed")  # a worker really died
        assert any(event.startswith("re-lease:") for event in report.events), report.events
        assert _keys(report) == _keys(healthy)
        assert not report.ok and report.all_confirmed
        assert report.coverage.counts == healthy.coverage.counts

    def test_every_worker_killed_raises_naming_exit_codes(self, fabric, tmp_path):
        factory = KillWorkerFactory(str(tmp_path), os.getpid(), every_worker=True)
        tester = _tester(fabric, factory, strategy=RandomStrategy(seed=0, max_executions=8))
        with pytest.raises(RuntimeError) as excinfo:
            tester.explore()
        message = str(excinfo.value)
        assert "exit codes" in message
        assert str(-signal.SIGKILL) in message  # the killed workers' -9

    def test_unbuildable_scenario_surfaces_original_traceback(self, fabric):
        tester = _tester(
            fabric, ExplodingFactory(), strategy=RandomStrategy(seed=0, max_executions=4)
        )
        with pytest.raises(RuntimeError) as excinfo:
            tester.explore()
        message = str(excinfo.value)
        assert "ValueError" in message
        assert "scenario build exploded" in message
        assert "no live drone remains" not in message

    def test_early_stop_coverage_matches_the_reported_executions(self, fabric, tmp_path):
        # Coverage rides each accepted record, so an early-stopped report's
        # map is exactly the serial coverage of the executions it reports.
        factory = KillWorkerFactory(str(tmp_path), os.getpid(), kill_at_reset=0)  # never kills
        report = _tester(
            fabric, factory, workers=4, strategy=RandomStrategy(seed=0, max_executions=16),
            track_coverage=True,
        ).explore(stop_at_first_violation=True)
        assert not report.ok
        strategy = RandomStrategy(seed=0, max_executions=16)
        serial = SystematicTester(scenario_factory("toy-closed-loop", broken_ttf=True),
                                  strategy, track_coverage=True)
        for record in report.executions:
            strategy.seek(record.index)
            strategy.begin_execution()
            assert serial.run_single(record.index).trail == record.trail
        assert report.coverage.total_samples > 0
        assert report.coverage.counts == serial.coverage.counts

    def test_healthy_run_reports_every_shard_completed(self, fabric, tmp_path):
        factory = KillWorkerFactory(str(tmp_path), os.getpid(), kill_at_reset=0)
        report = _tester(fabric, factory, strategy=RandomStrategy(seed=1, max_executions=8)).explore()
        assert report.completed_workers == report.workers == 2
        assert report.duplicates == 0 and report.events == []


def test_unpicklable_pool_factory_fails_promptly():
    tester = ParallelTester(
        harness_factory=lambda: build_scenario("toy-closed-loop"),
        strategy=RandomStrategy(seed=0, max_executions=4),
        workers=2,
    )
    started = time.monotonic()
    with pytest.raises(TypeError, match="picklable harness_factory"):
        tester.explore()
    assert time.monotonic() - started < 5.0


def test_single_worker_pool_runs_an_unpicklable_factory():
    # One shard runs on an in-process drone thread: nothing is pickled.
    report = ParallelTester(
        harness_factory=lambda: build_scenario("toy-closed-loop", broken_ttf=True),
        strategy=RandomStrategy(seed=0, max_executions=4),
        workers=1,
    ).explore()
    assert len(report.executions) == 4
