"""A drone streams its lease's results in windows, not one post per execution.

Each test drives a real :class:`~repro.swarm.drone.Drone` against an
in-process :class:`~repro.swarm.controlplane.ControlPlane` through a
recording ``(route, payload) -> reply`` callable, so every ``result``
post the drone makes is visible in order:

* a lease posts its records in a handful of windows, the last of which
  rides the final ``done`` post, and the report still equals serial;
* the lease's first record, and every violating record, go out at once;
* the time bound flushes a window that never fills;
* the per-record coverage the tester hands over equals the whole-map
  diff a drone used to take around every execution;
* under ``stop_at_first_violation`` a sibling that never violates still
  learns the stop, drains and releases its lease.
"""

import math
import threading
from collections import Counter

from repro.swarm import drone as drone_module
from repro.swarm import protocol
from repro.swarm.controlplane import ControlPlane
from repro.swarm.drone import RESULT_WINDOW, Drone
from repro.testing import RandomStrategy, SystematicTester
from repro.testing.parallel import _RandomShard
from repro.testing.scenarios import scenario_factory

EXECUTIONS = 40
SEED = 5


class Recorder:
    """Forward every call to the plane; log the ``result`` posts in order."""

    def __init__(self, plane, log=None):
        self.plane = plane
        self.log = [] if log is None else log

    def __call__(self, route, payload):
        if route == "result":
            self.log.append(("result", payload))
        return self.plane.call(route, payload)


def _shard(factory, indices=range(EXECUTIONS), **options):
    options.setdefault("max_executions", EXECUTIONS)
    options.setdefault("max_permuted", 6)
    return _RandomShard(
        factory=factory, seed=SEED, indices=tuple(indices),
        stop_at_first_violation=False, track_coverage=True, **options,
    )


def _lease(plane, shard, drone, **session_options):
    """Queue ``shard`` as a one-shard session; run its lease on ``drone``."""
    session = plane.create_session([protocol.encode_shard(shard, portable=False)],
                                   **session_options)
    drone._run_lease(plane.request_lease(drone.drone_id))
    return session


def _results(log):
    return [payload for kind, payload in log if kind == "result"]


def _violation_keys(violations):
    return [(v.time, v.monitor, v.message) for v in violations]


def test_a_lease_posts_few_windows_and_reports_like_serial(monkeypatch):
    # The time bound is pinned by its own test; here only the size bound
    # may close a window, so the call count does not depend on host speed.
    monkeypatch.setattr(drone_module, "RESULT_WINDOW_S", 60.0)
    factory = scenario_factory("drone-surveillance", horizon=2.0)
    plane = ControlPlane()
    recorder = Recorder(plane)
    session = _lease(plane, _shard(factory), Drone(recorder, "window-drone"))

    posts = _results(recorder.log)
    assert len(posts) <= math.ceil((EXECUTIONS - 1) / RESULT_WINDOW) + 2
    assert all(not post.get("done") for post in posts[:-1])
    assert posts[-1]["done"] is True and not posts[-1]["released"]
    assert sum(len(post["results"]) for post in posts) == EXECUTIONS

    report = plane.session_report(session)
    assert report["finished"] and report["failed"] is None and report["duplicates"] == 0
    serial = SystematicTester(
        factory, RandomStrategy(seed=SEED, max_executions=EXECUTIONS), track_coverage=True
    ).explore()
    records = sorted(report["records"], key=lambda record: record["index"])
    assert [(r["index"], r["steps"], r["trail"], _violation_keys(r["violations"]))
            for r in records] == \
        [(r.index, r.steps, r.trail, _violation_keys(r.violations)) for r in serial.executions]
    assert protocol.decode_coverage(report["coverage"]).counts == serial.coverage.counts


def test_the_first_record_is_posted_alone(monkeypatch):
    monkeypatch.setattr(drone_module, "RESULT_WINDOW_S", 60.0)
    plane = ControlPlane()
    recorder = Recorder(plane)
    _lease(plane, _shard(scenario_factory("toy-closed-loop")), Drone(recorder, "first-drone"))
    first = _results(recorder.log)[0]
    assert [item["record"]["index"] for item in first["results"]] == [0]
    assert not first.get("done")


def test_an_old_window_is_posted_without_filling(monkeypatch):
    monkeypatch.setattr(drone_module, "RESULT_WINDOW_S", 0.0)  # every item is too old
    plane = ControlPlane()
    recorder = Recorder(plane)
    _lease(plane, _shard(scenario_factory("toy-closed-loop")), Drone(recorder, "timed"))
    posts = _results(recorder.log)
    assert [len(post["results"]) for post in posts[:-1]] == [1] * EXECUTIONS
    assert posts[-1]["done"] is True and posts[-1]["results"] == []


def test_a_violating_record_is_posted_before_the_next_execution(monkeypatch):
    monkeypatch.setattr(drone_module, "RESULT_WINDOW_S", 60.0)
    factory = scenario_factory("drone-surveillance", horizon=2.0, include_unsafe_position=True)
    shard = _shard(factory)
    plane = ControlPlane()
    log = []
    drone = Drone(Recorder(plane, log), "violation-drone")
    tester = drone._tester(shard)  # the warm tester the lease will reuse
    run_single = tester.run_single

    def logged_run_single(index):
        log.append(("run", index))
        return run_single(index)

    tester.run_single = logged_run_single
    _lease(plane, shard, drone)

    posted_at = {}
    for position, (kind, payload) in enumerate(log):
        if kind == "result":
            for item in payload["results"]:
                posted_at[item["record"]["index"]] = (position, item["record"])
    started_at = {index: position for position, (kind, index) in enumerate(log)
                  if kind == "run"}
    violating = [index for index, (_, record) in posted_at.items() if record["violations"]]
    clean = [index for index, (_, record) in posted_at.items() if not record["violations"]]
    assert violating and clean, "the workload must mix violating and clean executions"
    for index in violating:
        if index + 1 in started_at:
            assert posted_at[index][0] < started_at[index + 1], index


def test_posted_coverage_equals_the_whole_map_diff():
    factory = scenario_factory("drone-surveillance", horizon=0.5, include_unsafe_position=True)
    shard = _shard(factory, max_permuted=1)
    plane = ControlPlane()
    recorder = Recorder(plane)
    _lease(plane, shard, Drone(recorder, "coverage-drone"))
    posted = {item["record"]["index"]: item["coverage"]
              for post in _results(recorder.log) for item in post["results"]}

    # The reference: the same lease on a fresh tester, each execution's
    # coverage taken as the diff of the cumulative map around it.
    tester = SystematicTester(factory, max_permuted=shard.max_permuted, track_coverage=True)
    strategy = RandomStrategy(seed=SEED, max_executions=EXECUTIONS)
    tester.strategy = strategy
    expected = {}
    for index in shard.indices:
        before = Counter(tester.coverage.counts)
        strategy.seek(index)
        strategy.begin_execution()
        tester.run_single(index)
        delta = Counter(tester.coverage.counts)
        delta.subtract(before)
        expected[index] = [[vehicle, mode, region, count]
                           for (vehicle, mode, region), count in sorted((+delta).items())]
    assert posted == expected
    assert len({len(rows) for rows in expected.values()}) > 1  # coverage varies per run


def test_a_sibling_drains_and_releases_after_the_first_violation():
    unsafe = scenario_factory("drone-surveillance", horizon=2.0, include_unsafe_position=True)
    safe = scenario_factory("drone-surveillance", horizon=2.0)
    # Execution 0 of the unsafe shard violates; the sibling's shard never
    # does, so only the plane's stop directive can end it early.
    violating = _shard(unsafe, indices=range(4), max_executions=2000)
    sibling = _shard(safe, indices=range(1000, 2000), max_executions=2000)
    plane = ControlPlane()
    session = plane.create_session(
        [protocol.encode_shard(shard, portable=False) for shard in (violating, sibling)],
        stop_at_first_violation=True,
    )
    log = []
    drones = [Drone(Recorder(plane, log), f"stop-drone-{index}", heartbeat_interval=0.1)
              for index in range(2)]
    grants = [plane.request_lease(drone.drone_id) for drone in drones]
    threads = [threading.Thread(target=drone._run_lease, args=(grant,), daemon=True)
               for drone, grant in zip(drones, grants)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)

    report = plane.session_report(session)
    assert report["finished"] and report["stopping"] and report["failed"] is None
    assert plane.status()["active_leases"] == []
    assert report["shards"][1]["status"] == "cancelled"
    sibling_posts = [post for post in _results(log) if post["lease"] == grants[1]["lease"]]
    assert sibling_posts[-1]["released"] is True and not sibling_posts[-1]["done"]
    streamed = sum(1 for record in report["records"] if record["index"] >= 1000)
    assert 0 < streamed < len(sibling.indices)
