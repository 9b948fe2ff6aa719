"""A drone keeps a bounded, least-recently-used set of warm testers.

Each distinct workload identity (scenario factory, ``max_permuted``,
``track_coverage``) gets one warm reset-and-reuse tester; a standing
drone serving many distinct workloads keeps only the ``WARM_TESTERS``
most recently used ones, and a repeated workload still reuses its tester.
"""

from repro.swarm import drone as drone_module
from repro.swarm import protocol
from repro.swarm.controlplane import ControlPlane
from repro.swarm.drone import WARM_TESTERS, Drone
from repro.testing.parallel import _RandomShard
from repro.testing.scenarios import scenario_factory

WORKLOADS = 40


def _shard(horizon):
    return _RandomShard(
        factory=scenario_factory("drone-surveillance", horizon=horizon),
        seed=1, indices=(0,), max_executions=1, stop_at_first_violation=False,
        track_coverage=False, max_permuted=1,
    )


def _serve(plane, drone, shard):
    """Run ``shard`` as a one-shard session's lease on ``drone``."""
    session = plane.create_session([protocol.encode_shard(shard, portable=False)])
    drone._run_lease(plane.request_lease(drone.drone_id))
    return plane.session_report(session)


def test_forty_distinct_workloads_keep_at_most_the_bound():
    assert WARM_TESTERS < WORKLOADS
    plane = ControlPlane()
    drone = Drone(plane.call, "lru-drone")
    for index in range(WORKLOADS):
        report = _serve(plane, drone, _shard(0.5 + 0.05 * index))
        assert report["finished"] and report["failed"] is None
        assert len(report["records"]) == 1
        assert len(drone._testers) <= WARM_TESTERS
    assert len(drone._testers) == WARM_TESTERS


def test_the_least_recently_used_tester_is_dropped_first(monkeypatch):
    monkeypatch.setattr(drone_module, "WARM_TESTERS", 2)
    drone = Drone(ControlPlane().call, "order-drone")
    first, second, third = (_shard(horizon) for horizon in (0.5, 0.6, 0.7))
    warm = drone._tester(first)
    drone._tester(second)
    assert drone._tester(first) is warm  # a hit: now the most recent
    drone._tester(third)  # evicts ``second``, the least recently used
    assert drone._tester(first) is warm
    assert len(drone._testers) == 2
    assert [key[0] for key in drone._testers] == [third.factory, first.factory]
