"""The per-process scenario world memos build once, even under a race.

The mission server's HTTP handler and mission runners, or a thread
fleet's drones, can ask for a scenario's world at the same moment.
Every concurrent first caller must get the same object — not one
freshly built and densified world each.  A worker forked while another
thread holds a memo's lock must still build its scenarios.
"""

import multiprocessing
import sys
import threading
import time

import pytest

import repro.apps.scenarios as scenarios
from repro.swarm import protocol
from repro.swarm.controlplane import ControlPlane
from repro.swarm.drone import LocalFleet
from repro.testing import scenario_factory
from repro.testing.parallel import _RandomShard


def _first_calls_race(memo, callers=3):
    """Release ``callers`` threads at once on a cleared memo; return results."""
    memo.cache_clear()
    barrier = threading.Barrier(callers)
    results = []

    def call():
        barrier.wait()
        results.append(memo())

    threads = [threading.Thread(target=call) for _ in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so builds overlap
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


@pytest.mark.parametrize("name", ["_shared_world", "_geofence_workspace", "_pillar_world"])
def test_concurrent_first_callers_share_one_world(name):
    scenarios._geofence_workspace.cache_clear()
    results = _first_calls_race(getattr(scenarios, name))
    assert len(results) == 3
    assert len({id(world) for world in results}) == 1


def test_cache_clear_forces_a_rebuild():
    first = scenarios._geofence_workspace()
    assert scenarios._geofence_workspace() is first
    scenarios._geofence_workspace.cache_clear()
    assert scenarios._geofence_workspace() is not first


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_a_worker_forked_while_the_world_is_built_still_builds_scenarios():
    shard = _RandomShard(
        factory=scenario_factory("drone-surveillance", horizon=0.5), seed=0,
        max_executions=2, indices=(0, 1), max_permuted=6,
        stop_at_first_violation=False,
    )
    plane = ControlPlane()
    session = plane.create_session([protocol.encode_shard(shard)])
    fleet = LocalFleet(plane, 1, processes=True,
                       context=multiprocessing.get_context("fork"))
    held, release = threading.Event(), threading.Event()

    def build_in_another_thread():
        with scenarios._shared_world.lock:  # as if densifying the world
            held.set()
            release.wait()

    holder = threading.Thread(target=build_in_another_thread)
    holder.start()
    held.wait()
    try:
        fleet.start()  # forks while the lock is held
        deadline = time.monotonic() + 30.0
        while not plane.session_status(session)["finished"] and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        release.set()
        holder.join()
        fleet.stop()
    assert plane.session_status(session)["finished"]
    assert len(plane.session_report(session)["records"]) == 2
