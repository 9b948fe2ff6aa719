"""The per-process scenario world memos build once, even under a race.

The mission server's HTTP handler and its drone threads can ask for a
scenario's world at the same moment.  Every concurrent first caller must
get the same object — not one freshly built and densified world each.
"""

import sys
import threading

import pytest

import repro.apps.scenarios as scenarios


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
