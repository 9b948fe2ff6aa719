"""The local fleet's transports and lifetimes.

Process drones used to wait out their 2 s ``idle_timeout`` (and thread
drones their lease long-poll) before ``explore()`` could return.  The
fleet now retires its drones through ``ControlPlane.drone_lost``, which
also wakes a pending long-poll, on every local fabric: the pool's pipe
workers and in-process thread, and the self-hosted swarm's HTTP drones.
``drone_lost`` is also how an exited worker's lease is re-leased at
once, and the pipe transport and its relay are pinned on their own.
"""

import multiprocessing
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.monitor import Violation
from repro.swarm import ProtocolError, SwarmTester, protocol
from repro.swarm import controlplane as controlplane_module
from repro.swarm.controlplane import ControlPlane
from repro.swarm.drone import LocalFleet, PipeTransport, SwarmUnavailable, relay
from repro.testing import ParallelTester, RandomStrategy, scenario_factory
from repro.testing.parallel import _RandomShard

STRATEGY = dict(strategy=RandomStrategy(seed=0, max_executions=4))

FABRICS = {
    "pool-processes": lambda: ParallelTester("toy-closed-loop", workers=2, **STRATEGY),
    "pool-thread": lambda: ParallelTester("toy-closed-loop", workers=1, **STRATEGY),
    "swarm-threads": lambda: SwarmTester("toy-closed-loop", drones=2, **STRATEGY),
    "swarm-processes": lambda: SwarmTester(
        "toy-closed-loop", drones=2, drone_processes=True, **STRATEGY
    ),
}


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_explore_returns_promptly_after_the_session_finishes(monkeypatch, fabric):
    finished_at = []

    class RecordingPlane(ControlPlane):
        def __init__(self, **options):
            super().__init__(**options)
            self.add_listener(SimpleNamespace(
                session_finished=lambda _session: finished_at.append(time.monotonic())
            ))

    monkeypatch.setattr(controlplane_module, "ControlPlane", RecordingPlane)
    report = FABRICS[fabric]().explore(confirm_counterexamples=False)
    returned = time.monotonic()
    assert len(report.executions) == 4
    assert len(finished_at) == 1
    assert returned - finished_at[0] < 1.0


def test_drone_lost_requeues_the_lease_and_wakes_the_long_poll():
    plane = ControlPlane(heartbeat_timeout=60.0)
    session = plane.create_session([
        {"kind": "random", "seed": 0, "indices": [0], "max_executions": 1},
    ])
    grant = plane.call("lease", {"drone": "doomed", "poll": 0.0})["lease"]
    assert grant["session"] == session
    plane.call("lease", {"drone": "survivor", "poll": 0.0})  # register a survivor
    plane.drone_lost("doomed")
    assert plane.status()["drones"]["doomed"]["dead"]
    again = plane.call("lease", {"drone": "survivor", "poll": 0.0})["lease"]
    assert again["shard_id"] == grant["shard_id"]
    assert plane.call("lease", {"drone": "doomed", "poll": 2.0}) == {"lease": {"dead": True}}
    report = plane.session_report(session)
    assert any("after drone doomed exited" in event for event in report["events"])
    # With no live drone left, the orphaned session fails at once.
    plane.drone_lost("survivor")
    assert plane.session_status(session)["failed"] == (
        "no live drone remains for outstanding shards"
    )


class TestPipeTransport:
    def test_relay_answers_with_the_plane_and_reports_rejections(self):
        plane = ControlPlane()
        parent_end, child_end = multiprocessing.Pipe()
        relay_thread = threading.Thread(target=relay, args=(plane, parent_end), daemon=True)
        relay_thread.start()
        transport = PipeTransport(child_end)
        assert transport("status", None)["sessions"] == {}
        with pytest.raises(ProtocolError, match="unknown route"):
            transport("nope", None)
        child_end.close()  # the worker is gone: the relay ends on EOF
        relay_thread.join(timeout=5.0)
        assert not relay_thread.is_alive()
        parent_end.close()

    def test_an_unpicklable_grant_fails_its_lease_instead_of_hanging(self):
        plane = ControlPlane()
        session = plane.create_session([
            {"kind": "random", "seed": 0, "indices": [0], "max_executions": 1,
             "factory": lambda: None},
        ])
        parent_end, child_end = multiprocessing.Pipe()
        relay_thread = threading.Thread(target=relay, args=(plane, parent_end), daemon=True)
        relay_thread.start()
        transport = PipeTransport(child_end)
        with pytest.raises(ProtocolError, match="pickle"):
            transport("lease", {"drone": "worker", "poll": 0.0})
        assert "pickle" in plane.session_status(session)["failed"]
        assert transport("status", None)["sessions"]  # the relay carries on
        child_end.close()
        relay_thread.join(timeout=5.0)
        parent_end.close()

    def test_a_closed_pipe_is_an_unavailable_plane(self):
        parent_end, child_end = multiprocessing.Pipe()
        parent_end.close()
        with pytest.raises(SwarmUnavailable):
            PipeTransport(child_end)("status", None)


def test_a_registered_sibling_keeps_the_session_alive():
    # A fleet registers every drone up front: one that dies before its
    # sibling's first poll is not the last live drone.
    plane = ControlPlane()
    session = plane.create_session([
        {"kind": "random", "seed": 0, "indices": [0], "max_executions": 1},
    ])
    plane.register("first")
    plane.register("second")
    plane.drone_lost("first")
    assert plane.session_status(session)["failed"] is None
    assert not plane.status()["drones"]["second"]["dead"]


@pytest.mark.parametrize("portable", [True, False], ids=["wire-shard", "object-shard"])
def test_record_form_follows_the_shard_not_the_transport(portable):
    # Both drones call the plane directly; only the shard's form differs.
    shard = _RandomShard(
        factory=scenario_factory("toy-closed-loop", broken_ttf=True), seed=0,
        max_executions=3, indices=(0, 1, 2), max_permuted=6,
        stop_at_first_violation=False,
    )
    plane = ControlPlane()
    session = plane.create_session([protocol.encode_shard(shard, portable=portable)])
    fleet = LocalFleet(plane, 1, processes=False)
    fleet.start()
    deadline = time.monotonic() + 30.0
    while not plane.session_status(session)["finished"] and time.monotonic() < deadline:
        time.sleep(0.02)
    fleet.stop()
    records = plane.session_report(session)["records"]
    assert len(records) == 3
    violations = [violation for record in records for violation in record["violations"]]
    assert violations
    assert all(isinstance(violation, dict if portable else Violation)
               for violation in violations)
