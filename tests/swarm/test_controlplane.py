"""The control plane state machine, driven by a fake clock.

No HTTP and no real drones here: these tests poke the pure
:class:`~repro.swarm.controlplane.ControlPlane` directly so the
self-healing escalation ladder (warn -> re-lease -> drone dead ->
session fails only with no drone left), the idempotent ingestion, and
the adaptive re-partitioning are each pinned without any real waiting.
"""

import urllib.error
import urllib.request

import pytest

from repro.swarm import protocol
from repro.swarm.controlplane import ControlPlane, ControlPlaneServer, UnknownRoute
from repro.testing.parallel import _ExhaustiveShard, _RandomShard
from repro.testing.scenarios import scenario_factory


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_plane(clock, **overrides):
    options = dict(
        heartbeat_timeout=10.0,
        warn_after=4.0,
        max_drone_strikes=2,
        max_shard_attempts=3,
        split_lagging_after=1.0,
        clock=clock,
    )
    options.update(overrides)
    return ControlPlane(**options)


def random_shard_wire(indices=(0, 1, 2)):
    return protocol.encode_shard(_RandomShard(
        factory=scenario_factory("toy-closed-loop"),
        seed=0, max_executions=len(indices), indices=tuple(indices),
        max_permuted=6, stop_at_first_violation=False,
    ))


def exhaustive_shard_wire(prefixes=((0,), (1,), (2,), (3,))):
    return protocol.encode_shard(_ExhaustiveShard(
        factory=scenario_factory("toy-closed-loop"),
        prefixes=tuple(prefixes), max_depth=3, max_executions=100,
        max_permuted=6, stop_at_first_violation=False,
    ))


def wire_record(index, trail=None, violating=False):
    violations = []
    if violating:
        violations = [{"time": 0.0, "monitor": "phi", "message": "boom", "state": None}]
    return {"index": index, "steps": 1, "violations": violations,
            "trail": trail, "worker": None}


def result(record, coverage=None):
    return {"record": record, "coverage": coverage}


class TestLeaseLifecycle:
    def test_happy_path_to_finished(self):
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session([random_shard_wire((0, 1))])
        grant = plane.request_lease("d0")
        assert grant["session"] == session
        assert grant["shard"]["kind"] == "random"
        plane.ingest(session, grant["lease"],
                     results=[result(wire_record(0), [["v", "m", "r", 2]]),
                              result(wire_record(1))],
                     done=True)
        report = plane.session_report(session)
        assert report["finished"] and report["failed"] is None
        assert [r["index"] for r in report["records"]] == [0, 1]
        assert report["coverage"] == [["v", "m", "r", 2]]
        assert report["shards"][0]["status"] == "done"

    def test_the_session_report_carries_exactly_the_facade_fields(self):
        # The report is the facades' whole view of a session; a key that
        # no facade reads (such as the dropped population stats) is gone.
        plane = make_plane(FakeClock())
        session = plane.create_session([random_shard_wire((0,))])
        grant = plane.request_lease("d0")
        plane.ingest(session, grant["lease"], results=[result(wire_record(0))], done=True)
        assert set(plane.session_report(session)) == {
            "session", "finished", "failed", "stopping", "records", "coverage",
            "duplicates", "events", "shards",
        }

    def test_idle_fleet_gets_no_lease(self):
        plane = make_plane(FakeClock())
        assert plane.request_lease("d0") is None

    def test_empty_session_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="at least one shard"):
            make_plane(FakeClock()).create_session([])


class TestIdempotentIngestion:
    def test_duplicate_record_and_its_coverage_dropped(self):
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session([random_shard_wire((0, 1))])
        grant = plane.request_lease("d0")
        rows = [["v", "m", "r", 1]]
        plane.ingest(session, grant["lease"], results=[result(wire_record(0), rows)])
        plane.ingest(session, grant["lease"], results=[result(wire_record(0), rows),
                                                       result(wire_record(1), rows)])
        report = plane.session_report(session)
        assert report["duplicates"] == 1
        assert len(report["records"]) == 2
        assert report["coverage"] == [["v", "m", "r", 2]]  # once per accepted record

    def test_zombie_exhaustive_records_dedupe_by_trail_after_relase(self):
        # The zombie's lease is gone and its shard re-leased, so no shard
        # resolves for it — identity must still come out trail-keyed.
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session([exhaustive_shard_wire()])
        zombie = plane.request_lease("dz")
        clock.advance(11.0)  # past heartbeat_timeout: lease expires
        replacement = plane.request_lease("dr")
        assert replacement is not None and replacement["lease"] != zombie["lease"]
        # Zombie flushes a record for trail (0, 1); its ingest is accepted
        # (first copy) but flagged as coming from a stale lease.
        directives = plane.ingest(session, zombie["lease"],
                                  results=[result(wire_record(0, trail=[0, 1]))])
        assert directives["lease_valid"] is False
        # The replacement runs the same subtree: same trail, different index.
        plane.ingest(session, replacement["lease"],
                     results=[result(wire_record(7, trail=[0, 1]))], done=True)
        report = plane.session_report(session)
        assert report["duplicates"] == 1
        assert len(report["records"]) == 1


class TestAtomicResultWindows:
    """A result window is folded in whole or not at all."""

    class Listener:
        def __init__(self):
            self.seen = []

        def record_accepted(self, session_id, record, coverage):
            self.seen.append((record["index"], coverage))

    @pytest.mark.parametrize("bad_row", [
        ["v", "AC", "R1", "x"],  # a count that is not an int
        ["v", "AC", "R1"],  # too few fields
        ["v", "AC", 7, 1],  # a region that is not a str
    ])
    def test_a_malformed_window_leaves_the_session_unchanged(self, bad_row):
        clock = FakeClock()
        plane = make_plane(clock)
        listener = self.Listener()
        plane.add_listener(listener)
        session = plane.create_session([random_shard_wire((0, 1))])
        grant = plane.request_lease("d0")
        before = plane.session_report(session)
        window = [result(wire_record(0), [["v", "SC", "R0", 1]]),
                  result(wire_record(1), [["v", "AC", "R1", 2], bad_row])]
        with pytest.raises(protocol.ProtocolError, match="malformed result window"):
            plane.ingest(session, grant["lease"], results=window)
        assert plane.session_report(session) == before
        assert listener.seen == []
        # The corrected resend is accepted once, counted and streamed.
        window[1] = result(wire_record(1), [["v", "AC", "R1", 2]])
        plane.ingest(session, grant["lease"], results=window, done=True)
        report = plane.session_report(session)
        assert [record["index"] for record in report["records"]] == [0, 1]
        assert report["duplicates"] == 0
        assert report["coverage"] == [["v", "AC", "R1", 2], ["v", "SC", "R0", 1]]
        assert report["finished"]
        assert listener.seen == [(0, [["v", "SC", "R0", 1]]), (1, [["v", "AC", "R1", 2]])]

    def test_a_record_without_an_identity_is_rejected_over_call(self):
        plane = make_plane(FakeClock())
        session = plane.create_session([random_shard_wire((0,))])
        grant = plane.request_lease("d0")
        with pytest.raises(protocol.ProtocolError, match="malformed result window"):
            plane.call("result", {"session": session, "lease": grant["lease"],
                                  "results": [{"record": {"index": "x"}}]})
        assert plane.session_report(session)["records"] == []


class TestEscalationLadder:
    def test_warn_then_expire_then_requeue(self):
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session([random_shard_wire()])
        grant = plane.request_lease("d0")
        clock.advance(5.0)  # past warn_after, before heartbeat_timeout
        plane.sweep()
        report = plane.session_report(session)
        assert any(event.startswith("warn:") for event in report["events"])
        assert plane.status()["drones"]["d0"]["lagging"] is True
        assert report["shards"][0]["status"] == "leased"  # warned, not expired
        clock.advance(6.0)  # now past heartbeat_timeout
        plane.sweep()
        report = plane.session_report(session)
        assert any(event.startswith("re-lease:") for event in report["events"])
        assert report["shards"][0]["status"] == "queued"
        assert report["shards"][0]["attempts"] == 1
        assert plane.status()["drones"]["d0"]["strikes"] == 1
        # The shard is grantable again — to anyone, including the striker.
        regrant = plane.request_lease("d1")
        assert regrant is not None and regrant["lease"] != grant["lease"]

    def test_heartbeat_clears_the_warning(self):
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session([random_shard_wire()])
        grant = plane.request_lease("d0")
        clock.advance(5.0)
        plane.sweep()
        directives = plane.heartbeat(session, grant["lease"], executions_done=1)
        assert directives == {"stop": False, "lease_valid": True}
        assert plane.status()["drones"]["d0"]["lagging"] is False
        clock.advance(9.0)  # within timeout of the heartbeat: still alive
        plane.sweep()
        assert plane.session_report(session)["shards"][0]["status"] == "leased"

    def test_drone_buried_after_repeated_expiries(self):
        clock = FakeClock()
        plane = make_plane(clock)
        plane.create_session([random_shard_wire()])
        for _ in range(2):  # max_drone_strikes
            assert plane.request_lease("d0") is not None
            clock.advance(11.0)
            plane.sweep()
        assert plane.status()["drones"]["d0"]["dead"] is True
        assert plane.request_lease("d0") == {"dead": True}

    def test_session_fails_only_when_no_live_drone_remains(self):
        clock = FakeClock()
        plane = make_plane(clock, max_shard_attempts=10)
        session = plane.create_session([random_shard_wire()])

        def lease_then_vanish(drone_id):
            assert plane.request_lease(drone_id) is not None
            clock.advance(11.0)
            plane.sweep()

        assert plane.request_lease("d0") is not None  # shard leased to d0
        assert plane.request_lease("d1") is None  # d1 registered, idle
        clock.advance(11.0)
        plane.sweep()  # expiry = d0 strike 1, shard requeued
        lease_then_vanish("d0")  # strike 2: d0 is buried
        assert plane.status()["drones"]["d0"]["dead"] is True
        # d1 is registered and alive (never struck out): the session must
        # keep waiting for it to pick up the requeued shard, not fail.
        assert plane.session_report(session)["failed"] is None
        lease_then_vanish("d1")
        assert plane.session_report(session)["failed"] is None
        lease_then_vanish("d1")  # d1's second strike: nobody is left
        assert plane.status()["drones"]["d1"]["dead"] is True
        report = plane.session_report(session)
        assert report["failed"] is not None
        assert "no live drone" in report["failed"]

    def test_shard_fails_after_max_attempts(self):
        clock = FakeClock()
        plane = make_plane(clock, max_shard_attempts=2, max_drone_strikes=100)
        session = plane.create_session([random_shard_wire()])
        for _ in range(2):
            assert plane.request_lease("d0") is not None
            clock.advance(11.0)
            plane.sweep()
        report = plane.session_report(session)
        assert report["finished"]
        assert "lease attempt" in report["failed"]

    def test_worker_error_fails_the_session(self):
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session([random_shard_wire()])
        grant = plane.request_lease("d0")
        plane.ingest(session, grant["lease"], error="Traceback: ValueError: boom")
        report = plane.session_report(session)
        assert report["finished"]
        assert "ValueError: boom" in report["failed"]


class TestStopAtFirstViolation:
    def test_violation_cancels_queue_and_directs_stop(self):
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session(
            [random_shard_wire((0,)), random_shard_wire((1,))],
            stop_at_first_violation=True,
        )
        grant = plane.request_lease("d0")  # second shard stays queued
        directives = plane.ingest(
            session, grant["lease"],
            results=[result(wire_record(0, violating=True))],
        )
        assert directives["stop"] is True
        statuses = {s["status"] for s in plane.session_report(session)["shards"]}
        assert "cancelled" in statuses  # the queued shard will never run
        assert plane.request_lease("d1") is None  # nothing grantable while stopping
        plane.ingest(session, grant["lease"], released=True)
        assert plane.session_report(session)["finished"]


class TestAdaptiveSplit:
    def test_idle_drone_steals_untouched_prefixes(self):
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session([exhaustive_shard_wire()])
        grant = plane.request_lease("slow")
        assert len(grant["shard"]["prefixes"]) == 4
        plane.heartbeat(session, grant["lease"], prefixes_done=1)
        clock.advance(2.0)  # past split_lagging_after
        stolen = plane.request_lease("idle")
        assert stolen is not None, "idle drone should trigger a split"
        # prefixes_done=1 -> the slow drone keeps prefixes[:2] (done + current).
        assert [tuple(p) for p in stolen["shard"]["prefixes"]] == [(2,), (3,)]
        directives = plane.heartbeat(session, grant["lease"], prefixes_done=1)
        assert directives["keep_prefixes"] == 2
        report = plane.session_report(session)
        assert any(event.startswith("split:") for event in report["events"])
        # Both halves complete; the session finishes with both shards done.
        plane.ingest(session, grant["lease"],
                     results=[result(wire_record(0, trail=[0, 0]))], done=True)
        plane.ingest(session, stolen["lease"],
                     results=[result(wire_record(0, trail=[2, 0]))], done=True)
        report = plane.session_report(session)
        assert report["finished"] and report["failed"] is None
        assert len(report["records"]) == 2 and report["duplicates"] == 0

    def test_random_shards_never_split(self):
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session([random_shard_wire((0, 1, 2, 3))])
        grant = plane.request_lease("slow")
        plane.heartbeat(session, grant["lease"], executions_done=1)
        clock.advance(2.0)
        assert plane.request_lease("idle") is None


class TestStatus:
    def test_status_shape(self):
        clock = FakeClock()
        plane = make_plane(clock)
        session = plane.create_session([random_shard_wire()], label="smoke")
        grant = plane.request_lease("d0")
        status = plane.status()
        assert status["protocol"] == protocol.PROTOCOL_VERSION
        assert status["sessions"][session]["label"] == "smoke"
        assert status["sessions"][session]["shards"]["leased"] == 1
        assert status["drones"]["d0"]["leases_granted"] == 1
        assert status["active_leases"][0]["lease"] == grant["lease"]


class TestHttpLayer:
    def test_version_mismatch_rejected_with_400(self):
        with ControlPlaneServer(heartbeat_timeout=5.0) as server:
            body = protocol.dumps("lease", {"drone": "d0"}).replace(
                f'"v": {protocol.PROTOCOL_VERSION}'.encode(), b'"v": 99')
            request = urllib.request.Request(
                server.url + "/api/v1/lease", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5.0)
            assert excinfo.value.code == 400
            detail = protocol.loads(excinfo.value.read(), expect="response")
            assert "version mismatch" in detail["error"]

    def test_status_endpoint_serves_json(self):
        with ControlPlaneServer(heartbeat_timeout=5.0) as server:
            with urllib.request.urlopen(server.url + "/api/v1/status",
                                        timeout=5.0) as response:
                status = protocol.loads(response.read(), expect="response")
            assert status["protocol"] == protocol.PROTOCOL_VERSION
            assert status["sessions"] == {}

    def test_a_malformed_number_is_a_400_naming_the_field(self):
        with ControlPlaneServer(heartbeat_timeout=5.0) as server:
            request = urllib.request.Request(
                server.url + "/api/v1/lease", method="POST",
                data=protocol.dumps("request", {"drone": "d", "poll": "abc"}),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5.0)
            assert excinfo.value.code == 400
            detail = protocol.loads(excinfo.value.read(), expect="response")
            assert "poll" in detail["error"] and "malformed request" in detail["error"]

    def test_unknown_endpoint_is_404(self):
        with ControlPlaneServer(heartbeat_timeout=5.0) as server:
            for path in ("/api/v1/nope", "/elsewhere"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(server.url + path, timeout=5.0)
                assert excinfo.value.code == 404
                detail = protocol.loads(excinfo.value.read(), expect="response")
                assert path in detail["error"]


class TestRouteTable:
    """``ControlPlane.call``: the one entry point of every transport."""

    def test_routes_reach_the_state_machine(self):
        plane = make_plane(FakeClock())
        session = plane.call("session", {"shards": [random_shard_wire((0,))], "label": "x"})
        session = session["session"]
        grant = plane.call("lease", {"drone": "d0", "poll": 0.0})["lease"]
        assert grant["session"] == session
        assert plane.call("heartbeat", {"session": session, "lease": grant["lease"],
                                        "executions_done": 1})["lease_valid"]
        record = {"index": 0, "steps": 1, "violations": [], "trail": [0], "worker": 0}
        plane.call("result", {"session": session, "lease": grant["lease"],
                              "results": [{"record": record, "coverage": None}],
                              "done": True})
        assert plane.call(f"session/{session}/status")["finished"]
        assert plane.call(f"session/{session}/report")["records"] == [record]
        assert plane.call("status")["sessions"][session]["label"] == "x"

    def test_malformed_payload_and_unknown_route(self):
        plane = make_plane(FakeClock())
        with pytest.raises(protocol.ProtocolError, match="malformed request"):
            plane.call("lease", None)
        with pytest.raises(protocol.ProtocolError, match="malformed request"):
            plane.call("result", {"session": "s1"})
        with pytest.raises(UnknownRoute):
            plane.call("session/s1/nope")

    def test_value_errors_become_protocol_errors_and_protocol_errors_pass(self):
        plane = make_plane(FakeClock())
        with pytest.raises(protocol.ProtocolError, match="malformed request.*poll"):
            plane.call("lease", {"drone": "d0", "poll": "abc"})
        session = plane.call("session", {"shards": [random_shard_wire((0,))]})["session"]
        lease = plane.call("lease", {"drone": "d0", "poll": 0.0})["lease"]["lease"]
        with pytest.raises(protocol.ProtocolError, match="^malformed result window"):
            plane.call("result", {"session": session, "lease": lease,
                                  "results": [{"record": {"index": "x"}}]})
