"""The mission service: streaming, cursors, concurrency, serial parity.

The acceptance bar for the service is *exactness*, not vague liveness:
two concurrent missions must stream their records incrementally over
the cursor API and still produce final reports byte-equal to serial
:class:`~repro.testing.SystematicTester` runs of the same scenario,
seed and budget — including coverage and replay confirmations.  That
holds for the server's standing fleet (N forked drones over pipes,
answered by relay threads in the server) and for external drones on
the HTTP routes of the same port, and the event stream stays JSON
either way.  A standing drone killed mid-mission is buried as soon as
its pipe closes, and its lease re-runs on the survivor.
"""

import json
import os
import re
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import MissionClient, MissionServer, MissionService
from repro.service.client import (
    decode_report_coverage,
    decode_report_records,
)
from repro.swarm import drone as drone_module
from repro.swarm import protocol
from repro.swarm.controlplane import ControlPlane, _Handler
from repro.swarm.drone import Drone, LocalFleet
from repro.testing import (
    ExhaustiveStrategy,
    RandomStrategy,
    SystematicTester,
    scenario_factory,
)


def _record_keys(records):
    return [
        (
            record.index,
            tuple(record.trail or ()),
            tuple((v.time, v.monitor, v.message) for v in record.violations),
        )
        for record in records
    ]


def _rejected(server, spec):
    """POST ``spec`` as a mission; assert a 400 and return its error payload."""
    request = urllib.request.Request(
        server.url + "/api/v1/mission", method="POST",
        data=protocol.dumps("request", spec),
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5.0)
    assert excinfo.value.code == 400
    return protocol.loads(excinfo.value.read(), expect="response")


def _serial(scenario, strategy, *, overrides=None, track_coverage=False):
    return SystematicTester(
        scenario_factory(scenario, **(overrides or {})),
        strategy=strategy,
        track_coverage=track_coverage,
    ).explore()


def _count_http(monkeypatch):
    """Count the drone module's HTTP round trips (the client has its own)."""
    calls = []
    for name in ("post_json", "get_json"):
        original = getattr(drone_module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(drone_module, name, counted)
    return calls


@pytest.fixture(scope="module")
def server():
    with MissionServer(fleet=2) as running:
        yield running


@pytest.fixture()
def client(server):
    return MissionClient(server.url)


class TestStreaming:
    def test_records_stream_incrementally_and_report_matches_serial(self, client):
        strategy = RandomStrategy(seed=0, max_executions=6)
        mission_id = client.submit(
            "toy-closed-loop",
            strategy=strategy,
            overrides={"broken_ttf": True},
            track_coverage=True,
        )
        events = list(client.events(mission_id))
        types = [event["type"] for event in events]
        assert types[0] == "submitted"
        assert types[-1] == "finished"
        assert types.count("record") == 6
        assert "coverage" in types
        # seqs are dense and monotonic — the cursor contract.
        assert [event["seq"] for event in events] == list(
            range(1, len(events) + 1)
        )

        report = client.result(mission_id)
        serial = _serial(
            "toy-closed-loop",
            RandomStrategy(seed=0, max_executions=6),
            overrides={"broken_ttf": True},
            track_coverage=True,
        )
        assert _record_keys(decode_report_records(report)) == _record_keys(
            serial.executions
        )
        coverage = decode_report_coverage(report)
        assert coverage is not None
        assert coverage.counts == serial.coverage.counts
        assert report["ok"] is False and report["all_confirmed"] is True
        assert report["duplicates"] == 0

    def test_cursor_resume_is_idempotent(self, client):
        mission_id = client.submit(
            "toy-closed-loop", strategy=RandomStrategy(seed=5, max_executions=4)
        )
        full = list(client.events(mission_id))  # drains to "finished"
        assert full[-1]["type"] == "finished"
        middle = full[len(full) // 2]["seq"]
        resumed = list(client.events(mission_id, since=middle))
        assert resumed == full[middle:]
        # Re-reading the whole stream returns the identical event log.
        assert list(client.events(mission_id)) == full

    def test_a_stream_cut_after_its_headers_raises_and_resumes(self):
        with MissionServer(fleet=1) as private:
            client = MissionClient(private.url)
            mission_id = client.submit(
                "toy-closed-loop", strategy=RandomStrategy(seed=5, max_executions=4)
            )
            full = list(client.events(mission_id))
            assert full[-1]["type"] == "finished"

            service = private.service
            original = service.events_after

            served = []

            def fails_after_one_batch(mission, since, **options):
                if served:
                    # The error class the handler used to answer with a
                    # JSON reply, which then landed inside the chunked body.
                    raise TypeError("event log unavailable")
                batch, _ = original(mission, since, **options)
                served.append(batch)
                return batch[:2], False

            service.events_after = fails_after_one_batch
            seen = []
            with pytest.raises(protocol.ProtocolError, match="finished") as raised:
                for event in client.events(mission_id):
                    seen.append(event)
            assert seen == full[:2]
            last_seq = int(re.search(r"last seq (\d+)", str(raised.value)).group(1))
            assert last_seq == seen[-1]["seq"]

            # On the wire: the server closes the connection, with neither
            # an error reply nor the final chunk after the first batch.
            served.clear()
            host, port = private._server.server_address[:2]
            with socket.create_connection((host, port), timeout=5.0) as raw:
                raw.sendall(
                    f"GET /api/v1/mission/{mission_id}/events?since=0 HTTP/1.1\r\n"
                    f"Host: {host}\r\n\r\n".encode("ascii")
                )
                received = b""
                while True:
                    data = raw.recv(65536)  # a socket.timeout here: not closed
                    if not data:
                        break
                    received += data
            assert received.startswith(b"HTTP/1.1 200")
            assert b"error" not in received
            assert not received.endswith(b"0\r\n\r\n")

            service.events_after = original
            assert seen + list(client.events(mission_id, since=last_seq)) == full

    def test_status_tracks_progress(self, client):
        mission_id = client.submit(
            "toy-closed-loop", strategy=RandomStrategy(seed=2, max_executions=3)
        )
        list(client.events(mission_id))
        status = client.status(mission_id)
        assert status["mission"] == mission_id
        assert status["done"] is True
        assert status["error"] is None
        assert status["records"] == 3
        assert status["last_seq"] >= 5  # submitted + session + records + finished


class TestConcurrentMissions:
    def test_two_missions_interleave_without_bleed(self, client):
        # Different scenarios, one plane, one shared standing fleet.
        specs = {
            "a": dict(
                scenario="toy-closed-loop",
                strategy=RandomStrategy(seed=0, max_executions=8),
                overrides={"broken_ttf": True},
            ),
            "b": dict(
                scenario="drone-surveillance",
                strategy=RandomStrategy(seed=3, max_executions=6),
                overrides={"include_unsafe_position": True},
            ),
        }
        ids = {
            tag: client.submit(
                spec["scenario"],
                strategy=spec["strategy"],
                overrides=spec["overrides"],
                track_coverage=True,
            )
            for tag, spec in specs.items()
        }
        streams = {}

        def drain(tag):
            streams[tag] = list(client.events(ids[tag]))

        threads = [
            threading.Thread(target=drain, args=(tag,), daemon=True) for tag in ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert set(streams) == {"a", "b"}

        for tag, spec in specs.items():
            report = client.result(ids[tag])
            serial = _serial(
                spec["scenario"],
                RandomStrategy(
                    seed=spec["strategy"].seed,
                    max_executions=spec["strategy"].max_executions,
                ),
                overrides=spec["overrides"],
                track_coverage=True,
            )
            assert _record_keys(decode_report_records(report)) == _record_keys(
                serial.executions
            ), f"mission {tag} diverged from its serial run"
            assert decode_report_coverage(report).counts == serial.coverage.counts
            assert report["duplicates"] == 0  # exactly-once, no cross-bleed
            streamed = [
                event["record"]
                for event in streams[tag]
                if event["type"] == "record"
            ]
            # The stream carries exactly the mission's own executions.
            assert len(streamed) == len(serial.executions)
            assert {r["index"] for r in streamed} == {
                r.index for r in serial.executions
            }

    def test_exhaustive_mission_matches_serial_enumeration(self, client):
        strategy = ExhaustiveStrategy(max_depth=5, max_executions=300)
        report = client.run("toy-closed-loop", strategy=strategy)
        serial = _serial(
            "toy-closed-loop", ExhaustiveStrategy(max_depth=5, max_executions=300)
        )
        assert _record_keys(decode_report_records(report)) == _record_keys(
            serial.executions
        )
        assert len(report["records"]) > 1
        assert report["ok"] is True


class TestFleets:
    def test_direct_call_drones_stream_json_records_of_a_violating_mission(self):
        with MissionServer(fleet=0) as private:
            fleet = LocalFleet(private.plane, 1, processes=False)
            fleet.start()
            try:
                client = MissionClient(private.url)
                mission_id = client.submit(
                    "toy-closed-loop",
                    strategy=RandomStrategy(seed=0, max_executions=6),
                    overrides={"broken_ttf": True},
                )
                events = list(client.events(mission_id))
            finally:
                fleet.stop()
        records = [event["record"] for event in events if event["type"] == "record"]
        assert len(records) == 6
        violations = [v for record in records for v in record["violations"]]
        assert violations
        assert all(isinstance(violation, dict) for violation in violations)
        json.dumps(records)

    def test_the_standing_fleet_makes_no_http_round_trip(self, monkeypatch):
        # The drones run in forked children, so what they call cannot be
        # counted there; count what reaches the plane here instead.
        served = []
        original_serve = _Handler._serve

        def serve(handler, *, post):
            served.append(handler.path)
            return original_serve(handler, post=post)

        monkeypatch.setattr(_Handler, "_serve", serve)
        private = MissionServer(fleet=2)
        relayed = []
        original_call = private.plane.call

        def call(route, payload=None):
            relayed.append(route)
            return original_call(route, payload)

        private.plane.call = call  # before start(): the relays call this
        with private:
            report = MissionClient(private.url).run(
                "drone-surveillance",
                strategy=RandomStrategy(seed=3, max_executions=6),
                overrides={"include_unsafe_position": True},
                track_coverage=True,
            )
            pids = private.fleet.pids
        assert len(report["records"]) == 6
        assert served == []  # no drone route went over HTTP...
        assert "lease" in relayed and "result" in relayed  # ...all came by pipe
        assert len(pids) == len(private.fleet.drone_ids) == 2
        assert all(pid is not None and pid != os.getpid() for pid in pids)

    def test_fleet_drones_are_registered_before_the_first_mission(self):
        with MissionServer(fleet=2) as private:
            drones = private.plane.status()["drones"]
            assert sorted(drones) == sorted(private.fleet.drone_ids)
            assert len(drones) == 2
            assert not any(state["dead"] for state in drones.values())

    def test_start_builds_the_shared_world_before_forking_the_drones(self, monkeypatch):
        from repro.apps import scenarios

        scenarios._shared_world.cache_clear()
        builds = []
        build_city = scenarios.surveillance_city
        monkeypatch.setattr(
            scenarios, "surveillance_city", lambda: builds.append(1) or build_city()
        )
        with MissionServer(fleet=0):
            assert builds == []  # no standing drones: nothing to share
        with MissionServer(fleet=2):
            assert builds == [1]  # built here, in the parent, before the fork
            scenarios._shared_world()
        assert builds == [1]  # and memoized: the next caller reuses it

    def test_stop_with_an_idle_fleet_does_not_wait_out_a_long_poll(self):
        private = MissionServer(fleet=2).start()
        time.sleep(0.2)  # both drones are parked in a 1 s lease long-poll
        started = time.monotonic()
        private.stop()
        assert time.monotonic() - started < 0.5
        assert all(state["dead"] for state in private.plane.status()["drones"].values())
        assert len(private.fleet.exit_codes) == 2
        assert all(code is not None for code in private.fleet.exit_codes)

    def test_a_killed_standing_drone_is_buried_at_once(self):
        # A heartbeat timeout far beyond the bar below: only the burial
        # on pipe EOF can requeue the dead drone's lease in time.
        strategy = dict(seed=5, max_executions=300)
        overrides = {"include_unsafe_position": True}
        with MissionServer(fleet=2, heartbeat_timeout=30.0) as private:
            client = MissionClient(private.url)
            mission_id = client.submit(
                "drone-surveillance", strategy=RandomStrategy(**strategy),
                overrides=overrides, track_coverage=True,
            )
            events = client.events(mission_id)
            for event in events:
                if event["type"] == "record":
                    break
            leases = private.plane.status()["active_leases"]
            assert leases  # a 300-execution mission is still running
            victim = leases[0]["drone"]
            os.kill(private.fleet.pids[private.fleet.drone_ids.index(victim)], signal.SIGKILL)
            killed = time.monotonic()
            rest = list(events)
            finished = time.monotonic() - killed
            report = client.result(mission_id)
            status = private.plane.status()
        assert rest[-1]["type"] == "finished"
        assert finished < 5.0
        assert status["drones"][victim]["dead"]
        serial = _serial(
            "drone-surveillance", RandomStrategy(**strategy),
            overrides=overrides, track_coverage=True,
        )
        assert _record_keys(decode_report_records(report)) == _record_keys(
            serial.executions
        )
        assert decode_report_coverage(report).counts == serial.coverage.counts

    def test_external_http_drones_run_missions_on_the_same_port(self, monkeypatch):
        calls = _count_http(monkeypatch)
        with MissionServer(fleet=0) as private:
            external = Drone(private.url, "external-drone", exit_when_idle=False)
            thread = threading.Thread(target=external.run, daemon=True)
            thread.start()
            try:
                report = MissionClient(private.url).run(
                    "drone-surveillance",
                    strategy=RandomStrategy(seed=3, max_executions=6),
                    overrides={"include_unsafe_position": True},
                    track_coverage=True,
                )
            finally:
                external.stop()
                private.plane.drone_lost(external.drone_id)
                thread.join(timeout=10.0)
        serial = _serial(
            "drone-surveillance",
            RandomStrategy(seed=3, max_executions=6),
            overrides={"include_unsafe_position": True},
            track_coverage=True,
        )
        assert _record_keys(decode_report_records(report)) == _record_keys(
            serial.executions
        )
        assert decode_report_coverage(report).counts == serial.coverage.counts
        assert "post_json" in calls
        assert not thread.is_alive()


class TestSerialMissions:
    def test_a_violating_coverage_mission_matches_serial(self, client):
        report = client.run(
            "drone-surveillance",
            strategy=RandomStrategy(seed=6, max_executions=20),
            overrides={"include_unsafe_position": True},
            track_coverage=True,
        )
        serial = _serial(
            "drone-surveillance",
            RandomStrategy(seed=6, max_executions=20),
            overrides={"include_unsafe_position": True},
            track_coverage=True,
        )
        assert _record_keys(decode_report_records(report)) == _record_keys(
            serial.executions
        )
        assert decode_report_coverage(report).counts == serial.coverage.counts
        assert report["ok"] is False and report["all_confirmed"] is True

    def test_the_result_carries_exactly_the_report_fields(self, client):
        # Drones run the serial tester, so the result has no
        # population-plane counters; every key is one a client decodes.
        report = client.run(
            "toy-closed-loop", strategy=RandomStrategy(seed=1, max_executions=3)
        )
        assert set(report) == {
            "mission", "session", "ok", "all_confirmed", "records", "coverage",
            "confirmations", "duplicates", "events", "workers", "wall_time",
        }
        assert len(report["records"]) == 3


class TestErrorPaths:
    def test_unknown_scenario_fails_at_submission(self, client):
        with pytest.raises(protocol.ProtocolError, match="bad mission workload"):
            client.submit(
                "no-such-scenario", strategy=RandomStrategy(max_executions=1)
            )

    def test_malformed_strategy_fails_at_submission(self, client):
        with pytest.raises(protocol.ProtocolError, match="strategy"):
            client.submit("toy-closed-loop", strategy={"kind": "quantum"})

    def test_a_malformed_shard_count_is_a_400_naming_the_field(self, server):
        spec = {
            "scenario": "toy-closed-loop",
            "strategy": protocol.encode_strategy(RandomStrategy(max_executions=1)),
            "shards": "abc",
        }
        detail = _rejected(server, spec)
        assert "shards" in detail["error"]

    def test_an_unknown_override_is_a_400_naming_it(self, server):
        spec = {
            "scenario": "toy-closed-loop",
            "strategy": protocol.encode_strategy(RandomStrategy(max_executions=1)),
            "overrides": {"bogus": 1},
        }
        detail = _rejected(server, spec)
        assert "bad mission workload" in detail["error"]
        assert "bogus" in detail["error"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_override_is_a_400_naming_it(self, server, value):
        spec = {
            "scenario": "plant-surveillance",
            "strategy": protocol.encode_strategy(RandomStrategy(max_executions=1)),
            "overrides": {"environment_period": value},
        }
        # JSON NaN/Infinity literals: the wire format lets them through.
        data = protocol.dumps("request", spec)
        assert b"NaN" in data or b"Infinity" in data
        detail = _rejected(server, spec)
        assert "environment_period" in detail["error"]
        assert "finite" in detail["error"]

    @pytest.mark.parametrize(
        "override, field", [("physics_dt", "physics_dt"), ("environment_period", "period")]
    )
    def test_a_vanishing_step_override_is_a_400_with_the_builders_message(
        self, server, override, field
    ):
        # Finite, so it passes the wire checks; the build at submission
        # then rejects it instead of a drone integrating a window that
        # never ends.
        spec = {
            "scenario": "plant-surveillance",
            "strategy": protocol.encode_strategy(RandomStrategy(seed=1, max_executions=2)),
            "overrides": {override: 1e-20, "horizon": 0.5},
        }
        detail = _rejected(server, spec)
        assert "bad mission workload" in detail["error"]
        assert f"{field} must be finite and at least MIN_STEP" in detail["error"]
        assert "Traceback" not in detail["error"]

    @pytest.mark.parametrize(
        "scenario, overrides, message",
        [
            ("toy-closed-loop", {"period": 0.0}, "environment period must be positive"),
            ("toy-closed-loop", {"period": -0.1}, "environment period must be positive"),
            ("plant-surveillance", {"physics_dt": 0.0},
             "physics_dt must be finite and at least MIN_STEP"),
            ("plant-surveillance", {"environment_period": -1.0},
             "period must be finite and at least MIN_STEP"),
        ],
        ids=["toy-zero-period", "toy-negative-period", "plant-zero-physics-dt",
             "plant-negative-environment-period"],
    )
    def test_an_override_the_builder_rejects_is_a_400_with_its_message(
        self, server, scenario, overrides, message
    ):
        spec = {
            "scenario": scenario,
            "strategy": protocol.encode_strategy(RandomStrategy(seed=1, max_executions=2)),
            "overrides": overrides,
        }
        detail = _rejected(server, spec)
        assert "bad mission workload" in detail["error"]
        assert message in detail["error"]

    def test_submission_builds_the_workload_once(self, monkeypatch, client):
        # The build at submission happens in the service's own process;
        # the standing fleet's drones were forked before the counter.
        builds = []
        original = protocol.scenario_factory

        def counting(name, **overrides):
            factory = original(name, **overrides)

            def build():
                builds.append(name)
                return factory()

            return build

        monkeypatch.setattr(protocol, "scenario_factory", counting)
        report = client.run(
            "toy-closed-loop", strategy=RandomStrategy(seed=2, max_executions=4)
        )
        assert builds == ["toy-closed-loop"]
        assert len(report["records"]) == 4

    def test_a_rejected_submission_starts_no_mission(self):
        plane = ControlPlane()
        service = MissionService(plane)
        spec = {
            "scenario": "toy-closed-loop",
            "strategy": protocol.encode_strategy(RandomStrategy(max_executions=1)),
            "overrides": {"period": 0.0},
        }
        with pytest.raises(protocol.ProtocolError, match="bad mission workload"):
            service.submit(spec)
        with pytest.raises(protocol.ProtocolError, match="unknown mission"):
            service.mission("m1")
        assert plane.status()["sessions"] == {}

    def test_every_unknown_spec_field_is_named(self):
        service = MissionService(ControlPlane())
        spec = {
            "scenario": "toy-closed-loop",
            "strategy": protocol.encode_strategy(RandomStrategy(max_executions=1)),
            "population_size": 8,
            "workers": 2,
        }
        with pytest.raises(
            protocol.ProtocolError,
            match=r"unknown mission spec field\(s\): 'population_size', 'workers'$",
        ):
            service.submit(spec)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("shards", 0),
            ("shards", True),
            ("shards", 2.5),
            ("stop_at_first_violation", "false"),
            ("confirm", "false"),
            ("track_coverage", 1),
            ("confirm", None),
            # Fields the service does not know, such as the removed
            # population_size, are rejected rather than ignored.
            ("population_size", 8),
            ("reuse_instances", False),
        ],
    )
    def test_a_malformed_spec_field_is_a_400_naming_it(self, server, field, value):
        spec = {
            "scenario": "toy-closed-loop",
            "strategy": protocol.encode_strategy(RandomStrategy(max_executions=1)),
            field: value,
        }
        detail = _rejected(server, spec)
        assert field in detail["error"]

    def test_result_before_done_is_an_error(self):
        # No drone serves the plane until the check is made, so the
        # mission is certainly still running when its result is asked.
        with MissionServer(fleet=0) as private:
            client = MissionClient(private.url)
            mission_id = client.submit(
                "toy-closed-loop", strategy=RandomStrategy(seed=9, max_executions=4)
            )
            assert client.status(mission_id)["done"] is False
            with pytest.raises(protocol.ProtocolError, match="still running"):
                client.result(mission_id)
            fleet = LocalFleet(private.plane, 1, processes=False)
            fleet.start()
            try:
                list(client.events(mission_id))
            finally:
                fleet.stop()
            assert client.result(mission_id)["mission"] == mission_id

    def test_unknown_mission_everywhere(self, client):
        with pytest.raises(protocol.ProtocolError, match="unknown mission"):
            client.status("m999999")
        with pytest.raises(protocol.ProtocolError, match="unknown mission"):
            client.result("m999999")
        with pytest.raises(protocol.ProtocolError, match="unknown mission"):
            list(client.events("m999999"))

    def test_drone_routes_still_served_by_the_same_server(self, server, client):
        from repro.swarm.drone import get_json

        status = get_json(server.url, "/api/v1/status")
        assert status["protocol"] == protocol.PROTOCOL_VERSION
        # The standing fleet's drones, registered with the plane this
        # server fronts, are visible over the drone-facing HTTP route.
        assert set(server.fleet.drone_ids) <= set(status["drones"])
        assert len(server.fleet.drone_ids) == 2


class TestStrategyCodec:
    def test_round_trips(self):
        random = RandomStrategy(seed=7, max_executions=42)
        decoded = protocol.decode_strategy(protocol.encode_strategy(random))
        assert (decoded.seed, decoded.max_executions) == (7, 42)
        exhaustive = ExhaustiveStrategy(max_depth=4, max_executions=99)
        decoded = protocol.decode_strategy(protocol.encode_strategy(exhaustive))
        assert (decoded.max_depth, decoded.max_executions) == (4, 99)

    def test_rejects_unknown_kinds(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_strategy({"kind": "quantum", "max_executions": 1})
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_strategy(object())
