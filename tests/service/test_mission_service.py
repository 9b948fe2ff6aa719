"""The mission service: streaming, cursors, concurrency, serial parity.

The acceptance bar for the service is *exactness*, not vague liveness:
two concurrent missions must stream their records incrementally over
the cursor API and still produce final reports byte-equal to serial
:class:`~repro.testing.SystematicTester` runs of the same scenario,
seed and budget — including coverage and replay confirmations.
"""

import threading

import pytest

from repro.service import MissionClient, MissionServer
from repro.service.client import (
    decode_report_coverage,
    decode_report_records,
)
from repro.swarm import protocol
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


def _serial(scenario, strategy, *, overrides=None, track_coverage=False):
    return SystematicTester(
        scenario_factory(scenario, **(overrides or {})),
        strategy=strategy,
        track_coverage=track_coverage,
    ).explore()


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


class TestPopulationMissions:
    def test_population_mission_matches_serial_and_surfaces_stats(self, client):
        report = client.run(
            "drone-surveillance",
            strategy=RandomStrategy(seed=6, max_executions=20),
            overrides={"include_unsafe_position": True},
            population_size=32,
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
        # The population plane's fleet-wide counters ride the report.
        stats = report["population_stats"]
        assert stats["executions"] == 20
        assert stats["live_runs"] + stats["compacted"] == stats["executions"]
        assert stats["snapshot_fallbacks"] == 0
        # The full PopulationStats counter set crosses the wire, so
        # clients can see how the work was elided (or that it wasn't).
        for key in ("snapshots_taken", "restores", "delta_snapshots",
                    "replayed_choices", "live_choices"):
            assert key in stats

    def test_plain_missions_report_empty_population_stats(self, client):
        report = client.run(
            "toy-closed-loop", strategy=RandomStrategy(seed=1, max_executions=3)
        )
        assert report["population_stats"] == {}


class TestErrorPaths:
    def test_unknown_scenario_fails_at_submission(self, client):
        with pytest.raises(protocol.ProtocolError, match="bad mission workload"):
            client.submit(
                "no-such-scenario", strategy=RandomStrategy(max_executions=1)
            )

    def test_malformed_strategy_fails_at_submission(self, client):
        with pytest.raises(protocol.ProtocolError, match="strategy"):
            client.submit("toy-closed-loop", strategy={"kind": "quantum"})

    def test_result_before_done_is_an_error(self, client):
        mission_id = client.submit(
            "toy-closed-loop", strategy=RandomStrategy(seed=9, max_executions=4)
        )
        # The mission may legitimately finish fast; only assert when caught mid-run.
        status = client.status(mission_id)
        if not status["done"]:
            with pytest.raises(protocol.ProtocolError, match="still running"):
                client.result(mission_id)
        list(client.events(mission_id))
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
        assert any(
            drone_id.startswith("service-drone-") for drone_id in status["drones"]
        )


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
