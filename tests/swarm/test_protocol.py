"""The wire protocol: round trips, versioning, execution identity."""

import dataclasses

import pytest

from repro.core.monitor import Violation
from repro.geometry import Vec3
from repro.swarm import protocol
from repro.testing.coverage import CoverageMap
from repro.testing.explorer import ExecutionRecord
from repro.testing.parallel import _ExhaustiveShard, _RandomShard
from repro.testing.scenarios import scenario_factory


def random_shard(**overrides):
    defaults = dict(
        factory=scenario_factory("toy-closed-loop", broken_ttf=True),
        seed=7,
        max_executions=20,
        indices=(3, 4, 5),
        max_permuted=6,
        stop_at_first_violation=True,
        track_coverage=True,
    )
    defaults.update(overrides)
    return _RandomShard(**defaults)


def exhaustive_shard(**overrides):
    defaults = dict(
        factory=scenario_factory("toy-closed-loop"),
        prefixes=((0,), (1, 2)),
        max_depth=5,
        max_executions=100,
        max_permuted=6,
        stop_at_first_violation=False,
    )
    defaults.update(overrides)
    return _ExhaustiveShard(**defaults)


class TestEnvelope:
    def test_round_trip(self):
        payload = protocol.loads(protocol.dumps("status", {"ok": 1}), expect="status")
        assert payload == {"ok": 1}

    def test_version_mismatch_rejected(self):
        message = protocol.envelope("status", {})
        message["v"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(protocol.ProtocolError, match="version mismatch"):
            protocol.open_envelope(message)

    def test_version_one_envelope_rejected(self):
        # Version 1 shards carried a field version 2 dropped.
        message = protocol.envelope("lease", {})
        message["v"] = 1
        with pytest.raises(protocol.ProtocolError, match="version mismatch"):
            protocol.open_envelope(message)

    def test_version_two_envelope_rejected(self):
        # Version 2 shards carried reuse_instances; version 3 dropped it.
        message = protocol.envelope("lease", {})
        message["v"] = 2
        with pytest.raises(protocol.ProtocolError, match="version mismatch"):
            protocol.open_envelope(message)

    def test_version_three_envelope_rejected(self):
        # Version 3 shards carried population_size; version 4 dropped it.
        message = protocol.envelope("lease", {})
        message["v"] = 3
        with pytest.raises(protocol.ProtocolError, match="got 3, speak 4"):
            protocol.open_envelope(message)

    def test_wrong_type_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="expected a"):
            protocol.open_envelope(protocol.envelope("lease", {}), expect="result")

    def test_garbage_bytes_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="undecodable"):
            protocol.loads(b"\xff not json")


class TestShards:
    @pytest.mark.parametrize("shard", [random_shard(), exhaustive_shard()],
                             ids=["random", "exhaustive"])
    def test_round_trip_is_identity(self, shard):
        # Shards are frozen value objects, so == is field-wise equality.
        assert protocol.decode_shard(protocol.encode_shard(shard)) == shard

    @pytest.mark.parametrize("shard", [random_shard(), exhaustive_shard()],
                             ids=["random", "exhaustive"])
    def test_the_wire_form_carries_exactly_the_shard_fields(self, shard):
        # Version 4 peers exchange the shard's own fields plus its kind,
        # nothing more: no key a receiver would have to ignore or default.
        wire = protocol.encode_shard(shard)
        assert set(wire) == {"kind"} | {field.name for field in dataclasses.fields(shard)}

    def test_round_trip_survives_json(self):
        import json

        shard = exhaustive_shard()
        wire = json.loads(json.dumps(protocol.encode_shard(shard)))
        assert protocol.decode_shard(wire) == shard

    def test_non_registry_factory_rejected(self):
        shard = random_shard(factory=lambda: None)
        with pytest.raises(protocol.ProtocolError, match="scenario name"):
            protocol.encode_shard(shard)

    def test_json_unsafe_override_rejected(self):
        factory = scenario_factory("toy-closed-loop")
        unsafe = type(factory)(name=factory.name, overrides=(("horizon", object()),))
        with pytest.raises(protocol.ProtocolError, match="JSON-safe"):
            protocol.encode_shard(random_shard(factory=unsafe))

    def test_malformed_shard_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="malformed shard"):
            protocol.decode_shard({"kind": "random"})
        common = ("kind", "factory", "max_executions", "max_permuted",
                  "stop_at_first_violation", "track_coverage")
        for shard, own in ((random_shard(), ("seed", "indices")),
                           (exhaustive_shard(), ("max_depth", "prefixes"))):
            for missing in common + own:
                wire = protocol.encode_shard(shard)
                del wire[missing]
                # A ProtocolError, never a bare KeyError or TypeError.
                with pytest.raises(protocol.ProtocolError, match="malformed shard"):
                    protocol.decode_shard(wire)
        complete_but_unknown = dict(protocol.encode_shard(random_shard()), kind="mystery")
        with pytest.raises(protocol.ProtocolError, match="unknown shard kind"):
            protocol.decode_shard(complete_but_unknown)


class TestRecords:
    def test_record_round_trip(self):
        record = ExecutionRecord(
            index=4,
            steps=17,
            violations=[Violation(time=0.5, monitor="phi", message="boom", state=3.25)],
            trail=[1, 0, 2],
            worker=1,
        )
        decoded = protocol.decode_record(protocol.encode_record(record))
        assert decoded == record

    def test_rich_violation_state_degrades_to_repr(self):
        violation = Violation(time=0.1, monitor="phi_obs", message="hit",
                              state=Vec3(1.0, 2.0, 3.0))
        decoded = protocol.decode_violation(protocol.encode_violation(violation))
        # Identity (time, monitor, message) crosses exactly; state is repr.
        assert (decoded.time, decoded.monitor, decoded.message) == (0.1, "phi_obs", "hit")
        assert isinstance(decoded.state, str) and "1.0" in decoded.state


class TestCoverage:
    def test_round_trip_preserves_counts(self):
        coverage = CoverageMap()
        coverage.record("drone0/SMP", "AC", "R4:nominal", count=3)
        coverage.record("drone1/SMP", "SC", "R3:switching")
        decoded = protocol.decode_coverage(protocol.encode_coverage(coverage))
        assert decoded.counts == coverage.counts

    def test_none_passes_through(self):
        assert protocol.encode_coverage(None) is None
        assert protocol.decode_coverage(None) is None


class TestExecutionKey:
    def test_random_keys_by_global_index(self):
        a = protocol.encode_record(ExecutionRecord(index=9, steps=3, violations=[], trail=[0]))
        b = protocol.encode_record(ExecutionRecord(index=9, steps=3, violations=[], trail=[0]))
        assert protocol.execution_key("random", a) == protocol.execution_key("random", b)

    def test_exhaustive_keys_by_trail_across_shards(self):
        # The same subtree execution run by a zombie and by the shard that
        # adaptively stole its prefix must collide — trail is identity.
        zombie = protocol.encode_record(
            ExecutionRecord(index=5, steps=3, violations=[], trail=[1, 0, 2]))
        thief = protocol.encode_record(
            ExecutionRecord(index=0, steps=3, violations=[], trail=[1, 0, 2]))
        assert protocol.execution_key("exhaustive", zombie) == \
            protocol.execution_key("exhaustive", thief)
        other = protocol.encode_record(
            ExecutionRecord(index=0, steps=3, violations=[], trail=[1, 1]))
        assert protocol.execution_key("exhaustive", other) != \
            protocol.execution_key("exhaustive", thief)
