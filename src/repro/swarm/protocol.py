"""The swarm wire protocol: versioned JSON for shards, records, coverage.

The control plane (:mod:`repro.swarm.controlplane`) and the drones
(:mod:`repro.swarm.drone`) speak plain JSON over HTTP, so a fleet needs
nothing but the Python standard library on every host.  This module is
the single place that knows how the testing layer's value objects cross
the wire:

* **shards** — the :class:`~repro.testing.parallel._RandomShard` /
  :class:`~repro.testing.parallel._ExhaustiveShard` work descriptions are
  already picklable value objects; here they are serialised field-by-field
  instead, with the harness factory restricted to the *registry* form
  (:class:`~repro.testing.scenarios.ScenarioFactory`) so any host that has
  the package can rebuild the workload from its name;
* **execution records** — index, steps, trail, worker and the violation
  list; violation identity (time, monitor, message) crosses the wire
  exactly, while rich ``state`` payloads degrade to their ``repr``
  (the parity and replay machinery only ever compares identity);
* **coverage maps** — the ``(vehicle, mode, region) -> count`` counter,
  which merges order-independently on the other side.

A :class:`~repro.testing.ParallelTester`'s private plane never reaches
JSON (its drones call it directly or over a pickling pipe), so
``portable=False`` keeps the harness factory and the violations as the
objects themselves; the decoders pass such objects through unchanged.

Every message travels inside a versioned envelope; a peer speaking a
different :data:`PROTOCOL_VERSION` is rejected with a
:class:`ProtocolError` instead of mis-decoding silently.

>>> shard = _RandomShard(factory=scenario_factory("toy-closed-loop"),
...     seed=7, max_executions=4, indices=(0, 1), max_permuted=6,
...     stop_at_first_violation=False)
>>> decode_shard(encode_shard(shard)) == shard
True
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..core.monitor import Violation
from ..testing.coverage import CoverageMap
from ..testing.explorer import ExecutionRecord
from ..testing.parallel import _ExhaustiveShard, _RandomShard
from ..testing.scenarios import ScenarioFactory, scenario_factory
from ..testing.strategies import ExhaustiveStrategy, RandomStrategy

#: Version of the wire format.  Bumped on any incompatible change; both
#: ends reject mismatched envelopes eagerly.
PROTOCOL_VERSION = 4

#: The HTTP path prefix of every control-plane route (``/api/v1/lease``
#: is route ``lease``).
API_PREFIX = "/api/v1/"

_JSON_SCALARS = (type(None), bool, int, float, str)


class ProtocolError(ValueError):
    """A message could not be encoded or decoded under this protocol."""


# --------------------------------------------------------------------- #
# the envelope
# --------------------------------------------------------------------- #


def envelope(msg_type: str, payload: Any) -> Dict[str, Any]:
    """Wrap a payload in the versioned message envelope."""
    return {"v": PROTOCOL_VERSION, "type": msg_type, "payload": payload}


def open_envelope(message: Any, expect: Optional[str] = None) -> Any:
    """Check version (and optionally type), return the payload.

    >>> open_envelope(envelope("status", {"ok": True}), expect="status")
    {'ok': True}
    >>> open_envelope({"v": 99, "type": "status", "payload": {}})
    Traceback (most recent call last):
        ...
    repro.swarm.protocol.ProtocolError: protocol version mismatch: got 99, speak 4
    """
    if not isinstance(message, dict) or "v" not in message:
        raise ProtocolError(f"not a protocol envelope: {message!r}")
    if message["v"] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {message['v']}, speak {PROTOCOL_VERSION}"
        )
    if expect is not None and message.get("type") != expect:
        raise ProtocolError(f"expected a {expect!r} message, got {message.get('type')!r}")
    return message.get("payload")


def dumps(msg_type: str, payload: Any) -> bytes:
    """Serialise an enveloped message to UTF-8 JSON bytes."""
    return json.dumps(envelope(msg_type, payload)).encode("utf-8")


def loads(raw: bytes, expect: Optional[str] = None) -> Any:
    """Parse UTF-8 JSON bytes and open the envelope."""
    try:
        message = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable message: {error}") from None
    return open_envelope(message, expect=expect)


# --------------------------------------------------------------------- #
# factories (registry names only: the portable workload description)
# --------------------------------------------------------------------- #


def _check_json_safe(value: Any, what: str) -> Any:
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_check_json_safe(item, what) for item in value]
    if isinstance(value, dict):
        return {
            _require_str(key, what): _check_json_safe(item, what)
            for key, item in value.items()
        }
    raise ProtocolError(f"{what} must be JSON-safe, got {type(value).__name__}: {value!r}")


def _require_str(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"{what} keys must be strings, got {value!r}")
    return value


def encode_factory(factory: Any) -> Dict[str, Any]:
    """Serialise a harness factory; only registry scenarios travel.

    Arbitrary callables cannot cross host boundaries — the swarm requires
    the portable form, a scenario *name* plus JSON-safe overrides, which
    every drone rebuilds from its own registry.
    """
    if not isinstance(factory, ScenarioFactory):
        raise ProtocolError(
            "the swarm ships workloads by scenario name; pass scenario=<name> "
            f"(got a {type(factory).__name__} harness factory)"
        )
    overrides = {key: _check_json_safe(value, f"scenario override {key!r}")
                 for key, value in factory.overrides}
    return {"scenario": factory.name, "overrides": overrides}


def decode_factory(data: Any) -> Any:
    """Rebuild the factory from the local scenario registry.

    A private plane's factory object (a callable) passes through.
    """
    if callable(data):
        return data
    overrides = {
        key: _tuplify(value) for key, value in data.get("overrides", {}).items()
    }
    return scenario_factory(data["scenario"], **overrides)


def _tuplify(value: Any) -> Any:
    # JSON has no tuples; scenario overrides that were tuples come back as
    # lists.  Builders accept sequences either way, but the factory's
    # identity (and thus warm-tester caching) is stabler with tuples.
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


# --------------------------------------------------------------------- #
# shards
# --------------------------------------------------------------------- #


def encode_shard(shard: Any, *, portable: bool = True) -> Dict[str, Any]:
    """Serialise a random or exhaustive shard description.

    ``portable=False`` keeps the factory object itself (private plane).
    """
    common = {
        "factory": encode_factory(shard.factory) if portable else shard.factory,
        "max_executions": shard.max_executions,
        "max_permuted": shard.max_permuted,
        "stop_at_first_violation": shard.stop_at_first_violation,
        "track_coverage": shard.track_coverage,
    }
    if isinstance(shard, _RandomShard):
        return {"kind": "random", "seed": shard.seed,
                "indices": list(shard.indices), **common}
    if isinstance(shard, _ExhaustiveShard):
        return {"kind": "exhaustive", "max_depth": shard.max_depth,
                "prefixes": [list(prefix) for prefix in shard.prefixes], **common}
    raise ProtocolError(f"unknown shard type: {type(shard).__name__}")


def decode_shard(data: Dict[str, Any]) -> Any:
    """Rebuild a shard value object from its wire form."""
    try:
        kind = data["kind"]
        common = dict(
            factory=decode_factory(data["factory"]),
            max_executions=int(data["max_executions"]),
            max_permuted=int(data["max_permuted"]),
            stop_at_first_violation=bool(data["stop_at_first_violation"]),
            track_coverage=bool(data["track_coverage"]),
        )
        if kind == "random":
            return _RandomShard(
                seed=int(data["seed"]),
                indices=tuple(int(index) for index in data["indices"]),
                **common,
            )
        if kind == "exhaustive":
            return _ExhaustiveShard(
                max_depth=int(data["max_depth"]),
                prefixes=tuple(tuple(int(c) for c in prefix) for prefix in data["prefixes"]),
                **common,
            )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed shard: {error}") from None
    raise ProtocolError(f"unknown shard kind: {kind!r}")


def shard_prefixes(shard: Any) -> Tuple[Tuple[int, ...], ...]:
    """The exhaustive shard's prefixes (empty for random shards)."""
    return getattr(shard, "prefixes", ())


# --------------------------------------------------------------------- #
# strategies (the mission service's client-facing budget description)
# --------------------------------------------------------------------- #


def encode_strategy(strategy: Any) -> Dict[str, Any]:
    """Serialise a shardable choice strategy (random or exhaustive)."""
    if isinstance(strategy, RandomStrategy):
        return {
            "kind": "random",
            "seed": strategy.seed,
            "max_executions": strategy.max_executions,
        }
    if isinstance(strategy, ExhaustiveStrategy):
        return {
            "kind": "exhaustive",
            "max_depth": strategy.max_depth,
            "max_executions": strategy.max_executions,
        }
    raise ProtocolError(f"unshardable strategy type: {type(strategy).__name__}")


def decode_strategy(data: Dict[str, Any]) -> Any:
    """Rebuild a strategy from its wire form."""
    try:
        kind = data["kind"]
        if kind == "random":
            return RandomStrategy(
                seed=int(data.get("seed", 0)),
                max_executions=int(data["max_executions"]),
            )
        if kind == "exhaustive":
            return ExhaustiveStrategy(
                max_depth=int(data.get("max_depth", 32)),
                max_executions=int(data["max_executions"]),
            )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed strategy: {error}") from None
    raise ProtocolError(f"unknown strategy kind: {kind!r}")


# --------------------------------------------------------------------- #
# violations / records / coverage
# --------------------------------------------------------------------- #


def encode_violation(violation: Violation) -> Dict[str, Any]:
    """Serialise a violation; non-JSON states degrade to their ``repr``."""
    state: Any = violation.state
    if not isinstance(state, _JSON_SCALARS):
        state = repr(state)
    return {
        "time": violation.time,
        "monitor": violation.monitor,
        "message": violation.message,
        "state": state,
    }


def decode_violation(data: Any) -> Violation:
    if isinstance(data, Violation):  # a private plane's record
        return data
    return Violation(
        time=float(data["time"]),
        monitor=data["monitor"],
        message=data["message"],
        state=data.get("state"),
    )


def encode_record(record: ExecutionRecord, *, portable: bool = True) -> Dict[str, Any]:
    """Serialise one execution record (trail included: replay identity).

    ``portable=False`` keeps the violations themselves (private plane).
    """
    return {
        "index": record.index,
        "steps": record.steps,
        "violations": [encode_violation(violation) for violation in record.violations]
        if portable else list(record.violations),
        "trail": list(record.trail) if record.trail is not None else None,
        "worker": record.worker,
    }


def decode_record(data: Dict[str, Any]) -> ExecutionRecord:
    try:
        return ExecutionRecord(
            index=int(data["index"]),
            steps=int(data["steps"]),
            violations=[decode_violation(violation) for violation in data["violations"]],
            trail=None if data.get("trail") is None else [int(c) for c in data["trail"]],
            worker=data.get("worker"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed execution record: {error}") from None


def encode_coverage(coverage: Optional[CoverageMap]) -> Optional[List[List[Any]]]:
    """Serialise a coverage map as ``[vehicle, mode, region, count]`` rows."""
    if coverage is None:
        return None
    return [
        [vehicle, mode, region, count]
        for (vehicle, mode, region), count in sorted(coverage.counts.items())
    ]


def decode_coverage(data: Optional[List[List[Any]]]) -> Optional[CoverageMap]:
    if data is None:
        return None
    coverage = CoverageMap()
    try:
        for vehicle, mode, region, count in data:
            coverage.record(str(vehicle), str(mode), str(region), count=int(count))
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"malformed coverage map: {error}") from None
    return coverage


# --------------------------------------------------------------------- #
# execution identity (what makes result ingestion idempotent)
# --------------------------------------------------------------------- #


def execution_key(shard_kind: str, record_data: Dict[str, Any]) -> Tuple[Any, ...]:
    """The deduplication identity of one wire-form execution record.

    Random sweeps derive execution *i* entirely from ``(seed, i)``, so the
    global index *is* the execution's identity.  Exhaustive executions are
    identified by their full choice trail (trails are unique within an
    enumeration and stable across shard re-partitioning).  A re-leased
    shard that races its zombie original therefore produces byte-identical
    keys for the same executions — the control plane keeps the first copy
    of each and drops the rest, which is what makes re-leasing (and
    adaptive subtree splits) unable to double-count.
    """
    if shard_kind == "random":
        return ("i", int(record_data["index"]))
    trail = record_data.get("trail") or []
    return ("t", tuple(int(choice) for choice in trail))
