"""Mission-testing-as-a-service: submit scenarios, stream verdicts back.

The swarm layer (:mod:`repro.swarm`) runs one exploration sweep per
``SwarmTester`` call.  This package turns the same control plane + drone
fleet into a *long-running service*: clients POST a mission (scenario
name, overrides, strategy/budget, shard count) to ``/api/v1/mission``
and stream back execution records, coverage tables and confirmed
counterexamples incrementally via the cursor-based
``/api/v1/mission/<id>/events?since=<seq>`` endpoint (chunked JSON
lines), with many interleaved missions multiplexed over the existing
session/lease/status machinery.  Every drone runs the serial
reset-and-reuse :class:`~repro.testing.SystematicTester`.

* :mod:`~repro.service.missions` — :class:`MissionService`, the pure
  state machine: mission lifecycle, per-mission event logs with
  monotonic sequence numbers, control-plane listeners feeding the
  streams, and final reports with ``ParallelTester`` parity (same
  deterministic ordering, same serial replay confirmation);
* :mod:`~repro.service.server` — :class:`MissionServer`, a
  :class:`~repro.swarm.controlplane.ControlPlaneServer` subclass adding
  the mission routes (and optionally hosting a standing drone fleet);
* :mod:`~repro.service.client` — :class:`MissionClient`, the blocking
  HTTP client: submit, poll status, iterate streamed events, fetch the
  final report.

Everything remains pure standard library.  See ``docs/service.md``.
"""

from .client import MissionClient
from .missions import MissionService
from .server import MissionServer

__all__ = ["MissionClient", "MissionServer", "MissionService"]
