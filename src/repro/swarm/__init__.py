"""Sharded testing's execution fabric: a self-healing control plane + drones.

Every sharded sweep is a session on a :class:`ControlPlane`.  The in-host
:class:`~repro.testing.parallel.ParallelTester` runs it on a private
in-process plane whose drones are its forked workers (over pipes); this
package also serves the plane over HTTP so one sweep spans many hosts:

* :mod:`~repro.swarm.protocol` — the versioned JSON wire format for
  shards, execution records, violations and coverage maps;
* :mod:`~repro.swarm.controlplane` — sessions, the shard lease queue,
  idempotent result ingestion, the ``/status`` endpoint, and the
  self-healing escalation ladder (warn → re-lease → drone dead →
  session fails only with no drone left);
* :mod:`~repro.swarm.drone` — the worker: long-poll a lease, run it on
  the warm reset-and-reuse tester, stream records + coverage home,
  heartbeat while running — over HTTP, a pipe or a direct call — and
  the local fleet that owns N of them;
* :mod:`~repro.swarm.tester` — :class:`SwarmTester`, the facade with
  ``ParallelTester.explore()`` semantics (and a localhost self-hosted
  mode that makes swarm runs CI-runnable in one process).

Everything is pure standard library (plus the repo itself) — a fleet
host needs no extra dependencies.  See ``docs/swarm.md``.
"""

from .controlplane import ControlPlane, ControlPlaneServer
from .drone import Drone, run_drone
from .protocol import PROTOCOL_VERSION, ProtocolError
from .tester import SwarmReport, SwarmTester

__all__ = [
    "PROTOCOL_VERSION",
    "ControlPlane",
    "ControlPlaneServer",
    "Drone",
    "ProtocolError",
    "SwarmReport",
    "SwarmTester",
    "run_drone",
]
