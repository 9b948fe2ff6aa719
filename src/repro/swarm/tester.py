"""The swarm facade: ``ParallelTester`` semantics over a drone fleet.

:class:`SwarmTester` mirrors :class:`~repro.testing.parallel.ParallelTester`
exactly — same sharding (execution-index slices for random sweeps,
trail-prefix partitions for exhaustive ones), same deterministic
aggregation (:meth:`~repro.testing.parallel.ParallelTester._finalise`),
same early-stop and serial replay confirmation — but the session runs on
a control plane served over HTTP, with the shards travelling in the
:mod:`wire protocol <repro.swarm.protocol>`, instead of on the pool's
private in-process plane.  Because every execution is a pure function of
the shard description, the resulting :class:`SwarmReport` carries the
identical violations and coverage a ``ParallelTester`` run (or the serial
tester) would produce — including after a drone dies mid-session, since
expired leases are re-issued and ingestion dedupes by execution identity.

Two deployment shapes:

* **localhost (default)** — the tester hosts its own
  :class:`~repro.swarm.controlplane.ControlPlaneServer` and a
  :class:`~repro.swarm.drone.LocalFleet` of ``drones`` HTTP drone
  threads (or processes with ``drone_processes=True``), which makes a
  swarm run CI-runnable in one Python invocation;
* **remote** — pass ``control_plane_url=`` to submit the session to an
  already-running control plane whose standing fleet does the work.

>>> from repro.testing import RandomStrategy
>>> report = SwarmTester("toy-closed-loop",
...     scenario_overrides={"broken_ttf": True},
...     strategy=RandomStrategy(seed=0, max_executions=6),
...     drones=2).explore()
>>> report.ok, report.all_confirmed
(False, True)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..testing.parallel import ParallelReport, ParallelTester
from ..testing.strategies import ChoiceStrategy
from . import protocol
from .controlplane import ControlPlaneServer
from .drone import LocalFleet, get_json, post_json


@dataclass
class SwarmReport(ParallelReport):
    """A :class:`ParallelReport` from a swarm run (drones, not workers)."""

    def summary(self) -> str:
        base = super().summary()
        healed = f", {len(self.events)} control-plane event(s)" if self.events else ""
        return f"{base.replace('worker(s)', 'drone(s)')}{healed}"


class SwarmTester(ParallelTester):
    """Shards a systematic-testing run across a drone swarm.

    Accepts every :class:`~repro.testing.parallel.ParallelTester` option
    except ``harness_factory`` (workloads must be registry scenarios —
    the portable description drones rebuild by name) plus:

    ``drones``
        fleet size for the self-hosted localhost mode (ignored with
        ``control_plane_url``, where the standing fleet decides).
    ``drone_processes``
        run localhost drones as OS processes instead of threads (used by
        the fault-injection tests, which need something to SIGKILL).
    ``control_plane_url``
        submit to an existing control plane instead of self-hosting.
    ``heartbeat_timeout`` / ``split_lagging_after``
        self-healing knobs of the self-hosted control plane.
    ``deadline``
        overall wall-clock bound on one :meth:`explore` session.
    """

    def __init__(
        self,
        scenario: str,
        *,
        strategy: Optional[ChoiceStrategy] = None,
        drones: int = 2,
        drone_processes: bool = False,
        control_plane_url: Optional[str] = None,
        heartbeat_timeout: float = 5.0,
        split_lagging_after: float = 1.0,
        deadline: float = 120.0,
        scenario_overrides: Optional[dict] = None,
        max_permuted: int = 6,
        track_coverage: bool = False,
    ) -> None:
        if drones < 1:
            raise ValueError("a swarm needs at least one drone")
        super().__init__(
            scenario,
            strategy=strategy,
            workers=drones,
            max_permuted=max_permuted,
            scenario_overrides=scenario_overrides,
            track_coverage=track_coverage,
        )
        self.drones = drones
        self.drone_processes = drone_processes
        self.control_plane_url = control_plane_url
        self.heartbeat_timeout = heartbeat_timeout
        self.split_lagging_after = split_lagging_after
        self.deadline = deadline
        #: The last session's id and control-plane URL (for postmortems).
        self.last_session: Optional[str] = None
        self.last_url: Optional[str] = None

    # ------------------------------------------------------------------ #
    # the ParallelTester execution hook
    # ------------------------------------------------------------------ #
    def explore(self, *args: Any, **kwargs: Any) -> SwarmReport:
        report = super().explore(*args, **kwargs)
        assert isinstance(report, SwarmReport)
        return report

    def _new_report(self, workers: int, partitions: List) -> SwarmReport:
        return SwarmReport(workers=workers, partitions=partitions)

    def _execute(self, shards: Sequence[Any], report: ParallelReport) -> None:
        encoded = [protocol.encode_shard(shard) for shard in shards]
        if self.control_plane_url is not None:
            self._run_session(self.control_plane_url, encoded, report)
            return
        server = ControlPlaneServer(
            heartbeat_timeout=self.heartbeat_timeout,
            split_lagging_after=self.split_lagging_after,
        ).start()
        fleet = LocalFleet(server.plane, self.drones, processes=self.drone_processes,
                           url=server.url)
        try:
            self._run_session(server.url, encoded, report, fleet=fleet)
        finally:
            fleet.stop()
            server.stop()

    def _run_session(
        self,
        url: str,
        encoded_shards: List[Dict[str, Any]],
        report: ParallelReport,
        fleet: Optional[LocalFleet] = None,
    ) -> None:
        created = post_json(url, "/api/v1/session", {
            "shards": encoded_shards,
            "stop_at_first_violation": encoded_shards[0]["stop_at_first_violation"],
            "label": getattr(self.harness_factory, "name", ""),
        })
        session_id = created["session"]
        self.last_session, self.last_url = session_id, url
        if fleet is not None:
            fleet.start()  # after the session: drones find work on their first poll
        deadline = time.monotonic() + self.deadline
        # Poll the lightweight status endpoint (counters only) with capped
        # exponential backoff; fetch the full record stream once, at the end.
        poll = 0.01
        while True:
            summary = get_json(url, f"/api/v1/session/{session_id}/status")
            if summary["finished"]:
                break
            if fleet is not None:
                fleet.reap()
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"swarm session {session_id} missed its {self.deadline:.0f}s "
                    f"deadline; last status: {summary['shards']}"
                )
            time.sleep(poll)
            poll = min(poll * 2.0, 0.25)
        full = get_json(url, f"/api/v1/session/{session_id}/report")
        self._ingest_report(full, report)
        self._raise_if_failed(full, fleet)
