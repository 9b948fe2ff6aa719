"""The mission state machine: submissions, event streams, final reports.

A *mission* is one client-requested exploration sweep running as a
control-plane session on the standing fleet.  The service glues three
concurrent parties together:

* the **client**, who submitted the mission and tails its event log via
  a cursor (each event carries a monotonic ``seq``; re-reading from any
  cursor is idempotent, so a dropped connection resumes cleanly);
* the **control plane**, whose listener hooks
  (:meth:`~repro.swarm.controlplane.ControlPlane.add_listener`) feed
  each *accepted* record into the owning mission's event log the moment
  it is ingested — streaming rides ingestion, so exactly-once falls out
  of the plane's idempotent dedup;
* the **mission runner**, one thread per mission driving a
  :class:`~repro.testing.ParallelTester` subclass whose session runs on
  the service's plane through the tester's own in-process session
  runner (the standing fleet does the work).  Reusing the tester
  end-to-end is what makes the final report *byte-equal* to a serial
  :class:`~repro.testing.SystematicTester` run of the same scenario,
  seed and budget: same sharding, same deterministic re-ordering, same
  serial replay confirmation.

Lock ordering is one-way: plane lock -> service lock.  Listener
callbacks (running under the plane lock) may take the service lock to
append events; service code never calls plane methods while holding its
own lock.  Records ingested between ``create_session`` returning and
the mission attaching to its session id are buffered per session and
drained on attach, so the stream never loses its first records to that
race.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..swarm import protocol
from ..swarm.controlplane import ControlPlane
from ..testing.parallel import ParallelReport, ParallelTester

#: The fields a mission spec may carry (see :meth:`MissionService.submit`).
_SPEC_FIELDS = frozenset({
    "scenario", "strategy", "overrides", "shards",
    "track_coverage", "stop_at_first_violation", "confirm",
})


class Mission:
    """One submitted mission: its spec, event log, and final report."""

    def __init__(self, mission_id: str, spec: Dict[str, Any]) -> None:
        self.mission_id = mission_id
        self.spec = spec
        self.session_id: Optional[str] = None
        #: The event log; every event is a JSON-safe dict with a ``seq``
        #: (1-based, dense) and a ``type``.  Append-only.
        self.events: List[Dict[str, Any]] = []
        self.done = False
        self.error: Optional[str] = None
        self.report: Optional[Dict[str, Any]] = None  # wire form, set when done
        self.session_finished = threading.Event()

    @property
    def last_seq(self) -> int:
        return len(self.events)


class MissionService:
    """Runs missions against one :class:`ControlPlane` and streams events.

    ``default_shards`` is how many shards a mission is split into when
    the client does not say (match it to the standing fleet size);
    ``deadline`` bounds one mission's wall-clock time.
    """

    def __init__(
        self,
        plane: ControlPlane,
        *,
        default_shards: int = 2,
        deadline: float = 300.0,
    ) -> None:
        if default_shards < 1:
            raise ValueError("default_shards must be at least 1")
        self.plane = plane
        self.default_shards = default_shards
        self.deadline = deadline
        self._lock = threading.Lock()
        self._events_ready = threading.Condition(self._lock)
        self._missions: Dict[str, Mission] = {}
        self._by_session: Dict[str, Mission] = {}
        #: Records ingested before the owning mission attached (see the
        #: module docstring's race note), keyed by session id.
        self._orphans: Dict[str, List[Tuple[Dict[str, Any], Any]]] = {}
        self._ids = itertools.count(1)
        self._threads: List[threading.Thread] = []
        plane.add_listener(self)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, spec: Dict[str, Any]) -> str:
        """Validate a mission spec, start its runner thread, return its id.

        Spec fields: ``scenario`` (registry name, required), ``strategy``
        (wire form, see :func:`~repro.swarm.protocol.encode_strategy`,
        required), ``overrides`` (builder kwargs), ``shards`` (null or an
        integer >= 1), and the JSON booleans ``track_coverage``,
        ``stop_at_first_violation`` and ``confirm`` (default True).  Any
        other field is rejected, as is a workload whose build fails.
        """
        if not isinstance(spec, dict):
            raise protocol.ProtocolError("mission spec must be an object")
        unknown = sorted(set(spec) - _SPEC_FIELDS)
        if unknown:
            raise protocol.ProtocolError(
                f"unknown mission spec field(s): {', '.join(map(repr, unknown))}")
        scenario = spec.get("scenario")
        if not isinstance(scenario, str):
            raise protocol.ProtocolError("mission spec needs a scenario name")
        strategy_data = spec.get("strategy")
        if not isinstance(strategy_data, dict):
            raise protocol.ProtocolError("mission spec needs a strategy object")
        protocol.decode_strategy(strategy_data)  # fail fast on malformed budgets
        overrides = spec.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise protocol.ProtocolError("mission overrides must be an object")
        for name, value in overrides.items():
            # JSON ``NaN``/``Infinity`` pass the wire, and not every
            # builder rejects them.
            if isinstance(value, float) and not math.isfinite(value):
                raise protocol.ProtocolError(
                    f"override {name!r} must be finite, got {value!r}")
        try:
            # Build the workload once: a failure (unknown scenario, bad
            # override, a value the builder rejects) belongs to the
            # submitter, not to a runner thread's error event.
            protocol.scenario_factory(scenario, **overrides)()
        except Exception as error:
            raise protocol.ProtocolError(f"bad mission workload: {error}") from None
        # Checked here, not left to the runner thread or a drone: ``int``
        # would truncate 2.5 and ``bool`` would read "false" as True.
        shards = spec.get("shards")
        if shards is not None and (
            isinstance(shards, bool) or not isinstance(shards, int) or shards < 1
        ):
            raise protocol.ProtocolError(
                f"shards must be null or an integer >= 1, got {shards!r}")
        for flag in ("track_coverage", "stop_at_first_violation", "confirm"):
            if flag in spec and not isinstance(spec[flag], bool):
                raise protocol.ProtocolError(
                    f"{flag} must be a JSON boolean, got {spec[flag]!r}")
        with self._lock:
            mission_id = f"m{next(self._ids)}"
            mission = Mission(mission_id, dict(spec))
            self._missions[mission_id] = mission
        self._emit(mission, "submitted", scenario=scenario, strategy=strategy_data)
        thread = threading.Thread(
            target=self._run_mission, args=(mission,), daemon=True,
            name=f"mission-{mission_id}",
        )
        self._threads = [t for t in self._threads if t.is_alive()]
        self._threads.append(thread)
        thread.start()
        return mission_id

    def mission(self, mission_id: str) -> Mission:
        with self._lock:
            try:
                return self._missions[mission_id]
            except KeyError:
                raise protocol.ProtocolError(f"unknown mission {mission_id!r}") from None

    def status(self, mission_id: str) -> Dict[str, Any]:
        """A lightweight mission status view (counters, no bodies)."""
        mission = self.mission(mission_id)
        with self._lock:
            return {
                "mission": mission.mission_id,
                "session": mission.session_id,
                "done": mission.done,
                "error": mission.error,
                "last_seq": mission.last_seq,
                "records": sum(
                    1 for event in mission.events if event["type"] == "record"
                ),
            }

    def result(self, mission_id: str) -> Dict[str, Any]:
        """The final report (wire form); an error until the mission is done."""
        mission = self.mission(mission_id)
        with self._lock:
            if not mission.done:
                raise protocol.ProtocolError(
                    f"mission {mission_id} is still running (stream its events)"
                )
            if mission.report is None:
                raise protocol.ProtocolError(
                    f"mission {mission_id} failed: {mission.error}"
                )
            return mission.report

    # ------------------------------------------------------------------ #
    # the event log and its cursors
    # ------------------------------------------------------------------ #
    def events_after(
        self, mission_id: str, since: int, *, timeout: float = 0.0
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events with ``seq > since``, and whether the mission is done.

        With a ``timeout`` the call blocks until at least one new event
        arrives (or the mission finishes, or the timeout elapses) — the
        streaming endpoint's building block.  Cursor reads are pure:
        re-reading any range returns identical events.
        """
        mission = self.mission(mission_id)
        deadline = time.monotonic() + timeout
        with self._events_ready:
            while (
                mission.last_seq <= since
                and not mission.done
                and time.monotonic() < deadline
            ):
                self._events_ready.wait(
                    min(0.25, max(0.0, deadline - time.monotonic()))
                )
            return list(mission.events[since:]), mission.done

    def _emit(self, mission: Mission, event_type: str, **payload: Any) -> None:
        with self._events_ready:
            event = {"seq": mission.last_seq + 1, "type": event_type, **payload}
            mission.events.append(event)
            self._events_ready.notify_all()

    # ------------------------------------------------------------------ #
    # control-plane listener hooks (called under the PLANE lock)
    # ------------------------------------------------------------------ #
    def record_accepted(
        self, session_id: str, record: Dict[str, Any], coverage: Any
    ) -> None:
        with self._lock:
            mission = self._by_session.get(session_id)
            if mission is None:
                self._orphans.setdefault(session_id, []).append((record, coverage))
                return
        self._emit_record(mission, record, coverage)

    def session_finished(self, session_id: str) -> None:
        with self._lock:
            mission = self._by_session.get(session_id)
        if mission is not None:
            mission.session_finished.set()

    def _emit_record(
        self, mission: Mission, record: Dict[str, Any], coverage: Any
    ) -> None:
        self._emit(mission, "record", record=dict(record), coverage=coverage)

    def _attach_session(self, mission: Mission, session_id: str) -> None:
        with self._lock:
            mission.session_id = session_id
            self._by_session[session_id] = mission
            orphans = self._orphans.pop(session_id, [])
        for record, coverage in orphans:
            self._emit_record(mission, record, coverage)
        self._emit(mission, "session", session=session_id)

    # ------------------------------------------------------------------ #
    # the runner thread
    # ------------------------------------------------------------------ #
    def _run_mission(self, mission: Mission) -> None:
        spec = mission.spec
        try:
            run = _MissionRun(self, mission)
            report = run.explore(
                stop_at_first_violation=spec.get("stop_at_first_violation", False),
                confirm_counterexamples=spec.get("confirm", True),
            )
            wire = self._encode_report(mission, report)
        except Exception as error:  # the client's problem to read, not ours to die on
            with self._lock:
                mission.error = str(error)
                mission.done = True
            self._emit(mission, "finished", ok=None, error=str(error))
        else:
            with self._lock:
                mission.report = wire
                mission.done = True
            for confirmation in wire["confirmations"]:
                self._emit(mission, "confirmation", **confirmation)
            self._emit(mission, "coverage", coverage=wire["coverage"])
            self._emit(
                mission,
                "finished",
                ok=wire["ok"],
                all_confirmed=wire["all_confirmed"],
                executions=len(wire["records"]),
                duplicates=wire["duplicates"],
                error=None,
            )
        finally:
            with self._events_ready:
                self._events_ready.notify_all()
            if mission.session_id is not None:
                # A long-lived service must not hoard finished sessions.
                self.plane.drop_session(mission.session_id)

    def _encode_report(self, mission: Mission, report: ParallelReport) -> Dict[str, Any]:
        return {
            "mission": mission.mission_id,
            "session": mission.session_id,
            "ok": report.ok,
            "all_confirmed": report.all_confirmed,
            "records": [protocol.encode_record(r) for r in report.executions],
            "coverage": protocol.encode_coverage(report.coverage) or [],
            "confirmations": [
                {
                    "trail": list(c.trail),
                    "confirmed": c.confirmed,
                    "replayed": protocol.encode_record(c.replayed),
                }
                for c in report.confirmations
            ],
            "duplicates": report.duplicates,
            "events": list(report.events),
            "workers": report.workers,
            "wall_time": report.wall_time,
        }


class _MissionRun(ParallelTester):
    """A mission's sweep, run as a session on the service's plane.

    Sharding, deterministic finalise and serial replay confirmation are
    inherited, which is precisely what guarantees mission reports match
    ``ParallelTester``/``SwarmTester`` (and therefore serial
    ``SystematicTester``) output exactly.  The standing fleet does the
    work, so the session runs without a fleet of its own.
    """

    def __init__(self, service: MissionService, mission: Mission) -> None:
        spec = mission.spec
        super().__init__(
            spec["scenario"],
            strategy=protocol.decode_strategy(spec["strategy"]),
            workers=spec.get("shards") or service.default_shards,
            scenario_overrides=spec.get("overrides") or None,
            track_coverage=spec.get("track_coverage", False),
        )
        self.service = service
        self.mission = mission

    def _execute(self, shards: Sequence[Any], report: ParallelReport) -> None:
        self._run_on_plane(
            self.service.plane,
            [protocol.encode_shard(shard) for shard in shards],
            report,
            self.mission.session_finished,
            self.service.deadline,
            on_session=lambda session_id: self.service._attach_session(self.mission, session_id),
            label=f"mission {self.mission.mission_id}",
        )
