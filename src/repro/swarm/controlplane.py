"""The swarm control plane: sessions, shard leases, self-healing ingestion.

One control plane coordinates a fleet of drones
(:mod:`repro.swarm.drone`).  It is deliberately dumb about the workload —
it never builds a scenario or runs an execution; it only moves *shard
descriptions* (the value objects every sharded tester produces) through
a lease queue and folds the streamed results back together:

* **sessions** group the shards of one exploration sweep and accumulate
  its execution records and coverage;
* **leases** hand one shard to one drone, with proof-of-life heartbeats
  and a deadline;
* **ingestion is idempotent**: every record is keyed by its execution
  identity (:func:`~repro.swarm.protocol.execution_key` — global index
  for random sweeps, full choice trail for exhaustive ones), so a
  re-leased shard racing its zombie original cannot double-count records
  *or* coverage (coverage rides each accepted record, not the shard);
* **self-healing** follows an escalation ladder per lease: a missed
  heartbeat first *warns* (the drone shows as lagging in ``/status``),
  then *expires the lease* and requeues the shard for another drone,
  then *marks the drone dead* after repeated expiries; the session only
  fails when work remains and no live drone is left to do it;
* **adaptive re-partitioning**: when a drone goes idle while an
  exhaustive lease lags the fleet, the lagging shard's not-yet-started
  trail prefixes are split off into a fresh shard and leased out — the
  original drone learns its shrunken prefix budget on the next
  heartbeat, and the trail-keyed ingestion makes the handover safe even
  if both drones race over the boundary subtree.

The pure state machine (:class:`ControlPlane`) is separate from its
transports, so the healing logic is unit-testable with a fake clock.
Every request enters through one route table, :meth:`ControlPlane.call`,
whichever way it travelled: HTTP (:class:`ControlPlaneServer`, a stdlib
``ThreadingHTTPServer``), a forked worker's ``multiprocessing.Pipe``, or
a direct call from an in-process drone.  The first serves the swarm and
the mission service; the other two serve the private plane of a local
:class:`~repro.testing.ParallelTester` run.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import protocol

#: How long a lease request may block waiting for work (seconds).
LEASE_POLL_TIMEOUT = 2.0


class UnknownRoute(protocol.ProtocolError):
    """A request named a route the control plane does not serve."""


# --------------------------------------------------------------------- #
# state
# --------------------------------------------------------------------- #


@dataclass
class DroneState:
    """What the control plane knows about one drone."""

    drone_id: str
    first_seen: float
    last_seen: float
    strikes: int = 0
    dead: bool = False
    lagging: bool = False
    leases_granted: int = 0
    leases_completed: int = 0


@dataclass
class Lease:
    """One shard handed to one drone, with a proof-of-life deadline."""

    lease_id: int
    session_id: str
    shard_id: int
    drone_id: str
    granted_at: float
    last_heartbeat: float
    warned: bool = False
    executions_done: int = 0
    prefixes_done: int = 0


@dataclass
class ShardState:
    """One shard's position in the queued -> leased -> done lifecycle."""

    shard_id: int
    data: Dict[str, Any]  # wire form (protocol.encode_shard)
    status: str = "queued"  # queued | leased | done | cancelled
    attempts: int = 0
    lease_id: Optional[int] = None

    @property
    def kind(self) -> str:
        return self.data["kind"]


@dataclass
class Session:
    """One exploration sweep: its shards, records, coverage, and fate."""

    session_id: str
    shards: List[ShardState]
    stop_at_first_violation: bool
    created_at: float
    label: str = ""
    records: List[Dict[str, Any]] = field(default_factory=list)
    record_keys: set = field(default_factory=set)
    coverage_rows: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    duplicates: int = 0
    stopping: bool = False
    failed: Optional[str] = None
    events: List[str] = field(default_factory=list)
    finish_notified: bool = False

    @property
    def finished(self) -> bool:
        if self.failed is not None:
            return True
        return all(shard.status in ("done", "cancelled") for shard in self.shards)

    @property
    def outstanding(self) -> List[ShardState]:
        return [shard for shard in self.shards if shard.status in ("queued", "leased")]


class ControlPlane:
    """The swarm's session/lease/result state machine.

    All public methods are thread-safe (one lock; transports call them
    from concurrent handler and relay threads).  ``clock`` is injectable so
    the escalation ladder is testable without real waiting.
    """

    def __init__(
        self,
        *,
        heartbeat_timeout: float = 5.0,
        warn_after: Optional[float] = None,
        max_drone_strikes: int = 2,
        max_shard_attempts: int = 5,
        split_lagging_after: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.heartbeat_timeout = heartbeat_timeout
        self.warn_after = heartbeat_timeout / 2.0 if warn_after is None else warn_after
        self.max_drone_strikes = max_drone_strikes
        self.max_shard_attempts = max_shard_attempts
        self.split_lagging_after = split_lagging_after
        self._clock = clock
        self._lock = threading.RLock()
        #: Notified whenever a shard enters the queue (session creation,
        #: expiry requeue, adaptive split) so idle lease long-polls wake
        #: immediately instead of busy-waiting.
        self._work = threading.Condition(self._lock)
        self._sessions: Dict[str, Session] = {}
        self._drones: Dict[str, DroneState] = {}
        self._leases: Dict[int, Lease] = {}  # active leases only
        self._session_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)
        self._shard_ids = itertools.count(1)
        self._listeners: List[Any] = []

    # ------------------------------------------------------------------ #
    # listeners (the mission service's streaming hook)
    # ------------------------------------------------------------------ #
    def add_listener(self, listener: Any) -> None:
        """Register an observer of session progress.

        Listeners may implement ``record_accepted(session_id, record,
        coverage)`` (called once per *accepted* record — duplicates never
        reach listeners) and ``session_finished(session_id)`` (called
        exactly once when a session reaches its final state).  Callbacks
        run under the plane lock: they must be quick and must never call
        back into the plane's public methods from another thread they
        block on (one-way lock ordering: plane -> listener).
        """
        with self._lock:
            self._listeners.append(listener)

    def _notify_record(
        self, session_id: str, record: Dict[str, Any], coverage: Any
    ) -> None:
        for listener in self._listeners:
            hook = getattr(listener, "record_accepted", None)
            if hook is not None:
                hook(session_id, record, coverage)

    def _notify_finish_transitions(self) -> None:
        # Call with the lock held.  A session "finishes" on whichever
        # request tips its last shard (ingest, expiry, failure) — detect
        # the transition here so every path reports it exactly once.
        for session in self._sessions.values():
            if session.finish_notified or not session.finished:
                continue
            session.finish_notified = True
            for listener in self._listeners:
                hook = getattr(listener, "session_finished", None)
                if hook is not None:
                    hook(session.session_id)

    # ------------------------------------------------------------------ #
    # sessions
    # ------------------------------------------------------------------ #
    def create_session(
        self,
        shards: List[Dict[str, Any]],
        *,
        stop_at_first_violation: bool = False,
        label: str = "",
    ) -> str:
        """Queue a new session's shards; returns the session id."""
        if not shards:
            raise protocol.ProtocolError("a session needs at least one shard")
        for shard in shards:
            if shard.get("kind") not in ("random", "exhaustive"):
                raise protocol.ProtocolError(f"unknown shard kind: {shard.get('kind')!r}")
        with self._lock:
            session_id = f"s{next(self._session_ids)}"
            self._sessions[session_id] = Session(
                session_id=session_id,
                shards=[
                    ShardState(shard_id=next(self._shard_ids), data=dict(shard))
                    for shard in shards
                ],
                stop_at_first_violation=stop_at_first_violation,
                created_at=self._clock(),
                label=label,
            )
            self._work.notify_all()
            return session_id

    def _session(self, session_id: str) -> Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise protocol.ProtocolError(f"unknown session {session_id!r}") from None

    # ------------------------------------------------------------------ #
    # the escalation ladder
    # ------------------------------------------------------------------ #
    def sweep(self) -> None:
        """Advance the self-healing ladder: warn, expire, bury, fail.

        Called at the top of every request method, so healing needs no
        dedicated timer thread (in-process session runners still call it
        periodically for very quiet fleets).
        """
        with self._lock:
            now = self._clock()
            for lease in list(self._leases.values()):
                age = now - lease.last_heartbeat
                drone = self._drones.get(lease.drone_id)
                if age > self.heartbeat_timeout:
                    self._expire_lease(lease, now)
                elif age > self.warn_after and not lease.warned:
                    lease.warned = True
                    if drone is not None:
                        drone.lagging = True
                    self._event(
                        lease.session_id,
                        f"warn: drone {lease.drone_id} silent {age:.2f}s on shard "
                        f"{lease.shard_id} (lease {lease.lease_id})",
                    )
            self._fail_orphaned_sessions()
            self._notify_finish_transitions()

    def _expire_lease(
        self, lease: Lease, now: float, cause: str = "missed its proof-of-life deadline"
    ) -> None:
        session = self._sessions.get(lease.session_id)
        shard = self._shard(lease)
        del self._leases[lease.lease_id]
        drone = self._drones.get(lease.drone_id)
        if drone is not None:
            drone.strikes += 1
            drone.lagging = False
            if drone.strikes >= self.max_drone_strikes and not drone.dead:
                drone.dead = True
                self._event(
                    lease.session_id,
                    f"drone-dead: {lease.drone_id} after {drone.strikes} expired lease(s)",
                )
        if session is None or shard is None or shard.status != "leased":
            return
        shard.lease_id = None
        shard.attempts += 1
        if session.stopping:
            shard.status = "cancelled"
            return
        if shard.attempts >= self.max_shard_attempts:
            self._fail(session, f"shard {shard.shard_id} failed after "
                                f"{shard.attempts} lease attempt(s)")
            return
        shard.status = "queued"
        self._work.notify_all()
        self._event(
            lease.session_id,
            f"re-lease: shard {shard.shard_id} requeued (attempt {shard.attempts + 1}) "
            f"after drone {lease.drone_id} {cause}",
        )

    def register(self, drone_id: str) -> None:
        """Make ``drone_id`` known (a live drone) before its first lease poll."""
        with self._lock:
            self._drone(drone_id, self._clock())

    def _drone(self, drone_id: str, now: float) -> DroneState:
        if drone_id not in self._drones:
            self._drones[drone_id] = DroneState(drone_id=drone_id, first_seen=now, last_seen=now)
        return self._drones[drone_id]

    def drone_lost(self, drone_id: str) -> None:
        """Bury a drone known to be gone and requeue its lease now.

        An exited worker is proof of death, unlike a missed heartbeat, so
        the ladder skips to its last rungs: re-lease, and fail the session
        when no live drone is left.  :class:`~repro.swarm.drone.LocalFleet`
        reports its exited workers here and retires its drones the same
        way when their session ends: a buried drone's lease poll tells it
        to exit.
        """
        with self._lock:
            now = self._clock()
            drone = self._drone(drone_id, now)
            drone.dead = True
            for lease in [lease for lease in self._leases.values() if lease.drone_id == drone_id]:
                self._expire_lease(lease, now, cause="exited")
            self._fail_orphaned_sessions()
            self._notify_finish_transitions()
            self._work.notify_all()  # wake its lease long-poll with the news

    def _fail_orphaned_sessions(self) -> None:
        # The last rung: only when *no* drone remains to do outstanding
        # work does a session fail outright.
        if not self._drones or any(not drone.dead for drone in self._drones.values()):
            return
        for session in self._sessions.values():
            if session.failed is None and not session.finished and not any(
                shard.status == "leased" for shard in session.shards
            ):
                self._fail(session, "no live drone remains for outstanding shards")

    def _fail(self, session: Session, reason: str) -> None:
        session.failed = reason
        self._event(session.session_id, f"session-failed: {reason}")

    def _shard(self, lease: Lease) -> Optional[ShardState]:
        session = self._sessions.get(lease.session_id)
        if session is None:
            return None
        for shard in session.shards:
            if shard.shard_id == lease.shard_id:
                return shard
        return None

    def _event(self, session_id: str, message: str) -> None:
        session = self._sessions.get(session_id)
        if session is not None:
            session.events.append(message)

    # ------------------------------------------------------------------ #
    # the route table
    # ------------------------------------------------------------------ #
    def call(self, route: str, payload: Any = None) -> Any:
        """Serve one drone- or session-facing request; returns the reply.

        The one entry point of every transport: HTTP path
        ``/api/v1/<route>``, pipe relay or direct call.  Routes:
        ``session``, ``lease``, ``heartbeat``, ``result``, ``status``,
        ``session/<id>/status`` and ``session/<id>/report``.  A malformed
        payload raises :class:`~repro.swarm.protocol.ProtocolError`, an
        unknown route :class:`UnknownRoute`.
        """
        try:
            if route == "lease":
                return self._long_poll_lease(payload)
            if route == "result":
                return self.ingest(payload["session"], payload["lease"], **_options(
                    payload, "results", "done", "released", "error"))
            if route == "heartbeat":
                return self.heartbeat(payload["session"], payload["lease"], **_options(
                    payload, "executions_done", "prefixes_done"))
            if route == "session":
                return {"session": self.create_session(payload["shards"], **_options(
                    payload, "stop_at_first_violation", "label"))}
            if route == "status":
                return self.status()
            if route.startswith("session/"):
                session_id, _, view = route[len("session/") :].rpartition("/")
                if view == "status":
                    return self.session_status(session_id)
                if view == "report":
                    return self.session_report(session_id)
        except protocol.ProtocolError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as error:
            raise protocol.ProtocolError(f"malformed request: {error!r}") from None
        raise UnknownRoute(f"unknown route {route!r}")

    def _long_poll_lease(self, payload: Any) -> Dict[str, Any]:
        poll = payload.get("poll", LEASE_POLL_TIMEOUT)
        try:
            poll = float(poll)
        except (TypeError, ValueError):
            raise ValueError(f"poll must be a number, got {poll!r}") from None
        deadline = time.monotonic() + min(poll, LEASE_POLL_TIMEOUT)
        while True:
            grant = self.request_lease(payload["drone"])
            if grant is not None or time.monotonic() >= deadline:
                return {"lease": grant}
            # Condition-based wait, not a busy spin: woken the instant a
            # shard is queued.  Bounded slices keep the healing sweep
            # (run by request_lease above) ticking on quiet fleets.
            self.wait_for_work(min(0.25, deadline - time.monotonic()))

    # ------------------------------------------------------------------ #
    # leases
    # ------------------------------------------------------------------ #
    def request_lease(self, drone_id: str) -> Optional[Dict[str, Any]]:
        """Grant the next queued shard to ``drone_id`` (None when idle).

        An idle request is also the trigger for adaptive re-partitioning:
        if nothing is queued but an exhaustive lease is lagging with
        untouched prefixes, those prefixes are split off into a fresh
        shard and granted immediately.
        """
        self.sweep()
        with self._lock:
            now = self._clock()
            drone = self._drone(drone_id, now)
            drone.last_seen = now
            if drone.dead:
                return {"dead": True}
            grant = self._grant(drone, now) or (
                self._grant(drone, now) if self._split_lagging(now) else None
            )
            return grant

    def wait_for_work(self, timeout: float) -> bool:
        """Block until new work may be queued (or ``timeout`` elapses).

        The underlying condition is notified whenever a shard enters the
        queue (or a drone is buried), so an idle drone's long-poll wakes
        the instant a session is created or a shard is requeued/split.
        Returns True on a wake-up, False on timeout.  Callers should keep
        ``timeout`` bounded (the long-poll uses short slices) so quiet
        fleets still sweep the healing ladder periodically.
        """
        if timeout <= 0:
            return False
        with self._work:
            return self._work.wait(timeout)

    def _grant(self, drone: DroneState, now: float) -> Optional[Dict[str, Any]]:
        for session in self._sessions.values():
            if session.failed is not None or session.stopping:
                continue
            for shard in session.shards:
                if shard.status != "queued":
                    continue
                lease = Lease(
                    lease_id=next(self._lease_ids),
                    session_id=session.session_id,
                    shard_id=shard.shard_id,
                    drone_id=drone.drone_id,
                    granted_at=now,
                    last_heartbeat=now,
                )
                self._leases[lease.lease_id] = lease
                shard.status = "leased"
                shard.lease_id = lease.lease_id
                drone.leases_granted += 1
                return {
                    "lease": lease.lease_id,
                    "session": session.session_id,
                    "shard_id": shard.shard_id,
                    "shard": shard.data,
                    "heartbeat_timeout": self.heartbeat_timeout,
                }
        return None

    def _split_lagging(self, now: float) -> bool:
        """Split a lagging exhaustive lease's untouched prefixes off.

        Returns True when a new queued shard was produced.  The prefix
        currently being enumerated (and everything before it) stays with
        the original lease; the drone learns the shrunken budget through
        ``keep_prefixes`` on its next heartbeat or result post.  Races
        over the boundary prefix are harmless: exhaustive records dedupe
        by trail, and coverage rides accepted records only.
        """
        for lease in self._leases.values():
            session = self._sessions.get(lease.session_id)
            shard = self._shard(lease)
            if session is None or shard is None or session.stopping:
                continue
            if shard.kind != "exhaustive" or shard.status != "leased":
                continue
            if now - lease.granted_at < self.split_lagging_after:
                continue
            prefixes = shard.data["prefixes"]
            keep = max(1, lease.prefixes_done + 1)
            if len(prefixes) - keep < 1:
                continue
            stolen, kept = prefixes[keep:], prefixes[:keep]
            shard.data = {**shard.data, "prefixes": kept}
            new_shard = ShardState(
                shard_id=next(self._shard_ids),
                data={**shard.data, "prefixes": stolen},
            )
            session.shards.append(new_shard)
            self._work.notify_all()
            self._event(
                session.session_id,
                f"split: shard {shard.shard_id} lagging on drone {lease.drone_id}; "
                f"{len(stolen)} untouched prefix(es) re-partitioned into shard "
                f"{new_shard.shard_id}",
            )
            return True
        return False

    def heartbeat(
        self,
        session_id: str,
        lease_id: int,
        *,
        executions_done: int = 0,
        prefixes_done: int = 0,
    ) -> Dict[str, Any]:
        """Record proof of life; returns stop/keep-prefixes directives."""
        self.sweep()
        with self._lock:
            now = self._clock()
            session = self._session(session_id)
            lease = self._leases.get(lease_id)
            if lease is not None:
                lease.last_heartbeat = now
                lease.warned = False
                lease.executions_done = executions_done
                lease.prefixes_done = prefixes_done
                drone = self._drones.get(lease.drone_id)
                if drone is not None:
                    drone.last_seen = now
                    drone.lagging = False
            return self._directives(session, lease)

    def _directives(self, session: Session, lease: Optional[Lease]) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "stop": session.stopping or session.failed is not None,
            "lease_valid": lease is not None,
        }
        if lease is not None:
            shard = self._shard(lease)
            if shard is not None and shard.kind == "exhaustive":
                response["keep_prefixes"] = len(shard.data["prefixes"])
        return response

    # ------------------------------------------------------------------ #
    # result ingestion (idempotent)
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        session_id: str,
        lease_id: int,
        *,
        results: Optional[List[Dict[str, Any]]] = None,
        done: bool = False,
        released: bool = False,
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Fold a drone's streamed results into the session.

        ``results`` items are ``{"record": <wire record>, "coverage":
        <wire coverage or None>}``.  Duplicates (same execution identity)
        are dropped along with their coverage, so zombie/replacement
        races settle to exactly-once.  ``done`` marks the lease's shard
        fully enumerated; ``released`` returns it unfinished (stop
        drain); ``error`` fails the session with the drone's traceback —
        executions are deterministic, so the error would reproduce on any
        drone.  A malformed window raises
        :class:`~repro.swarm.protocol.ProtocolError` before anything is
        folded in, so the session is left as it was and a corrected resend
        is not counted as a duplicate.
        """
        self.sweep()
        with self._lock:
            session = self._session(session_id)
            lease = self._leases.get(lease_id)
            shard = self._shard(lease) if lease is not None else None
            if shard is None and lease_id is not None:
                shard = self._find_shard_of_lease(session, lease_id)
            # A zombie whose shard was re-leased resolves no shard; a
            # session's shards are homogeneous, so its kind still gives
            # the right execution identity (trail vs global index).
            kind = (shard.kind if shard is not None
                    else session.shards[0].kind if session.shards else "random")
            window = [_window_item(kind, item) for item in results or []]
            if lease is not None:
                lease.last_heartbeat = self._clock()
                lease.warned = False
            for key, record, coverage in window:
                if key in session.record_keys:
                    session.duplicates += 1
                    continue
                session.record_keys.add(key)
                session.records.append(record)
                for vehicle, mode, region, count in coverage or ():
                    triple = (vehicle, mode, region)
                    session.coverage_rows[triple] = session.coverage_rows.get(triple, 0) + count
                self._notify_record(session_id, record, coverage)
                if record.get("violations") and session.stop_at_first_violation:
                    self._begin_stop(session)
            if error is not None:
                self._fail(session, error)
                self._release(lease, shard, completed=False)
            elif done or released:
                if shard is not None and shard.status == "leased":
                    shard.status = "done" if done else "cancelled"
                    shard.lease_id = None
                self._release(lease, shard, completed=done)
            self._notify_finish_transitions()
            return self._directives(session, lease)

    def _find_shard_of_lease(self, session: Session, lease_id: int) -> Optional[ShardState]:
        # A zombie whose lease already expired: its shard may have been
        # requeued or re-leased.  Records still ingest (dedup protects);
        # shard state transitions are owned by the *current* lease.
        for shard in session.shards:
            if shard.lease_id == lease_id:
                return shard
        return None

    def _begin_stop(self, session: Session) -> None:
        if session.stopping:
            return
        session.stopping = True
        self._event(session.session_id, "stop: first violation ingested; draining leases")
        for shard in session.shards:
            if shard.status == "queued":
                shard.status = "cancelled"

    def _release(self, lease: Optional[Lease], shard: Optional[ShardState], *, completed: bool) -> None:
        if lease is None:
            return
        self._leases.pop(lease.lease_id, None)
        drone = self._drones.get(lease.drone_id)
        if drone is not None:
            drone.lagging = False
            if completed:
                drone.leases_completed += 1

    # ------------------------------------------------------------------ #
    # reading results and status
    # ------------------------------------------------------------------ #
    def session_status(self, session_id: str) -> Dict[str, Any]:
        """A lightweight liveness poll: counters only, no record bodies.

        The facade polls this while a session runs (and fetches the full
        :meth:`session_report` exactly once at the end), so waiting on a
        large sweep no longer re-serializes every accumulated record on
        each poll tick.
        """
        self.sweep()
        with self._lock:
            session = self._session(session_id)
            return {
                "session": session.session_id,
                "finished": session.finished,
                "failed": session.failed,
                "stopping": session.stopping,
                "records": len(session.records),
                "duplicates": session.duplicates,
                "shards": {
                    status: sum(1 for s in session.shards if s.status == status)
                    for status in ("queued", "leased", "done", "cancelled")
                },
            }

    def drop_session(self, session_id: str) -> None:
        """Forget a finished session (frees its records for a long-lived service)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                return
            for lease_id in [
                lease.lease_id
                for lease in self._leases.values()
                if lease.session_id == session_id
            ]:
                del self._leases[lease_id]

    def session_report(self, session_id: str) -> Dict[str, Any]:
        """Everything the facade needs to build a report (wire form)."""
        self.sweep()
        with self._lock:
            session = self._session(session_id)
            return {
                "session": session.session_id,
                "finished": session.finished,
                "failed": session.failed,
                "stopping": session.stopping,
                "records": list(session.records),
                "coverage": [
                    [vehicle, mode, region, count]
                    for (vehicle, mode, region), count in sorted(session.coverage_rows.items())
                ],
                "duplicates": session.duplicates,
                "events": list(session.events),
                "shards": [
                    {"shard_id": shard.shard_id, "status": shard.status,
                     "attempts": shard.attempts, "kind": shard.kind}
                    for shard in session.shards
                ],
            }

    def status(self) -> Dict[str, Any]:
        """The live ``/status`` view: sessions, drones, active leases."""
        self.sweep()
        with self._lock:
            now = self._clock()
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "sessions": {
                    session.session_id: {
                        "label": session.label,
                        "shards": {
                            status: sum(1 for s in session.shards if s.status == status)
                            for status in ("queued", "leased", "done", "cancelled")
                        },
                        "records": len(session.records),
                        "duplicates": session.duplicates,
                        "stopping": session.stopping,
                        "failed": session.failed,
                        "finished": session.finished,
                        "events": list(session.events),
                    }
                    for session in self._sessions.values()
                },
                "drones": {
                    drone.drone_id: {
                        "dead": drone.dead,
                        "lagging": drone.lagging,
                        "strikes": drone.strikes,
                        "last_seen_age": round(now - drone.last_seen, 3),
                        "leases_granted": drone.leases_granted,
                        "leases_completed": drone.leases_completed,
                    }
                    for drone in self._drones.values()
                },
                "active_leases": [
                    {
                        "lease": lease.lease_id,
                        "session": lease.session_id,
                        "shard_id": lease.shard_id,
                        "drone": lease.drone_id,
                        "heartbeat_age": round(now - lease.last_heartbeat, 3),
                        "executions_done": lease.executions_done,
                    }
                    for lease in self._leases.values()
                ],
            }


def _window_item(kind: str, item: Any) -> Tuple[Tuple[Any, ...], Dict[str, Any], Any]:
    """Check one result-window item; returns ``(key, record, coverage)``.

    The record must yield an execution key and every coverage row must be
    ``[vehicle, mode, region, count]`` typed ``(str, str, str, int)``.
    """
    try:
        record = item["record"]
        key = protocol.execution_key(kind, record)
        coverage = item.get("coverage")
        for row in coverage or ():
            vehicle, mode, region, count = row
            if not (isinstance(vehicle, str) and isinstance(mode, str)
                    and isinstance(region, str) and isinstance(count, int)):
                raise ValueError(f"coverage row {row!r} is not (str, str, str, int)")
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise protocol.ProtocolError(f"malformed result window: {error!r}") from None
    return key, record, coverage


def _options(payload: Dict[str, Any], *names: str) -> Dict[str, Any]:
    """The optional request fields a payload carries, as keyword arguments."""
    return {name: payload[name] for name in names if name in payload}


# --------------------------------------------------------------------- #
# the HTTP layer (pure stdlib)
# --------------------------------------------------------------------- #


class _Handler(BaseHTTPRequestHandler):
    """Routes the JSON API onto the control plane state machine."""

    # Set by ControlPlaneServer on the handler class.
    plane: ControlPlane = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # pragma: no cover
        pass  # keep test output quiet; /status is the observability surface

    # -- plumbing -------------------------------------------------------- #
    def _payload(self) -> Any:
        length = int(self.headers.get("Content-Length", 0))
        return protocol.loads(self.rfile.read(length))

    def _reply(self, payload: Any, status: int = 200) -> None:
        body = protocol.dumps("response", payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, message: str, status: int = 400) -> None:
        self._reply({"error": message}, status=status)

    # -- routes ---------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        self._serve(post=False)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        self._serve(post=True)

    def _serve(self, *, post: bool) -> None:
        try:
            payload = self._payload() if post else None
            if not self.path.startswith(protocol.API_PREFIX):
                raise UnknownRoute(self.path)
            self._reply(self.plane.call(self.path[len(protocol.API_PREFIX) :], payload))
        except UnknownRoute:
            self._error(f"unknown endpoint {self.path!r}", status=404)
        except protocol.ProtocolError as error:
            self._error(str(error))


class _QuietThreadingHTTPServer(ThreadingHTTPServer):
    """Swallows client-disconnect noise: a drone may die (or be killed —
    that is the point of the fault-injection tests) with a request in
    flight, which must not spray tracebacks from the handler thread."""

    def handle_error(self, request: Any, client_address: Any) -> None:
        exc_type = sys.exc_info()[0]
        if exc_type is not None and issubclass(exc_type, (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)


class ControlPlaneServer:
    """A threaded stdlib HTTP server wrapping one :class:`ControlPlane`.

    ``port=0`` (the default) binds an ephemeral port; read the resolved
    address from :attr:`url`.  Use as a context manager or call
    :meth:`start`/:meth:`stop`.

    Subclasses (``repro.service.MissionServer``) extend the HTTP surface
    by overriding :attr:`handler_base` (a ``_Handler`` subclass with the
    extra routes) and :meth:`_handler_attributes` (the class attributes
    bound onto the per-server handler type).
    """

    handler_base = _Handler

    def __init__(
        self,
        plane: Optional[ControlPlane] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **plane_options: Any,
    ) -> None:
        if plane is not None and plane_options:
            raise ValueError("pass either a ControlPlane or its options, not both")
        self.plane = plane if plane is not None else ControlPlane(**plane_options)
        handler = type("BoundHandler", (self.handler_base,), self._handler_attributes())
        self._server = _QuietThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    def _handler_attributes(self) -> Dict[str, Any]:
        return {"plane": self.plane}

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ControlPlaneServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ControlPlaneServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
