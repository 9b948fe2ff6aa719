"""The swarm drone: lease a shard, run it warm, stream results home.

A drone is one exploration worker on one host.  It long-polls the
control plane (:mod:`repro.swarm.controlplane`) for a shard lease,
rebuilds the workload from the shard description, runs it on the warm
reset-and-reuse serial :class:`~repro.testing.SystematicTester`, and
streams the :class:`~repro.testing.explorer.ExecutionRecord` items
(each with its execution's own coverage delta) back in windows: one
post carries up to :data:`RESULT_WINDOW` items, none held longer than
:data:`RESULT_WINDOW_S`, and a lease's first record and every violating
record go out at once.  ``Drone._run_lease`` is the one shard loop of
every sharded tester.  While a shard runs, a
background thread posts proof-of-life heartbeats; the responses carry
the control plane's directives — ``stop`` (a violation ended the
session: drain and release the lease) and ``keep_prefixes`` (an
adaptive split shrank this lease's exhaustive prefix budget).

A drone reaches its plane over one of three transports: HTTP (a URL),
a ``multiprocessing.Pipe`` (:class:`PipeTransport`, served by
:func:`relay` in the parent), or a direct call of
:meth:`~repro.swarm.controlplane.ControlPlane.call`.  :class:`LocalFleet`
runs N drones on this host as threads or forked processes and owns
their lifetimes.

Determinism makes all of this safe: execution *i* of a random sweep and
trail *t* of an exhaustive enumeration produce identical records on any
drone, so the control plane's idempotent ingestion can reconcile
zombies, re-leases and split races without coordination.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import random
import socket
import threading
import time
import traceback
import urllib.error
import urllib.request
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, List, Optional, Union

from ..testing.explorer import SystematicTester
from ..testing.parallel import _RandomShard
from ..testing.strategies import ExhaustiveStrategy, RandomStrategy, start_execution
from . import protocol

_DRONE_IDS = itertools.count(1)

#: Streamed items (record plus coverage delta) a lease buffers before it
#: posts them in one ``result`` call.
RESULT_WINDOW = 16
#: The longest, in seconds, an item waits in a lease's buffer; checked
#: after each execution.  It also caps what a dead drone forfeits.
RESULT_WINDOW_S = 0.05
#: Warm testers a drone keeps, one per workload identity; the least
#: recently used one is dropped first.
WARM_TESTERS = 8


# --------------------------------------------------------------------- #
# the JSON-over-HTTP client (shared with the facade)
# --------------------------------------------------------------------- #


class SwarmUnavailable(ConnectionError):
    """The control plane could not be reached (or replied with an error)."""


def post_json(base_url: str, path: str, payload: Any, *, timeout: float = 10.0) -> Any:
    """POST an enveloped JSON payload; return the enveloped response payload."""
    request = urllib.request.Request(
        base_url + path,
        data=protocol.dumps("request", payload),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    return _round_trip(request, timeout)


def get_json(base_url: str, path: str, *, timeout: float = 10.0) -> Any:
    """GET an endpoint; return the enveloped response payload."""
    return _round_trip(urllib.request.Request(base_url + path, method="GET"), timeout)


def _round_trip(request: urllib.request.Request, timeout: float) -> Any:
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return protocol.loads(response.read())
    except urllib.error.HTTPError as error:
        body = error.read()
        try:
            detail = protocol.loads(body).get("error", body.decode("utf-8", "replace"))
        except protocol.ProtocolError:
            detail = body.decode("utf-8", "replace")
        raise protocol.ProtocolError(f"control plane rejected the request: {detail}") from None
    except (urllib.error.URLError, socket.timeout, ConnectionError, OSError) as error:
        raise SwarmUnavailable(str(error)) from None


# --------------------------------------------------------------------- #
# the drone
# --------------------------------------------------------------------- #


class Drone:
    """One worker of the exploration swarm.

    ``plane`` is the control plane to serve: its URL, or a ``(route,
    payload) -> reply`` callable (:meth:`ControlPlane.call` itself, or a
    :class:`PipeTransport`).  A callable plane is in this process or
    across a pipe, so payloads travel as Python objects.

    Record form follows the shard, not the transport: a lease whose
    shard arrived in wire form (a registry factory description) streams
    portable, JSON-safe records, whatever carried them; a private plane's
    shard (the factory object itself) streams records that keep their
    :class:`~repro.core.monitor.Violation` objects exactly.  So a mission
    service's event stream stays JSON even when its drones call the
    plane directly.

    ``worker_index`` (optional) stamps streamed records' ``worker`` field
    so swarm reports read like pool reports.  ``exit_when_idle`` makes
    :meth:`run` return once no lease has been granted for
    ``idle_timeout`` seconds.  Every drone of a :class:`LocalFleet` (the
    mission server's standing fleet among them) runs with
    ``exit_when_idle=False`` and polls until the control plane buries it
    or :meth:`stop` is called.
    """

    def __init__(
        self,
        plane: Union[str, Callable[[str, Any], Any]],
        drone_id: Optional[str] = None,
        *,
        worker_index: Optional[int] = None,
        heartbeat_interval: float = 0.5,
        poll_interval: float = 0.1,
        exit_when_idle: bool = True,
        idle_timeout: float = 5.0,
        http_timeout: float = 10.0,
        connection_retries: int = 3,
        result_retries: int = 4,
        max_backoff: float = 2.0,
    ) -> None:
        if callable(plane):
            self.base_url: Optional[str] = None
            self._call: Optional[Callable[[str, Any], Any]] = plane
        else:
            self.base_url, self._call = plane.rstrip("/"), None
        self.drone_id = drone_id or f"drone-{socket.gethostname()}-{next(_DRONE_IDS)}"
        self.worker_index = worker_index
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.exit_when_idle = exit_when_idle
        self.idle_timeout = idle_timeout
        self.http_timeout = http_timeout
        self.connection_retries = connection_retries
        self.result_retries = result_retries
        self.max_backoff = max_backoff
        self.leases_run = 0
        self._stop = threading.Event()
        # Jitter source for backoff sleeps, seeded per drone id: a fleet
        # restarting against a recovering control plane must not retry in
        # lockstep, and a deterministic per-drone stream keeps tests exact.
        self._backoff_rng = random.Random(self.drone_id)
        # One warm tester per workload identity, at most WARM_TESTERS in
        # least-recently-used order: consecutive leases of the same
        # scenario reuse the built model instance across shards (the
        # zero-rebuild hot path).
        self._testers: Dict[Any, SystematicTester] = {}

    def stop(self) -> None:
        """Ask the drone to exit after the current execution."""
        self._stop.set()

    # ------------------------------------------------------------------ #
    # the poll loop
    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Poll for leases until told to stop; returns leases completed."""
        idle_since: Optional[float] = None
        failures = 0
        while not self._stop.is_set():
            try:
                grant = self._post("/api/v1/lease", {"drone": self.drone_id, "poll": 1.0})
                failures = 0
            except SwarmUnavailable:
                failures += 1
                if failures > self.connection_retries:
                    break  # the control plane is gone; nothing left to serve
                # Capped exponential backoff with jitter: a restarting
                # control plane must not be hammered in lockstep by every
                # drone of the fleet on the fixed poll cadence.
                self._stop.wait(self.backoff_delay(failures - 1))
                continue
            lease = grant.get("lease")
            if isinstance(lease, dict) and lease.get("dead"):
                break  # the control plane buried us; a zombie must not work
            if not lease:
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if self.exit_when_idle and now - idle_since >= self.idle_timeout:
                    break
                # Interruptible idle wait: stop() during an idle stretch
                # must return promptly, not after a full poll interval.
                self._stop.wait(self.poll_interval)
                continue
            idle_since = None
            self._run_lease(lease)
            self.leases_run += 1
        return self.leases_run

    def _post(self, path: str, payload: Any) -> Any:
        if self._call is not None:
            return self._call(path[len(protocol.API_PREFIX) :], payload)
        return post_json(self.base_url, path, payload, timeout=self.http_timeout)

    # ------------------------------------------------------------------ #
    # one lease
    # ------------------------------------------------------------------ #
    def _run_lease(self, grant: Dict[str, Any]) -> None:
        session_id, lease_id = grant["session"], grant["lease"]
        try:
            shard = protocol.decode_shard(grant["shard"])
        except protocol.ProtocolError:
            self._finish(session_id, lease_id, error=traceback.format_exc())
            return
        state = _LeaseState(
            initial_prefixes=len(protocol.shard_prefixes(shard)),
            # Answer in the form asked: a wire-form shard (its factory a
            # registry description, not the callable) gets JSON-safe records.
            portable=not callable(grant["shard"]["factory"]),
        )
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(session_id, lease_id, state), daemon=True
        )
        heartbeat.start()
        try:
            if isinstance(shard, _RandomShard):
                completed = self._run_random(session_id, lease_id, shard, state)
            else:
                completed = self._run_exhaustive(session_id, lease_id, shard, state)
            self._finish(session_id, lease_id, done=completed, released=not completed,
                         results=state.take_window())
        except SwarmUnavailable:
            pass  # the lease expires and is re-leased; posted windows stay ingested
        except Exception:
            self._finish(session_id, lease_id, results=state.take_window(),
                         error=traceback.format_exc())
        finally:
            state.finished.set()
            heartbeat.join(timeout=2.0 * self.heartbeat_interval + 1.0)

    def backoff_delay(self, attempt: int) -> float:
        """Jittered, capped exponential backoff delay for retry ``attempt``.

        The uncapped curve is ``poll_interval * 2**attempt``, clamped to
        ``max_backoff``; the jitter draws uniformly from the upper half of
        that delay (50–100%), so retries spread out without ever
        collapsing to zero sleep.
        """
        capped = min(self.max_backoff, self.poll_interval * (2.0 ** max(0, attempt)))
        return capped * (0.5 + 0.5 * self._backoff_rng.random())

    def _finish(self, session_id: str, lease_id: int, **flags: Any) -> None:
        """Post the lease's final "done"/result flags, retrying transient blips.

        The flags carry the lease's still-open result window; a resent
        window is harmless, as ingestion drops duplicate executions.

        This post is what turns a *finished* shard into a *completed*
        lease — silently dropping it on one ``SwarmUnavailable`` would
        forfeit all the work to the re-lease ladder (the lease expires and
        another drone re-runs the whole shard).  So transient failures are
        retried ``result_retries`` times with capped exponential backoff
        plus jitter; only after the budget is exhausted does the drone
        give up and let the escalation ladder take over.
        """
        payload = {"session": session_id, "lease": lease_id, **flags}
        for attempt in range(self.result_retries + 1):
            try:
                self._post("/api/v1/result", payload)
                return
            except SwarmUnavailable:
                if attempt >= self.result_retries or self._stop.is_set():
                    return  # the lease expires; the re-lease ladder recovers
                self._stop.wait(self.backoff_delay(attempt))

    def _heartbeat_loop(self, session_id: str, lease_id: int, state: "_LeaseState") -> None:
        while not state.finished.wait(self.heartbeat_interval):
            try:
                directives = self._post(
                    "/api/v1/heartbeat",
                    {
                        "session": session_id,
                        "lease": lease_id,
                        "executions_done": state.executions_done,
                        "prefixes_done": state.prefixes_done,
                    },
                )
            except (SwarmUnavailable, protocol.ProtocolError):
                continue  # a missed heartbeat is the control plane's problem to judge
            state.apply(directives)

    # ------------------------------------------------------------------ #
    # running shards on a warm tester
    # ------------------------------------------------------------------ #
    def _tester(self, shard: Any) -> SystematicTester:
        """The warm reset-and-reuse tester for a shard's workload."""
        key = (shard.factory, shard.max_permuted, shard.track_coverage)
        testers = self._testers
        tester = testers.pop(key, None)
        if tester is None:
            tester = SystematicTester(
                shard.factory,
                max_permuted=shard.max_permuted,
                track_coverage=shard.track_coverage,
            )
            if len(testers) >= WARM_TESTERS:
                del testers[next(iter(testers))]
        testers[key] = tester  # (re)inserted last: the most recently used
        return tester

    def _stream(
        self,
        session_id: str,
        lease_id: int,
        tester: SystematicTester,
        record: Any,
        state: "_LeaseState",
    ) -> bool:
        """Buffer one record (+ its coverage delta); True means keep going.

        The window is posted when it is full or its oldest item is
        :data:`RESULT_WINDOW_S` old, and at once for the lease's first
        record and for a violating one, so the first result and
        ``stop_at_first_violation`` keep their latency.
        """
        coverage = None
        if tester.track_coverage:
            coverage = protocol.encode_coverage(tester.last_execution_coverage)
        state.buffer({
            "record": protocol.encode_record(record, portable=state.portable),
            "coverage": coverage,
        })
        if (
            record.violations
            or state.executions_done == 1
            or len(state.window) >= RESULT_WINDOW
            or time.monotonic() - state.window_opened >= RESULT_WINDOW_S
        ):
            directives = self._post(
                "/api/v1/result",
                {"session": session_id, "lease": lease_id, "results": state.take_window()},
            )
            state.apply(directives)
        return not state.stop_requested and not self._stop.is_set()

    def _run_random(
        self, session_id: str, lease_id: int, shard: _RandomShard, state: "_LeaseState"
    ) -> bool:
        strategy = RandomStrategy(seed=shard.seed, max_executions=shard.max_executions)
        tester = self._tester(shard)
        tester.strategy = strategy
        for index in shard.indices:
            if state.stop_requested or self._stop.is_set():
                return False
            strategy.seek(index)
            strategy.begin_execution()
            record = tester.run_single(index)
            record.worker = self.worker_index
            state.executions_done += 1
            if not self._stream(session_id, lease_id, tester, record, state):
                # A violation may legitimately end the session; the shard
                # is complete iff this was its last index anyway.
                return index == shard.indices[-1]
        return True

    def _run_exhaustive(
        self, session_id: str, lease_id: int, shard: Any, state: "_LeaseState"
    ) -> bool:
        tester = self._tester(shard)
        local_index = 0
        position = 0
        while position < min(len(shard.prefixes), state.keep_prefixes):
            if state.stop_requested or self._stop.is_set():
                return False
            prefix = shard.prefixes[position]
            strategy = ExhaustiveStrategy(
                max_depth=shard.max_depth,
                max_executions=shard.max_executions,
                prefix=prefix,
            )
            tester.strategy = strategy
            while strategy.has_more_executions():
                if state.stop_requested or self._stop.is_set():
                    return False
                if not start_execution(strategy):
                    break
                record = tester.run_single(local_index)
                record.worker = self.worker_index
                local_index += 1
                state.executions_done += 1
                if not self._stream(session_id, lease_id, tester, record, state):
                    return False
            position += 1
            state.prefixes_done = position
        # Either every prefix ran, or an adaptive split shrank the budget
        # to exactly the prefixes this drone already covered — both mean
        # the (possibly re-partitioned) shard is fully enumerated.
        return True


class _LeaseState:
    """Mutable per-lease state shared between run loop and heartbeats."""

    def __init__(self, initial_prefixes: int, portable: bool) -> None:
        self.portable = portable
        self.finished = threading.Event()
        self.stop_requested = False
        self.executions_done = 0
        self.prefixes_done = 0
        self.keep_prefixes = initial_prefixes if initial_prefixes else 1
        #: Streamed items not yet posted, and when the oldest was buffered.
        self.window: List[Dict[str, Any]] = []
        self.window_opened = 0.0

    def buffer(self, item: Dict[str, Any]) -> None:
        if not self.window:
            self.window_opened = time.monotonic()
        self.window.append(item)

    def take_window(self) -> List[Dict[str, Any]]:
        window, self.window = self.window, []
        return window

    def apply(self, directives: Dict[str, Any]) -> None:
        if directives.get("stop"):
            self.stop_requested = True
        keep = directives.get("keep_prefixes")
        if isinstance(keep, int):
            self.keep_prefixes = keep


class PipeTransport:
    """A ``(route, payload) -> reply`` transport over one end of a pipe.

    The heartbeat thread and the run loop share the pipe, so a request
    and its reply travel under one lock.  A closed pipe raises
    :class:`SwarmUnavailable`, as an unreachable URL does.
    """

    def __init__(self, connection: Connection) -> None:
        self._connection = connection
        self._lock = threading.Lock()

    def __call__(self, route: str, payload: Any) -> Any:
        with self._lock:
            try:
                self._connection.send((route, payload))
                ok, reply = self._connection.recv()
            except (EOFError, OSError) as error:
                raise SwarmUnavailable(f"control plane pipe closed: {error!r}") from None
        if not ok:
            raise protocol.ProtocolError(f"control plane rejected the request: {reply}")
        return reply


def relay(plane: Any, connection: Connection) -> None:
    """Answer a worker's pipe requests with ``plane.call`` until it closes."""
    while True:
        try:
            route, payload = connection.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, plane.call(route, payload))
        except protocol.ProtocolError as error:
            reply = (False, str(error))
        except Exception:  # a plane fault must fail the lease, not hang the worker
            reply = (False, traceback.format_exc())
        try:
            connection.send(reply)
        except OSError:
            return
        except Exception:  # an unpicklable reply: fail its lease, answer the worker
            error = traceback.format_exc()
            if route == "lease" and reply[0] and reply[1]["lease"]:
                plane.ingest(reply[1]["lease"]["session"], reply[1]["lease"]["lease"], error=error)
            try:
                connection.send((False, error))
            except OSError:
                return


def run_drone(plane: Any, drone_id: Optional[str] = None, **options: Any) -> int:
    """Module-level entry point (picklable for ``multiprocessing``).

    ``plane`` is a control-plane URL or a pipe end that :func:`relay` serves.
    """
    if isinstance(plane, Connection):
        plane = PipeTransport(plane)
    return Drone(plane, drone_id, **options).run()


class LocalFleet:
    """N drones on this host, as threads or forked processes.

    With a ``url`` the drones use HTTP.  Without one, thread drones call
    ``plane.call`` directly and process drones each get a pipe, answered
    by a :func:`relay` thread here.  The fleet owns its drones: it reports
    each exited process to ``plane.drone_lost`` (a pipe worker as soon as
    its relay reads EOF, an HTTP one on :meth:`reap`) and retires every
    drone the same way (:meth:`stop`), so idle drones exit as soon as
    their session ends.
    """

    def __init__(self, plane: Any, count: int, *, processes: bool,
                 url: Optional[str] = None, context: Any = None) -> None:
        self.plane, self.processes, self.url = plane, processes, url
        if context is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # a platform without fork
                context = multiprocessing.get_context("spawn")
        self._context = context
        kind = "proc" if processes else "thread"
        self.drone_ids = [f"{kind}-drone-{index}" for index in range(count)]
        self._drones: List[Drone] = []
        self._procs: List[Any] = []
        self._threads: List[threading.Thread] = []  # drone or relay threads
        self._pipes: List[Connection] = []
        self._lost: set = set()
        self._lost_lock = threading.Lock()  # relay threads bury drones too

    def start(self) -> None:
        for drone_id in self.drone_ids:  # so no sibling looks like the last live drone
            self.plane.register(drone_id)
        options = {"exit_when_idle": False, "heartbeat_interval": 0.25}
        for index, drone_id in enumerate(self.drone_ids):
            if not self.processes:
                drone = Drone(self.url or self.plane.call, drone_id, worker_index=index, **options)
                self._drones.append(drone)
                self._spawn(drone.run)
                continue
            target: Any = self.url
            if target is None:
                parent_end, target = self._context.Pipe()
                self._pipes.append(parent_end)
            process = self._context.Process(
                target=run_drone, args=(target, drone_id),
                kwargs={"worker_index": index, **options}, daemon=True,
            )
            process.start()
            self._procs.append(process)
            if self.url is None:
                target.close()  # before the next fork, so the relay sees this worker's EOF
        # Relays start once every worker is forked, so no worker is forked
        # while a relay thread holds a lock.
        for drone_id, parent_end in zip(self.drone_ids, self._pipes):
            self._spawn(self._relay, drone_id, parent_end)

    def _relay(self, drone_id: str, connection: Connection) -> None:
        relay(self.plane, connection)
        self._bury(drone_id)  # EOF: the worker is gone, requeue its lease now

    def _bury(self, drone_id: str) -> None:
        with self._lost_lock:
            if drone_id in self._lost:
                return
            self._lost.add(drone_id)
        self.plane.drone_lost(drone_id)

    def _spawn(self, target: Callable[..., Any], *args: Any) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True)
        thread.start()
        self._threads.append(thread)

    @property
    def exit_codes(self) -> List[Optional[int]]:
        """The worker processes' exit codes (``None`` while one runs)."""
        return [process.exitcode for process in self._procs]

    @property
    def pids(self) -> List[Optional[int]]:
        """The worker processes' pids, in :attr:`drone_ids` order."""
        return [process.pid for process in self._procs]

    def reap(self) -> None:
        """Report every newly exited worker process to the plane."""
        for drone_id, process in zip(self.drone_ids, self._procs):
            if process.exitcode is not None:
                self._bury(drone_id)

    def stop(self) -> None:
        """Retire every drone, then wait for threads and processes to end."""
        if not (self._drones or self._procs):
            return
        for drone in self._drones:
            drone.stop()
        for drone_id in self.drone_ids:
            self._bury(drone_id)
        for process in self._procs:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck-drone safety net
                process.terminate()
                process.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=10.0)
        for pipe in self._pipes:
            pipe.close()


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - CLI convenience
    """``python -m repro.swarm.drone <control-plane-url> [drone-id]``."""
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.swarm.drone <control-plane-url> [drone-id]")
        return 2
    url = args[0]
    drone_id = args[1] if len(args) > 1 else None
    leases = Drone(url, drone_id, exit_when_idle=False).run()
    print(json.dumps({"drone": drone_id, "leases": leases}))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
