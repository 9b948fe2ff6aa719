"""The mission service's HTTP surface: a control plane with mission routes.

:class:`MissionServer` extends
:class:`~repro.swarm.controlplane.ControlPlaneServer` — the drone-facing
API (``/api/v1/lease``, ``/api/v1/result``, …) keeps working unchanged
on the same port, so one server is both the fleet's control plane and
the clients' mission front door:

* ``POST /api/v1/mission`` — submit a mission spec; replies
  ``{"mission": <id>}``;
* ``GET /api/v1/mission/<id>`` — lightweight status (done, error,
  last event seq, records so far);
* ``GET /api/v1/mission/<id>/events?since=<seq>`` — the stream: chunked
  JSON lines, one event per line, starting after cursor ``seq`` and
  ending when the mission finishes (reconnect with the last seen seq to
  resume);
* ``GET /api/v1/mission/<id>/result`` — the final report, once done.

``fleet=N`` optionally hosts a standing fleet of N forked drones over
pipes (one process :class:`~repro.swarm.drone.LocalFleet`) so one
``MissionServer`` is a complete single-host deployment.  Each drone runs
in its own process, off the server's GIL, and reaches the plane through
a pipe that a relay thread here answers with
:meth:`~repro.swarm.controlplane.ControlPlane.call`, not over loopback
HTTP; a drone whose process dies is buried as soon as its pipe closes.
External drones pointed at this server's URL use the HTTP routes above.
Leave ``fleet`` 0 when only external drones serve the plane.

Once a stream's headers are out, a failure closes the connection
instead of replying with a JSON error, so the client sees a truncated
stream (no ``finished`` event) and can resume from its last ``seq``.
"""

from __future__ import annotations

import json
import urllib.parse
from typing import Any, Dict, Optional

from ..swarm import protocol
from ..swarm.controlplane import ControlPlaneServer, _Handler
from ..swarm.drone import LocalFleet
from .missions import MissionService

#: How long one streaming read waits for fresh events before emitting a
#: keepalive-sized empty batch check (the stream only ends on "finished").
_STREAM_POLL = 0.25


class _MissionHandler(_Handler):
    """The control-plane routes plus the mission API."""

    # Set by MissionServer on the handler class.
    service: MissionService = None  # type: ignore[assignment]

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        if self.path != "/api/v1/mission":
            super().do_POST()
            return
        try:
            mission_id = self.service.submit(self._payload())
            self._reply({"mission": mission_id})
        except protocol.ProtocolError as error:
            self._error(str(error))
        except (KeyError, TypeError, ValueError) as error:
            self._error(f"malformed request: {error!r}")

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        parsed = urllib.parse.urlsplit(self.path)
        if not parsed.path.startswith("/api/v1/mission/"):
            super().do_GET()
            return
        try:
            rest = parsed.path[len("/api/v1/mission/") :]
            if rest.endswith("/events"):
                mission_id = rest[: -len("/events")]
                query = urllib.parse.parse_qs(parsed.query)
                since = int(query.get("since", ["0"])[0])
                self._stream_events(mission_id, since)
            elif rest.endswith("/result"):
                self._reply(self.service.result(rest[: -len("/result")]))
            elif "/" not in rest and rest:
                self._reply(self.service.status(rest))
            else:
                self._error(f"unknown endpoint {self.path!r}", status=404)
        except protocol.ProtocolError as error:
            self._error(str(error))
        except (KeyError, TypeError, ValueError) as error:
            self._error(f"malformed request: {error!r}")

    def _stream_events(self, mission_id: str, since: int) -> None:
        service = self.service
        service.mission(mission_id)  # 400 on unknown ids *before* headers go out
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        cursor = since
        try:
            while True:
                batch, done = service.events_after(
                    mission_id, cursor, timeout=_STREAM_POLL
                )
                if batch:
                    self._write_chunk("".join(
                        json.dumps(event, sort_keys=True) + "\n" for event in batch
                    ))
                    cursor = batch[-1]["seq"]
                if done and not batch:
                    break
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except Exception:
            # The status line is sent: an error reply would land inside
            # the chunked body.  Drop the connection without the final
            # chunk, so the client reads a truncated stream.
            self.close_connection = True

    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()


class MissionServer(ControlPlaneServer):
    """One HTTP server hosting the control plane *and* the mission API."""

    handler_base = _MissionHandler

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        fleet: int = 0,
        default_shards: Optional[int] = None,
        deadline: float = 300.0,
        **plane_options: Any,
    ) -> None:
        if fleet < 0:
            raise ValueError("fleet must be non-negative")
        super().__init__(host=host, port=port, **plane_options)
        if default_shards is None:
            default_shards = fleet if fleet else 2
        self.service = MissionService(
            self.plane, default_shards=default_shards, deadline=deadline
        )
        # The handler type was built before the service existed; bind now.
        self._server.RequestHandlerClass.service = self.service
        self.fleet = LocalFleet(self.plane, fleet, processes=True)

    def _handler_attributes(self) -> Dict[str, Any]:
        return {**super()._handler_attributes(), "service": None}

    def start(self) -> "MissionServer":
        if self.fleet.drone_ids:
            # Build and densify the surveillance world once, here, so every
            # forked drone inherits it instead of building its own.
            from ..apps.scenarios import _shared_world

            _shared_world()
        # Fork the drones before the serve thread exists, so no worker is
        # forked while a server thread holds a lock.
        self.fleet.start()
        super().start()
        return self

    def stop(self) -> None:
        self.fleet.stop()
        super().stop()
