"""The mission client: submit, stream, and collect final reports.

Pure standard library, like the rest of the stack.  The streaming
iterator reads the chunked JSON-lines response incrementally (one
``readline`` per event), so records arrive as the fleet produces them;
a dropped stream resumes from the last seen ``seq`` without replaying
or losing events.

>>> from repro.service import MissionServer
>>> from repro.testing import RandomStrategy
>>> with MissionServer(fleet=2) as server:
...     client = MissionClient(server.url)
...     mission_id = client.submit(
...         "toy-closed-loop", strategy=RandomStrategy(seed=0, max_executions=4),
...         overrides={"broken_ttf": True})
...     events = list(client.events(mission_id))
...     report = client.result(mission_id)
>>> events[-1]["type"], report["ok"], report["all_confirmed"]
('finished', False, True)
>>> len(report["records"])
4
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional

from ..swarm import protocol
from ..swarm.drone import get_json, post_json
from ..testing.parallel import ReplayConfirmation


class MissionClient:
    """A blocking HTTP client for one :class:`~repro.service.MissionServer`."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def submit(
        self,
        scenario: str,
        *,
        strategy: Any,
        overrides: Optional[dict] = None,
        shards: Optional[int] = None,
        track_coverage: bool = False,
        stop_at_first_violation: bool = False,
        confirm: bool = True,
    ) -> str:
        """Submit a mission; returns its id immediately (work is async)."""
        spec: Dict[str, Any] = {
            "scenario": scenario,
            "strategy": protocol.encode_strategy(strategy)
            if not isinstance(strategy, dict)
            else strategy,
            "track_coverage": track_coverage,
            "stop_at_first_violation": stop_at_first_violation,
            "confirm": confirm,
        }
        if overrides:
            spec["overrides"] = overrides
        if shards is not None:
            spec["shards"] = shards
        created = post_json(
            self.base_url, "/api/v1/mission", spec, timeout=self.timeout
        )
        return created["mission"]

    def status(self, mission_id: str) -> Dict[str, Any]:
        return get_json(
            self.base_url, f"/api/v1/mission/{mission_id}", timeout=self.timeout
        )

    def result(self, mission_id: str) -> Dict[str, Any]:
        """The final report (wire form); raises while still running."""
        return get_json(
            self.base_url, f"/api/v1/mission/{mission_id}/result", timeout=self.timeout
        )

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def events(self, mission_id: str, since: int = 0) -> Iterator[Dict[str, Any]]:
        """Iterate the mission's events from cursor ``since`` to the end.

        Each yielded event is a dict with monotonically increasing
        ``seq``; the final event has ``type == "finished"``.  The HTTP
        response is chunked JSON lines, decoded incrementally — events
        arrive as the fleet produces them, not when the mission ends.

        A stream that ends before its ``finished`` event (the server
        dropped the connection) raises :class:`ProtocolError` naming the
        last ``seq`` read; pass it as ``since`` to resume.
        """
        url = f"{self.base_url}/api/v1/mission/{mission_id}/events?since={int(since)}"
        request = urllib.request.Request(url, method="GET")
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            body = error.read()
            try:
                detail = protocol.loads(body).get(
                    "error", body.decode("utf-8", "replace")
                )
            except protocol.ProtocolError:
                detail = body.decode("utf-8", "replace")
            raise protocol.ProtocolError(
                f"event stream rejected: {detail}"
            ) from None
        with response:
            if response.status != 200:
                raise protocol.ProtocolError(
                    f"event stream rejected: HTTP {response.status}"
                )
            last_seq, finished = int(since), False
            while True:
                try:
                    line = response.readline()
                except (http.client.HTTPException, OSError):
                    break  # a dropped chunked body: the check below reports it
                if not line:
                    break
                line = line.strip()
                if line:
                    event = json.loads(line)
                    last_seq, finished = event["seq"], event["type"] == "finished"
                    yield event
        if not finished:
            raise protocol.ProtocolError(
                f"event stream of mission {mission_id} ended before its finished "
                f"event (last seq {last_seq}); resume with since={last_seq}"
            )

    def run(
        self, scenario: str, *, strategy: Any, **options: Any
    ) -> Dict[str, Any]:
        """Submit, drain the stream, and return the final report."""
        mission_id = self.submit(scenario, strategy=strategy, **options)
        finished: Dict[str, Any] = {}
        for finished in self.events(mission_id):
            pass  # the stream ends on its "finished" event, or raises
        if finished.get("error"):
            raise RuntimeError(f"mission {mission_id} failed: {finished['error']}")
        return self.result(mission_id)


# --------------------------------------------------------------------- #
# decoding helpers (wire report -> testing-layer objects)
# --------------------------------------------------------------------- #


def decode_report_records(report: Dict[str, Any]) -> List[Any]:
    """The final report's records as :class:`ExecutionRecord` objects."""
    return [protocol.decode_record(data) for data in report["records"]]


def decode_report_coverage(report: Dict[str, Any]) -> Any:
    """The final report's cumulative coverage as a :class:`CoverageMap`."""
    return protocol.decode_coverage(report.get("coverage") or None)


def decode_report_confirmations(report: Dict[str, Any]) -> List[ReplayConfirmation]:
    """The final report's replay confirmations as testing-layer objects."""
    return [
        ReplayConfirmation(
            trail=list(item["trail"]),
            replayed=protocol.decode_record(item["replayed"]),
            confirmed=bool(item["confirmed"]),
        )
        for item in report["confirmations"]
    ]
