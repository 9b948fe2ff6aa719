"""Mission service vs. swarm facade — what does streaming cost?

The mission service wraps the same control plane the
:class:`~repro.swarm.SwarmTester` drives, but adds the client-facing
plane: per-mission event logs, cursor reads, a chunked HTTP event
stream and a final report round trip.  The two fleets differ in
transport: the swarm's drones reach their plane over loopback HTTP,
while the service's standing fleet is N forked drones over pipes, so
only the client's submit, stream and result requests ride HTTP on the
service side.  This benchmark runs the same 200-execution random sweep
both ways on one host and asserts the service's streaming overhead
stays within 1.5x of the facade — the streaming path must ride
ingestion, not tax it.
"""

from __future__ import annotations

import time

from repro.service import MissionClient, MissionServer
from repro.service.client import decode_report_records
from repro.swarm import SwarmTester
from repro.testing import RandomStrategy

SCENARIO = "drone-surveillance"
HORIZON = 2.0
EXECUTIONS = 200
SEED = 11

#: The satellite acceptance bound: streamed missions may cost at most
#: this factor over the batch facade on the same sweep.
MAX_STREAMING_OVERHEAD = 1.5


def _swarm_sweep():
    tester = SwarmTester(
        SCENARIO,
        scenario_overrides={"horizon": HORIZON},
        strategy=RandomStrategy(seed=SEED, max_executions=EXECUTIONS),
        drones=2,
        track_coverage=True,
    )
    started = time.perf_counter()
    report = tester.explore(confirm_counterexamples=False)
    return report, time.perf_counter() - started


def _service_sweep():
    with MissionServer(fleet=2) as server:
        client = MissionClient(server.url)
        started = time.perf_counter()
        mission_id = client.submit(
            SCENARIO,
            strategy=RandomStrategy(seed=SEED, max_executions=EXECUTIONS),
            overrides={"horizon": HORIZON},
            track_coverage=True,
            confirm=False,
        )
        streamed = sum(
            1 for event in client.events(mission_id) if event["type"] == "record"
        )
        report = client.result(mission_id)
        elapsed = time.perf_counter() - started
    return report, streamed, elapsed


def test_mission_streaming_overhead(table_printer):
    swarm, swarm_s = _swarm_sweep()
    report, streamed, service_s = _service_sweep()
    overhead = service_s / swarm_s
    table_printer(
        f"Mission service vs swarm facade: {EXECUTIONS}-execution sweep of '{SCENARIO}'",
        ["configuration", "wall time [s]", "executions/s", "overhead vs facade"],
        [
            ["SwarmTester, 2 localhost drones", f"{swarm_s:.2f}",
             f"{EXECUTIONS / swarm_s:.0f}", "1.00x"],
            ["MissionServer, streamed to client", f"{service_s:.2f}",
             f"{EXECUTIONS / service_s:.0f}", f"{overhead:.2f}x"],
        ],
    )
    # Fidelity first: the streamed mission is the same sweep.
    assert streamed == EXECUTIONS
    mission_records = decode_report_records(report)
    assert sorted(tuple(r.trail) for r in mission_records) == sorted(
        tuple(r.trail) for r in swarm.executions
    )
    assert report["duplicates"] == 0
    # The satellite bound: streaming must not tax the sweep.
    assert overhead <= MAX_STREAMING_OVERHEAD, (
        f"mission streaming overhead {overhead:.2f}x exceeds the "
        f"{MAX_STREAMING_OVERHEAD}x bound"
    )
