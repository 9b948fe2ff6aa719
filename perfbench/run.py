"""Layered performance benchmark of the SOTER reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-distinct --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
each timing is rescaled to reference host speed by the
:func:`measure.reference_s` reading taken right before its window.
``--trace 1`` is the separate traced run: it times the same operations
untraced and then traced, prints a per-layer table (calls, self time,
share of the traced pass's timed work) with the tracing overhead, writes
the raw spans to ``.perfbench/``, and reports the per-layer metrics.  The
last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    TAIL_BEYOND,
    TAIL_GROUP,
    median,
    peak_rss_mb,
    quartiles,
    reference_s,
    tail_of_groups,
)
from workloads import OpResult, Window, Workload, build, clock, names  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.  The first, cold one takes
#: 1.3-3x as long as the rest, so the median of five is a warm set-up.
SETUP_REPEATS = 5
#: The peak RSS is read once the timed operations have completed this many
#: executions, so a workload whose memory grows with the work done (the
#: mission service keeps every mission) reports the same work on any host.
RSS_AFTER_EXECUTIONS = 1200

#: (name, unit, better) of every end-to-end metric, in output order.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("exec_per_s", "exec/s", "higher"),
    ("sim_rtf", "sim-s/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Per-layer metrics of the traced run: (name, unit, better, source).  A
#: source reads the traced pass's span aggregates, counters and samples
#: through a :class:`Layers` view.
PER_LAYER: List[Tuple[str, str, str, Callable[["Layers"], float]]] = [
    ("core.semantics.fire.calls", "count", "lower", lambda v: v.calls("core.semantics.fire")),
    ("core.semantics.fire.self_s", "s", "lower", lambda v: v.self_s("core.semantics.fire")),
    ("core.calendar.next_due.self_s", "s", "lower", lambda v: v.self_s("core.calendar.next_due")),
    ("core.decision.step.calls", "count", "lower", lambda v: v.calls("core.decision.step")),
    ("core.decision.step.self_s", "s", "lower", lambda v: v.self_s("core.decision.step")),
    ("core.monitor.check.calls", "count", "lower", lambda v: v.calls("core.monitor.check")),
    ("core.monitor.check.self_s", "s", "lower", lambda v: v.self_s("core.monitor.check")),
    ("control.step.self_s", "s", "lower", lambda v: v.self_s("control.step")),
    ("planning.step.calls", "count", "lower", lambda v: v.calls("planning.step")),
    ("planning.step.self_s", "s", "lower", lambda v: v.self_s("planning.step")),
    ("apps.nodes.step.self_s", "s", "lower", lambda v: v.self_s("apps.nodes.step")),
    ("apps.stack.build_s", "s", "lower", lambda v: v.total_s("apps.stack.build")),
    ("geometry.clearance.queries", "count", "lower", lambda v: v.state("clearance.queries")),
    ("geometry.clearance.hit_rate", "ratio", "higher", lambda v: v.ratio("clearance.decisive", "clearance.queries")),
    ("geometry.clearance.dense_hits", "count", "higher", lambda v: v.state("clearance.dense_hits")),
    ("geometry.clearance.exact_fallbacks", "count", "lower", lambda v: v.state("clearance.exact_fallbacks")),
    ("geometry.clearance.densify_s", "s", "lower", lambda v: v.setup_mean_s("geometry.clearance.densify")),
    ("testing.scheduler.order.calls", "count", "lower", lambda v: v.calls("testing.scheduler.order")),
    ("testing.scheduler.order.self_s", "s", "lower", lambda v: v.self_s("testing.scheduler.order")),
    ("testing.scheduler.choices", "count", "lower", lambda v: v.counter("testing.scheduler.choices")),
    ("testing.strategies.choose.calls", "count", "lower", lambda v: v.calls("testing.strategies.choose")),
    ("testing.strategies.choose.self_s", "s", "lower", lambda v: v.self_s("testing.strategies.choose")),
    ("testing.env.apply.self_s", "s", "lower", lambda v: v.self_s("testing.env.apply")),
    ("testing.explorer.reset.self_s", "s", "lower", lambda v: v.self_s("testing.explorer.reset")),
    ("testing.explorer.run_single.self_s", "s", "lower", lambda v: v.self_s("testing.explorer.run_single")),
    ("testing.population.compaction_ratio", "ratio", "higher",
     lambda v: v.ratio("population.compacted", "population.executions")),
    ("testing.population.restore_ratio", "ratio", "higher",
     lambda v: v.ratio("population.restores", "population.live_runs")),
    ("testing.population.live_runs", "count", "lower", lambda v: v.state("population.live_runs")),
    ("testing.population.snapshot.capture.calls", "count", "lower",
     lambda v: v.calls("testing.population.snapshot.capture")),
    ("testing.population.snapshot.capture.self_s", "s", "lower",
     lambda v: v.self_s("testing.population.snapshot.capture")),
    ("testing.population.snapshot.restore.calls", "count", "lower",
     lambda v: v.calls("testing.population.snapshot.restore")),
    ("testing.population.snapshot.restore.self_s", "s", "lower",
     lambda v: v.self_s("testing.population.snapshot.restore")),
    ("testing.population.walk.self_s", "s", "lower", lambda v: v.self_s("testing.population.walk")),
    ("simulation.plant.apply.calls", "count", "lower", lambda v: v.calls("simulation.plant.apply")),
    ("simulation.plant.apply.self_s", "s", "lower", lambda v: v.self_s("simulation.plant.apply")),
    ("simulation.sensors.self_s", "s", "lower", lambda v: v.self_s("simulation.sensors")),
    ("runtime.tracing.self_s", "s", "lower", lambda v: v.self_s("runtime.tracing")),
    ("swarm.protocol.dumps.calls", "count", "lower", lambda v: v.calls("swarm.protocol.dumps")),
    ("swarm.protocol.dumps.self_s", "s", "lower", lambda v: v.self_s("swarm.protocol.dumps")),
    ("swarm.protocol.loads.self_s", "s", "lower", lambda v: v.self_s("swarm.protocol.loads")),
    ("swarm.protocol.bytes", "B", "lower", lambda v: v.counter("swarm.protocol.bytes")),
    ("swarm.controlplane.request_lease.calls", "count", "lower",
     lambda v: v.calls("swarm.controlplane.request_lease")),
    ("swarm.controlplane.lease_wait_s", "s", "lower", lambda v: v.total_s("swarm.controlplane.lease_wait")),
    ("swarm.controlplane.ingest.calls", "count", "lower", lambda v: v.calls("swarm.controlplane.ingest")),
    ("swarm.controlplane.ingest.self_s", "s", "lower", lambda v: v.self_s("swarm.controlplane.ingest")),
    ("swarm.controlplane.heartbeat.calls", "count", "lower", lambda v: v.calls("swarm.controlplane.heartbeat")),
    ("swarm.controlplane.duplicates", "count", "lower", lambda v: v.state("service.duplicates")),
    ("swarm.drone.http.calls", "count", "lower", lambda v: v.calls("swarm.drone.http")),
    ("swarm.drone.http_rtt_p50_ms", "ms", "lower", lambda v: v.sample_p50_ms("swarm.drone.http_rtt_s")),
    ("swarm.drone.execute.self_s", "s", "lower", lambda v: v.self_s("swarm.drone.execute")),
    ("service.missions.submit.self_s", "s", "lower", lambda v: v.self_s("service.missions.submit")),
    ("service.missions.events_after.wait_s", "s", "lower", lambda v: v.total_s("service.missions.events_after")),
    ("service.missions.retained", "count", "lower", lambda v: v.final("service.retained")),
    ("service.client.submit_rtt_ms", "ms", "lower", lambda v: v.sample_p50_ms("service.client.submit_rtt_s")),
    ("service.client.result_rtt_ms", "ms", "lower", lambda v: v.sample_p50_ms("service.client.result_rtt_s")),
    ("service.client.result_bytes", "B", "lower", lambda v: v.sample_p50("service.client.result_bytes")),
    ("service.first_record_p50_ms", "ms", "lower", lambda v: v.first_record_p50_ms()),
    ("trace.wall_s", "s", "lower", lambda v: v.traced_wall_s),
    ("trace.overhead_s", "s", "lower", lambda v: v.overhead_s),
]


class Layers:
    """Read-only view of one traced pass, for the :data:`PER_LAYER` sources."""

    def __init__(
        self,
        recorder: Any,
        setup_aggregates: Dict[str, List[float]],
        before: Dict[str, float],
        after: Dict[str, float],
        results: List[OpResult],
        traced_wall_s: float,
        overhead_s: float,
    ) -> None:
        """``traced_wall_s``: the traced pass's timed work as measured;
        ``overhead_s``: traced minus untraced timed work at reference speed."""
        self.aggregates = recorder.aggregates()
        self.counters = recorder.counters()
        self.recorder = recorder
        self.setup_aggregates = setup_aggregates
        self.before = before
        self.after = after
        self.results = results
        self.traced_wall_s = traced_wall_s
        self.overhead_s = overhead_s

    def calls(self, name: str) -> float:
        return self.aggregates.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.aggregates.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.aggregates.get(name, (0, 0.0, 0.0))[2]

    def setup_mean_s(self, name: str) -> float:
        calls, total, _ = self.setup_aggregates.get(name, (0, 0.0, 0.0))
        return total / calls if calls else 0.0

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def state(self, key: str) -> float:
        return self.after.get(key, 0) - self.before.get(key, 0)

    def final(self, key: str) -> float:
        return self.after.get(key, 0)

    def ratio(self, numerator: str, denominator: str) -> float:
        below = self.state(denominator)
        return self.state(numerator) / below if below else 0.0

    def sample_p50(self, name: str) -> float:
        samples = self.recorder.all_samples(name)
        return median(samples) if samples else 0.0

    def sample_p50_ms(self, name: str) -> float:
        return 1000.0 * self.sample_p50(name)

    def first_record_p50_ms(self) -> float:
        firsts = [first for r in self.results for first in r.first_records_s]
        return 1000.0 * median(firsts) if firsts else 0.0


# --------------------------------------------------------------------------- #
def layer_spans() -> Set[str]:
    """The span names the :data:`PER_LAYER` sources read."""
    from tracer import Recorder

    names: Set[str] = set()

    class SpanNames(Layers):
        def _span(self, name: str) -> float:
            names.add(name)
            return 0.0

        calls = total_s = self_s = setup_mean_s = _span

    view = SpanNames(Recorder(), {}, {}, {}, [], 0.0, 0.0)
    for _, _, _, read in PER_LAYER:
        read(view)
    return names


def run_op(workload: Workload, k: int) -> OpResult:
    """Operation ``k``; a raise counts every attempted operation as failed."""
    try:
        return workload.run_op(k)
    except Exception:  # noqa: BLE001 - the benchmark must report, not crash
        traceback.print_exc(file=sys.stderr)
        attempts = workload.op_attempts(k)
        return OpResult(
            host_s=0.0, attempted=attempts, failed=attempts, problems=[f"operation {k} raised"]
        )


def timed_ops(workload: Workload, seconds: float) -> Tuple[List[OpResult], float]:
    """Run operations ``0, 1, …`` until ``seconds`` of timed work.

    Returns the results and the peak RSS (see :data:`RSS_AFTER_EXECUTIONS`).
    Failing operations take no timed work, so a wall-clock guard ends a run
    whose operations keep failing.
    """
    results: List[OpResult] = []
    rss = None
    measured = 0.0
    executions = 0
    started = clock()
    while measured < seconds and clock() - started < 3 * seconds + 30:
        result = run_op(workload, len(results))
        results.append(result)
        measured += result.host_s
        executions += result.executions
        if rss is None and executions >= RSS_AFTER_EXECUTIONS:
            rss = peak_rss_mb()
    return results, rss if rss is not None else peak_rss_mb()


def at_reference_speed(seconds: float, reference: float) -> float:
    """``seconds`` timed when :func:`measure.reference_s` read ``reference``,
    rescaled to a host on which it reads :data:`measure.REFERENCE_NOMINAL_S`."""
    return seconds * REFERENCE_NOMINAL_S / reference


def timed_windows(results: List[OpResult]) -> List[Window]:
    return [w for r in results for w in r.windows if w.executions > 0 and w.host_s > 0]


def tracing_overhead_s(untraced: List[OpResult], traced: List[OpResult]) -> float:
    """Traced minus untraced timed work (the windows), at reference speed."""

    def work(results: List[OpResult]) -> float:
        return sum(at_reference_speed(w.host_s, w.reference_s) for w in timed_windows(results))

    return work(traced) - work(untraced)


def end_to_end(results: List[OpResult], setups: List[Tuple[float, float]]) -> Dict[str, float]:
    """The end-to-end timings of a run, at reference speed.

    Each window's host time and latency samples are rescaled by the
    reference loop timed right before it.  Throughputs are the median over
    windows, ``latency_p50`` the median of all samples, and the tail is
    :func:`measure.tail_of_groups` of all samples in timed order.
    """
    windows = timed_windows(results)
    if not windows:
        raise RuntimeError("no operation completed")
    hosts = [at_reference_speed(w.host_s, w.reference_s) for w in windows]
    samples = [at_reference_speed(s, w.reference_s) for w in windows for s in w.latencies_s]
    tail_s, percentile = tail_of_groups(samples)
    speeds = quartiles([REFERENCE_NOMINAL_S / w.reference_s for w in windows])
    raw = [w.executions / w.host_s for w in windows]
    print(f"timed work: {sum(r.host_s for r in results):.2f} s over {len(results)} operations, "
          f"{len(windows)} windows, {len(samples)} latency samples; tail = median over groups "
          f"of <= {TAIL_GROUP} samples of each one's highest percentile with {TAIL_BEYOND} beyond "
          f"(>= p{percentile:.2f})")
    print("host speed before each window, relative to the reference: quartiles "
          + ", ".join(f"{q:.2f}" for q in speeds)
          + f"; as measured, exec/s median {median(raw):.1f}, "
          f"latency p50 {1000 * median([s for w in windows for s in w.latencies_s]):.4g} ms")
    return {
        "setup_s": median([at_reference_speed(s, ref) for s, ref in setups]),
        "exec_per_s": median([w.executions / h for w, h in zip(windows, hosts)]),
        "sim_rtf": median([w.sim_s / h for w, h in zip(windows, hosts)]),
        "latency_p50_ms": 1000.0 * median(samples),
        "latency_tail_ms": 1000.0 * tail_s,
    }


def layer_table(layers: Layers) -> None:
    wall = layers.traced_wall_s
    rows = sorted(layers.aggregates.items(), key=lambda item: -item[1][2])
    print(f"per-layer spans of the traced pass (timed work {wall:.3f} s; threads run in "
          "parallel, so shares can sum past 100%):")
    print(f"  {'span':44s} {'calls':>10s} {'self [s]':>10s} {'share':>7s}")
    for name, (calls, _, own) in rows:
        print(f"  {name:44s} {int(calls):10d} {own:10.4f} {100.0 * own / wall:6.1f}%")
    print(f"tracing overhead: {layers.overhead_s:.3f} s = traced minus untraced timed work of "
          "the same operations, at reference speed (host drift the reference loop misses remains)")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"cannot find the program: no {source / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    workload = build(args.workload, args.seed)
    recorder = patches = None
    setup_aggregates: Dict[str, List[float]] = {}
    problems: List[str] = []
    if args.trace:
        from tracer import Recorder, instrument

        recorder = Recorder()
        patches = instrument(recorder)
        problems += [f"traced run: no method to wrap for span {name}"
                     for name in patches.missing(layer_spans())]

    setups: List[Tuple[float, float]] = []  # (host seconds, reference reading)
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            reference = reference_s()
            started = clock()
            workload.setup()
            setups.append((clock() - started, reference))
        if patches is not None:
            patches.undo()
            setup_aggregates = recorder.aggregates()
            recorder.reset()
        workload.prepare()
        results, rss = timed_ops(workload, args.seconds / 2 if args.trace else args.seconds)
        if args.trace:
            before = workload.layer_state()
            patches = instrument(recorder)
            traced = [run_op(workload, k) for k in range(len(results))]
            patches.undo()
            layers = Layers(recorder, setup_aggregates, before, workload.layer_state(), traced,
                            sum(w.host_s for w in timed_windows(traced)),
                            tracing_overhead_s(results, traced))
            results += traced
        problems += workload.finish()
    finally:
        if patches is not None:
            patches.undo()
        workload.teardown()

    for result in results:
        problems += result.problems
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"workload {workload.name} (seed {args.seed}); latency = {workload.latency_of}")
    for line in workload.summary():
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        layer_table(layers)
        written = recorder.write_spans(ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.jsonl")
        print(f"wrote {written} spans to .perfbench/")
        metrics = {name: {"value": read(layers), "unit": unit}
                   for name, unit, _, read in PER_LAYER}
    else:
        values = end_to_end(results, setups)
        values["peak_rss_mb"] = rss
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    for name, metric in metrics.items():
        print(f"  {name:46s} {metric['value']:>16.6g} {metric['unit']}")
    verdict = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
