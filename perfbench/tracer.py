"""Spans around the calls into each ``repro`` layer, recorded from outside.

The benchmark does not edit the program: :func:`instrument` wraps the
public entry points of every layer (and a few private hot-loop methods
the testers call instead of the public ones) with span recorders, and
:meth:`Instrumentation.undo` restores the originals.  A span has a name,
a start, an end, a parent and the identifier of the execution or mission
it belongs to.

Spans are kept per thread — the swarm drones and HTTP handlers are
threads — and aggregated as they close: a layer's self time is its span
duration minus the time its child spans cover.  Children on one thread
never overlap, so the covered time is the sum of the child durations.
The first ``keep_spans`` raw spans of each thread are also kept and
written out at the end (:meth:`Recorder.write_spans`).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

_clock = time.perf_counter


class _ThreadLog:
    """One thread's open-span stack, aggregates, counters and raw spans."""

    def __init__(self, index: int, keep_spans: int) -> None:
        self.index = index
        self.keep_spans = keep_spans
        # Open frames: [name, start, child_time, span_id, parent_id]
        self.stack: List[list] = []
        # name -> [calls, total_s, self_s]
        self.aggs: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.spans: List[Tuple[Any, ...]] = []
        self.next_id = 0
        self.trace: Optional[str] = None

    def enter(self, name: str) -> None:
        self.next_id += 1
        parent = self.stack[-1][3] if self.stack else None
        self.stack.append([name, _clock(), 0.0, self.next_id, parent])

    def exit(self) -> float:
        end = _clock()
        name, start, child, span_id, parent = self.stack.pop()
        duration = end - start
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if len(self.spans) < self.keep_spans:
            self.spans.append(
                (self.index, span_id, parent, self.trace, name, start, end)
            )
        return duration


class Recorder:
    """Thread-aware span and counter store."""

    def __init__(self, keep_spans: int = 20_000) -> None:
        self.keep_spans = keep_spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: List[_ThreadLog] = []

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs), self.keep_spans)
                self._logs.append(log)
            self._local.log = log
        return log

    def set_trace(self, trace_id: Optional[str]) -> None:
        """Tag the calling thread's next spans with an execution/mission id."""
        self.log().trace = trace_id

    def count(self, name: str, amount: float = 1) -> None:
        self.log().counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        self.log().samples[name].append(value)

    def reset(self) -> None:
        """Forget everything recorded so far (open spans stay open)."""
        with self._lock:
            for log in self._logs:
                log.aggs.clear()
                log.counts.clear()
                log.samples.clear()
                log.spans.clear()

    def aggregates(self) -> Dict[str, List[float]]:
        merged: Dict[str, List[float]] = {}
        with self._lock:
            for log in self._logs:
                for name, (calls, total, own) in list(log.aggs.items()):
                    into = merged.setdefault(name, [0, 0.0, 0.0])
                    into[0] += calls
                    into[1] += total
                    into[2] += own
        return merged

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        with self._lock:
            for log in self._logs:
                for name, value in list(log.counts.items()):
                    merged[name] += value
        return merged

    def all_samples(self, name: str) -> List[float]:
        with self._lock:
            return [value for log in self._logs for value in list(log.samples.get(name, ()))]

    def write_spans(self, path: Path) -> int:
        """Write the kept raw spans as JSON lines; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with self._lock, path.open("w", encoding="utf-8") as out:
            for log in self._logs:
                for thread, span_id, parent, trace, name, start, end in log.spans:
                    out.write(json.dumps({
                        "thread": thread,
                        "span": span_id,
                        "parent": parent,
                        "trace": trace,
                        "name": name,
                        "start": start,
                        "end": end,
                    }) + "\n")
                    written += 1
        return written


# --------------------------------------------------------------------------- #
# wrapping
# --------------------------------------------------------------------------- #
def span_wrapper(
    recorder: Recorder,
    name: str,
    fn: Callable[..., Any],
    after: Optional[Callable[[tuple, Any, float], None]] = None,
    before: Optional[Callable[[tuple], Any]] = None,
) -> Callable[..., Any]:
    """``fn`` inside a span; ``before(args)`` / ``after(args, result, duration)`` hooks."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        log = recorder.log()
        token = before(args) if before is not None else None
        log.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = log.exit()
        if after is not None:
            after((args, token), result, duration)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Instrumentation:
    """The set of patches :func:`instrument` applied, undoable."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Span names a wrap was attempted for, and those at least one wrap installed.
        self.attempted: Set[str] = set()
        self.installed: Set[str] = set()

    def missing(self, required: Iterable[str] = ()) -> List[str]:
        """Span names (attempted or ``required``) that no wrap installed.

        Their metrics would silently read zero, so a traced run with any
        missing span fails.
        """
        return sorted((self.attempted | set(required)) - self.installed)

    def wrap_method(self, cls: type, attr: str, name: str, **hooks: Any) -> bool:
        """Wrap ``cls.attr`` if the class itself defines it."""
        self.attempted.add(name)
        original = cls.__dict__.get(attr)
        if original is None or not callable(original):
            return False
        setattr(cls, attr, span_wrapper(self.recorder, name, original, **hooks))
        self._undo.append((cls, attr, original))
        self.installed.add(name)
        return True

    def wrap_function(
        self, module_name: str, attr: str, name: str, also: Tuple[str, ...] = (), **hooks: Any
    ) -> bool:
        """Wrap a module function, and its re-exports in the ``also`` modules.

        Other importers keep the original, so their calls are not
        attributed to this layer.
        """
        self.attempted.add(name)
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            return False
        wrapped = span_wrapper(self.recorder, name, original, **hooks)
        for owner in (module, *(sys.modules.get(alias) for alias in also)):
            if owner is not None and owner.__dict__.get(attr) is original:
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
        self.installed.add(name)
        return True

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _subclasses(root: type) -> List[type]:
    seen: List[type] = []
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def _json_size(payload: Any) -> int:
    try:
        return len(json.dumps(payload))
    except (TypeError, ValueError):
        return 0


def instrument(recorder: Recorder) -> Instrumentation:
    """Wrap every layer's entry points; returns the undo handle.

    Layer names follow the ``repro`` packages.  A span none of whose
    methods exists any more is listed by :meth:`Instrumentation.missing`.
    """
    # Import every layer first so the class walk and alias patching see it.
    import repro.apps.scenarios  # noqa: F401
    import repro.service  # noqa: F401
    import repro.simulation.plantenv  # noqa: F401
    import repro.swarm  # noqa: F401
    import repro.testing.population  # noqa: F401
    from repro.core.calendar import Calendar
    from repro.core.decision import DecisionModule
    from repro.core.monitor import MonitorSuite
    from repro.core.node import Node
    from repro.core.semantics import SemanticsEngine
    from repro.geometry.clearance import ClearanceField
    from repro.runtime.tracing import ExecutionTrace
    from repro.service.client import MissionClient
    from repro.service.missions import MissionService
    from repro.simulation.drone import DronePlant
    from repro.swarm.controlplane import ControlPlane
    from repro.swarm.drone import Drone
    from repro.testing.abstractions import AbstractEnvironment
    from repro.testing.explorer import SystematicTester
    from repro.testing.population import PopulationTester
    from repro.testing.scheduler import BoundedAsynchronyScheduler

    patches = Instrumentation(recorder)
    wrap = patches.wrap_method

    # core ------------------------------------------------------------------ #
    wrap(SemanticsEngine, "_fire_ordered", "core.semantics.fire")
    for attr in ("next_due", "next_time", "due_nodes"):
        wrap(Calendar, attr, "core.calendar.next_due")
    for attr in ("check_all", "capture_all", "flush"):
        wrap(MonitorSuite, attr, "core.monitor.check")
    for cls in _subclasses(Node):
        module = cls.__module__
        if cls is DecisionModule:
            wrap(cls, "step", "core.decision.step")
        elif module.startswith("repro.control."):
            wrap(cls, "step", "control.step")
        elif module == "repro.apps.nodes":
            wrap(cls, "step", "apps.nodes.step")

    # planning / apps / geometry -------------------------------------------- #
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.planning.") or module is None:
            continue
        for cls in list(vars(module).values()):
            if (
                isinstance(cls, type)
                and cls.__module__ == module_name
                and not getattr(cls, "_is_protocol", False)
            ):
                wrap(cls, "plan", "planning.step")
    patches.wrap_function("repro.apps.stack", "build_stack", "apps.stack.build", also=("repro.apps",))
    wrap(ClearanceField, "densify", "geometry.clearance.densify")

    # testing ---------------------------------------------------------------- #
    def choices_before(args: tuple) -> int:
        return args[0].orderings_chosen

    def choices_after(call: tuple, result: Any, duration: float) -> None:
        args, before = call
        recorder.count("testing.scheduler.choices", args[0].orderings_chosen - before)

    wrap(
        BoundedAsynchronyScheduler, "order", "testing.scheduler.order",
        before=choices_before, after=choices_after,
    )
    import repro.testing.strategies as strategies

    for cls in list(vars(strategies).values()):
        if isinstance(cls, type) and cls.__module__ == strategies.__name__:
            if not getattr(cls, "_is_protocol", False):
                wrap(cls, "choose", "testing.strategies.choose")
    for cls in _subclasses(AbstractEnvironment):
        wrap(cls, "apply", "testing.env.apply")
    for module_name, cls_name in (
        ("repro.simulation.plantenv", "PlantEnvironment"),
        ("repro.runtime.faults", "FaultPlane"),
    ):
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        if isinstance(cls, type) and not issubclass(cls, AbstractEnvironment):
            wrap(cls, "apply", "testing.env.apply")

    def execution_trace(args: tuple) -> None:
        log = recorder.log()
        base = (log.trace or "").split("#", 1)[0]
        index = args[1] if len(args) > 1 else "?"
        log.trace = f"{base}#{index}"

    wrap(SystematicTester, "_acquire", "testing.explorer.reset")
    wrap(SystematicTester, "run_single", "testing.explorer.run_single", before=execution_trace)
    wrap(PopulationTester, "run_single", "testing.population.walk", before=execution_trace)
    wrap(PopulationTester, "_take_snapshot", "testing.population.snapshot.capture")
    for attr in ("_restore_delta", "_unpickle_state"):
        wrap(PopulationTester, attr, "testing.population.snapshot.restore")

    # simulation / runtime ----------------------------------------------------- #
    wrap(DronePlant, "apply", "simulation.plant.apply")
    import repro.simulation.sensors as sensors

    for cls in list(vars(sensors).values()):
        if isinstance(cls, type) and cls.__module__ == sensors.__name__:
            for attr in ("estimate", "measure"):
                wrap(cls, attr, "simulation.sensors")
    for attr in ("on_node_fired", "on_mode_switch", "on_environment_input", "add_sample"):
        wrap(ExecutionTrace, attr, "runtime.tracing")

    # swarm --------------------------------------------------------------------- #
    def count_bytes(call: tuple, result: Any, duration: float) -> None:
        recorder.count("swarm.protocol.bytes", len(result) if result is not None else 0)

    patches.wrap_function("repro.swarm.protocol", "dumps", "swarm.protocol.dumps", after=count_bytes)
    patches.wrap_function("repro.swarm.protocol", "loads", "swarm.protocol.loads")
    wrap(ControlPlane, "request_lease", "swarm.controlplane.request_lease")
    wrap(ControlPlane, "wait_for_work", "swarm.controlplane.lease_wait")
    wrap(ControlPlane, "ingest", "swarm.controlplane.ingest")
    wrap(ControlPlane, "heartbeat", "swarm.controlplane.heartbeat")

    def http_rtt(call: tuple, result: Any, duration: float) -> None:
        recorder.sample("swarm.drone.http_rtt_s", duration)

    for attr in ("post_json", "get_json"):
        patches.wrap_function("repro.swarm.drone", attr, "swarm.drone.http", after=http_rtt)

    def lease_trace(args: tuple) -> None:
        grant = args[1] if len(args) > 1 else None
        session = grant.get("session") if isinstance(grant, dict) else None
        recorder.set_trace(f"session:{session}")

    wrap(Drone, "_run_lease", "swarm.drone.execute", before=lease_trace)

    # service ------------------------------------------------------------------- #
    wrap(MissionService, "submit", "service.missions.submit")
    wrap(MissionService, "events_after", "service.missions.events_after")

    def submit_rtt(call: tuple, result: Any, duration: float) -> None:
        recorder.sample("service.client.submit_rtt_s", duration)

    def result_rtt(call: tuple, result: Any, duration: float) -> None:
        recorder.sample("service.client.result_rtt_s", duration)
        recorder.sample("service.client.result_bytes", _json_size(result))

    wrap(MissionClient, "submit", "service.client.submit", after=submit_rtt)
    wrap(MissionClient, "result", "service.client.result", after=result_rtt)
    return patches
