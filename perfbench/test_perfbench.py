"""Self-tests of the benchmark's helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, PER_LAYER, at_reference_speed, end_to_end, layer_spans  # noqa: E402


# --------------------------------------------------------------------------- #
# tail percentile: the highest percentile with at least ten samples beyond it
# --------------------------------------------------------------------------- #
def test_tail_needs_eleven_samples():
    assert measure.tail(list(range(10))) is None
    value, percentile = measure.tail(list(range(11)))
    assert value == 0
    assert percentile == pytest.approx(100 / 11)


def test_tail_leaves_exactly_ten_beyond():
    samples = [float(x) for x in range(1000)]
    value, percentile = measure.tail(list(reversed(samples)))
    assert sum(1 for s in samples if s > value) == 10
    assert value == 989.0
    assert percentile == pytest.approx(99.0)


def test_tail_of_small_run_is_below_the_top():
    samples = [1.0] * 50 + [100.0] * 10
    value, _ = measure.tail(samples)
    assert value == 1.0  # ten outliers never make the tail by themselves


def test_tail_of_groups_cuts_near_equal_groups_of_at_most_a_thousand():
    # 2500 samples -> three groups of 833/834/833; group g holds g*1000 + rank
    samples = [float(1000 * g + r) for g, size in enumerate((833, 834, 833)) for r in range(size)]
    value, percentile = measure.tail_of_groups(samples)
    assert value == 1000.0 + 834 - 11  # the middle group's tail
    assert percentile == pytest.approx(100.0 * 823 / 833)  # the lowest, the first group's
    small, percentile = measure.tail_of_groups([float(x) for x in range(60)])
    assert (small, percentile) == (49.0, pytest.approx(100.0 * 50 / 60))  # one group
    with pytest.raises(ValueError):
        measure.tail_of_groups([1.0] * 10)


# --------------------------------------------------------------------------- #
# self time on nested spans
# --------------------------------------------------------------------------- #
def _fake_clock(monkeypatch, ticks):
    it = iter(ticks)
    monkeypatch.setattr(tracer, "_clock", lambda: next(it))


def test_self_time_subtracts_children(monkeypatch):
    # outer [0, 10] > a [1, 3], b [4, 8] > c [5, 6]
    _fake_clock(monkeypatch, [0, 1, 3, 4, 5, 6, 8, 10])
    log = tracer.Recorder().log()
    log.enter("outer")
    log.enter("a")
    log.exit()
    log.enter("b")
    log.enter("c")
    log.exit()
    log.exit()
    log.exit()
    calls, total, own = zip(*(log.aggs[name] for name in ("outer", "a", "b", "c")))
    assert calls == (1, 1, 1, 1)
    assert total == (10, 2, 4, 1)
    assert own == (4, 2, 3, 1)


def test_recursive_spans_count_self_once(monkeypatch):
    _fake_clock(monkeypatch, [0, 2, 5, 9])
    log = tracer.Recorder().log()
    log.enter("x")
    log.enter("x")
    log.exit()
    log.exit()
    calls, total, own = log.aggs["x"]
    assert calls == 2
    assert own == 9  # 6 outer self + 3 inner; the covered part is not double-counted
    assert total == 12  # durations sum, so inclusive time double-counts nesting


def test_spans_keep_parents_and_trace_ids(monkeypatch):
    _fake_clock(monkeypatch, [0, 1, 2, 3])
    recorder = tracer.Recorder()
    recorder.set_trace("mission-7")
    log = recorder.log()
    log.enter("outer")
    log.enter("inner")
    log.exit()
    log.exit()
    inner, outer = log.spans
    assert inner[4] == "inner" and outer[4] == "outer"
    assert inner[2] == outer[1]  # the inner span's parent is the outer span
    assert outer[2] is None
    assert inner[3] == outer[3] == "mission-7"


def test_threads_keep_separate_stacks():
    recorder = tracer.Recorder()
    barrier = threading.Barrier(2)

    def work(name):
        log = recorder.log()
        log.enter(name)
        barrier.wait(timeout=5)  # both spans are open at once
        log.exit()

    threads = [threading.Thread(target=work, args=(name,)) for name in ("t0", "t1")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    aggregates = recorder.aggregates()
    for name in ("t0", "t1"):
        calls, total, own = aggregates[name]
        assert calls == 1 and own == pytest.approx(total)


def test_wrapper_hooks_and_undo():
    class Target:
        def work(self, x):
            return x * 2

    original = Target.__dict__["work"]
    recorder = tracer.Recorder()
    patches = tracer.Instrumentation(recorder)
    seen = []
    assert patches.wrap_method(
        Target, "work", "target.work",
        before=lambda args: args[1], after=lambda call, result, duration: seen.append((call[1], result)),
    )
    assert Target().work(3) == 6
    assert seen == [(3, 6)]
    assert recorder.aggregates()["target.work"][0] == 1
    patches.undo()
    assert Target.__dict__["work"] is original
    assert patches.missing() == []
    assert not patches.wrap_method(Target, "absent", "target.absent")
    assert patches.missing(["target.work", "never.tried"]) == ["never.tried", "target.absent"]


def test_every_layer_span_is_installed_on_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    spans = layer_spans()
    assert {"core.semantics.fire", "testing.population.walk", "geometry.clearance.densify"} <= spans
    patches = tracer.instrument(tracer.Recorder())
    try:
        assert patches.missing(spans) == []
    finally:
        patches.undo()


def test_instrument_undo_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.semantics import SemanticsEngine
    from repro.service import client
    from repro.swarm import drone, protocol

    originals = (SemanticsEngine._fire_ordered, protocol.dumps, drone.post_json)
    patches = tracer.instrument(tracer.Recorder())
    assert SemanticsEngine._fire_ordered is not originals[0]
    assert drone.post_json is not originals[2]
    assert client.post_json is originals[2]  # the client's HTTP is its own layer
    patches.undo()
    assert (SemanticsEngine._fire_ordered, protocol.dumps, drone.post_json) == originals


# --------------------------------------------------------------------------- #
# timings at reference speed
# --------------------------------------------------------------------------- #
def test_windows_are_rescaled_by_the_reference_read_before_them():
    nominal = measure.REFERENCE_NOMINAL_S
    slow = workloads.Window(2.0, 100, 50.0, 2 * nominal, [0.02] * 40)  # host at half speed
    fast = workloads.Window(1.0, 100, 50.0, nominal, [0.01] * 40)
    assert at_reference_speed(2.0, 2 * nominal) == pytest.approx(1.0)
    values = end_to_end([workloads.OpResult(host_s=3.0, windows=[slow, fast])], [(0.4, 2 * nominal)])
    assert values["exec_per_s"] == pytest.approx(100.0)
    assert values["sim_rtf"] == pytest.approx(50.0)
    assert values["latency_p50_ms"] == pytest.approx(10.0)
    assert values["latency_tail_ms"] == pytest.approx(10.0)
    assert values["setup_s"] == pytest.approx(0.2)


# --------------------------------------------------------------------------- #
# digests and seeds
# --------------------------------------------------------------------------- #
def test_digest_is_stable_and_exact():
    record = {"mission_time": 109.5, "goals_visited": 14, "min_clearance": 0.1 + 0.2}
    assert measure.digest(record) == measure.digest(dict(reversed(list(record.items()))))
    assert measure.digest(record) == "016db94c6e786e4c"
    nudged = dict(record, min_clearance=0.3)
    assert measure.digest(nudged) != measure.digest(record)  # floats compare by repr


def test_derived_seeds_are_deterministic_and_distinct():
    first = [measure.derive_seed(1, "sweep", k) for k in range(8)]
    assert first == [measure.derive_seed(1, "sweep", k) for k in range(8)]
    assert len(set(first)) == len(first)
    assert first != [measure.derive_seed(2, "sweep", k) for k in range(8)]
    assert measure.derive_seed(1, "sweep", 0) != measure.derive_seed(1, "mission", 0)


@pytest.mark.parametrize("name", workloads.names())
def test_workload_inputs_follow_the_seed(name):
    def inputs(seed):
        workload = workloads.build(name, seed)
        if isinstance(workload, workloads.MissionCity):
            return [workload.mission_seed(k) for k in range(6)]
        if isinstance(workload, workloads.Sweep):
            return list(workload.sweep_seeds)
        return list(workload.mission_seeds)

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


# --------------------------------------------------------------------------- #
# BENCHMARK.json agrees with the code, and the command refuses to run alone
# --------------------------------------------------------------------------- #
def test_manifest_matches_the_benchmark():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == workloads.names()
    for entry in manifest["workloads"]:
        assert entry["why"] == workloads.build(entry["name"], 0).why
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]] == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mission-city",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
