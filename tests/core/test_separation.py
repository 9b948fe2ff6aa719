"""SeparationMonitor and its pairwise-separation kernels.

Mirrors the style of ``tests/geometry/test_batch_equivalence.py``: every
comparison between the scalar pair loop and the batched N² query is an
exact ``==`` — the two planes evaluate the same floating-point
expressions in the same order, so there is nothing to approximate.  The
monitor's per-sample check is held against the batched kernel.
"""

import random

import numpy as np
import pytest

from repro.core import SeparationMonitor
from repro.dynamics import DroneState
from repro.geometry import (
    Vec3,
    min_pairwise_separation,
    pairwise_index_pairs,
    pairwise_separations,
)


def _random_positions(rng, count, spread=30.0):
    return [
        Vec3(rng.uniform(0.0, spread), rng.uniform(0.0, spread), rng.uniform(0.0, 8.0))
        for _ in range(count)
    ]


class FakeEngine:
    """The minimal engine surface monitors read: topics and the clock."""

    def __init__(self):
        self.current_time = 0.0
        self.board = {}

    def read_topic(self, topic):
        return self.board.get(topic)

    def set(self, time, values):
        self.current_time = time
        self.board.update(values)


class TestPairwiseGeometry:
    def test_index_pairs_order(self):
        assert pairwise_index_pairs(3) == [(0, 1), (0, 2), (1, 2)]
        assert pairwise_index_pairs(1) == []
        assert pairwise_index_pairs(0) == []

    @pytest.mark.parametrize("count", [2, 3, 5, 9])
    def test_batched_separations_bit_identical_to_vec3_loop(self, count):
        rng = random.Random(count)
        positions = _random_positions(rng, count)
        batched = pairwise_separations(np.array([p.as_tuple() for p in positions]))
        scalar = [positions[i].distance_to(positions[j]) for i, j in pairwise_index_pairs(count)]
        assert batched.tolist() == scalar  # bit-identical, not approximately

    def test_windowed_separations_match_per_sample_queries(self):
        rng = random.Random(7)
        window = np.array(
            [[p.as_tuple() for p in _random_positions(rng, 4)] for _ in range(16)]
        )
        whole = pairwise_separations(window)
        per_sample = np.array([pairwise_separations(sample) for sample in window])
        assert whole.tolist() == per_sample.tolist()

    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_min_pairwise_matches_argmin_of_batch(self, count):
        rng = random.Random(count + 100)
        for _ in range(20):
            positions = _random_positions(rng, count)
            distance, pair = min_pairwise_separation(positions)
            condensed = pairwise_separations(np.array([p.as_tuple() for p in positions]))
            k = int(condensed.argmin())
            assert pairwise_index_pairs(count)[k] == pair
            assert condensed[k] == distance

    def test_min_pairwise_requires_two_positions(self):
        with pytest.raises(ValueError):
            min_pairwise_separation([Vec3(0.0, 0.0, 0.0)])


def _run_scalar(monitor, samples):
    engine = FakeEngine()
    violations = []
    for time, values in samples:
        engine.set(time, values)
        violation = monitor.check(engine)
        if violation is not None:
            violations.append(violation)
    return violations


def _kernel_violations(topics, samples, min_separation):
    """(time, offending pair, distance) per violating sample, via the batched kernel."""
    stacked = np.array(
        [[values[topic].position.as_tuple() for topic in topics] for _, values in samples]
    )
    separations = pairwise_separations(stacked)  # (S, P)
    worst = separations.argmin(axis=1)
    pairs = pairwise_index_pairs(len(topics))
    return [
        (time, pairs[int(k)], float(separations[row, k]))
        for row, ((time, _), k) in enumerate(zip(samples, worst))
        if separations[row, k] < min_separation
    ]


def _random_fleet_samples(rng, topics, steps, conflict_probability=0.4):
    """A randomized window; close pairs appear with the given probability."""
    samples = []
    for step in range(steps):
        positions = _random_positions(rng, len(topics))
        if rng.random() < conflict_probability:
            # Drag two random vehicles within a metre of each other.
            i, j = rng.sample(range(len(topics)), 2)
            positions[j] = positions[i] + Vec3(rng.uniform(0, 0.7), rng.uniform(0, 0.7), 0.0)
        samples.append(
            (
                0.25 * step,
                {
                    topic: DroneState(position=position)
                    for topic, position in zip(topics, positions)
                },
            )
        )
    return samples


class TestSeparationMonitorEquivalence:
    @pytest.mark.parametrize("fleet_size", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_sample_checks_match_the_batched_kernel(self, fleet_size, seed):
        topics = [f"drone{i}/localPosition" for i in range(fleet_size)]
        rng = random.Random(1000 * fleet_size + seed)
        samples = _random_fleet_samples(rng, topics, steps=40)
        checked = _run_scalar(SeparationMonitor(topics, min_separation=2.0), samples)
        expected = _kernel_violations(topics, samples, 2.0)
        assert [v.time for v in checked] == [time for time, _, _ in expected]
        for violation, (_, (i, j), distance) in zip(checked, expected):
            assert f"{topics[i]!r}<->{topics[j]!r} is {distance:.3f} m" in violation.message
        # The randomized fleets must actually produce violations to compare.
        assert checked

    def test_offending_pair_and_states_match(self):
        topics = ["a/pos", "b/pos", "c/pos"]
        close_b = DroneState(position=Vec3(10.0, 10.0, 2.0))
        close_c = DroneState(position=Vec3(10.5, 10.0, 2.0))
        far_a = DroneState(position=Vec3(0.0, 0.0, 2.0))
        samples = [(0.5, {"a/pos": far_a, "b/pos": close_b, "c/pos": close_c})]
        (violation,) = _run_scalar(SeparationMonitor(topics, min_separation=2.0), samples)
        assert "'b/pos'<->'c/pos'" in violation.message
        assert violation.state == (close_b, close_c)

    def test_missing_topics_skip_the_sample(self):
        topics = ["a/pos", "b/pos"]
        on_top = DroneState(position=Vec3(5.0, 5.0, 2.0))
        samples = [
            (0.0, {"a/pos": on_top}),  # b missing: skipped even though a is set
            (0.5, {"a/pos": on_top, "b/pos": on_top}),  # both present: violation
        ]
        (violation,) = _run_scalar(SeparationMonitor(topics, 2.0), samples)
        assert violation.time == 0.5

    def test_reset_forgets_violations(self):
        topics = ["a/pos", "b/pos"]
        on_top = DroneState(position=Vec3(5.0, 5.0, 2.0))
        monitor = SeparationMonitor(topics, 2.0)
        engine = FakeEngine()
        engine.set(1.0, {"a/pos": on_top, "b/pos": on_top})
        monitor.check(engine)
        assert monitor.result.count == 1
        monitor.reset()
        assert monitor.result.ok

    def test_raw_vec3_payloads_are_supported(self):
        monitor = SeparationMonitor(["a", "b"], 2.0)
        engine = FakeEngine()
        engine.set(0.0, {"a": Vec3(0.0, 0.0, 0.0), "b": Vec3(0.5, 0.0, 0.0)})
        violation = monitor.check(engine)
        assert violation is not None and "0.500 m" in violation.message

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SeparationMonitor(["only"], 2.0)
        with pytest.raises(ValueError):
            SeparationMonitor(["a", "a"], 2.0)
        with pytest.raises(ValueError):
            SeparationMonitor(["a", "b"], 0.0)
