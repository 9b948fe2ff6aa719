"""Vectorised well-formedness falsification: identical to the scalar oracle.

The checker's vectorised plane (structure-of-arrays rollouts, one-shot
reachability, flag-level φ verdicts) must reproduce the scalar loops
exactly: the same sampled states, bit-identical rollout trajectories, and
the same check verdicts and failure details.  The checker picks the plane
from the hooks the model provides, so the scalar oracle runs on
:func:`scalar_view` of the same model.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.modules import DroneClosedLoopModel, build_safe_motion_primitive
from repro.control import AggressiveTracker
from repro.core import CheckerOptions, WellFormednessChecker
from repro.core import wellformed
from repro.dynamics import BoundedDoubleIntegrator, DoubleIntegratorParams
from repro.simulation import surveillance_city

SEED = 5


def scalar_view(model):
    """Only the four scalar ``ClosedLoopModel`` hooks: the checker's scalar oracle."""
    return SimpleNamespace(
        sample_safe_state=model.sample_safe_state,
        sample_safer_state=model.sample_safer_state,
        rollout_under_safe_controller=model.rollout_under_safe_controller,
        worst_case_stays_safe=model.worst_case_stays_safe,
    )


@pytest.fixture(scope="module")
def drone_setup():
    world = surveillance_city()
    model = BoundedDoubleIntegrator(
        DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0)
    )
    module = build_safe_motion_primitive(world.workspace, model, AggressiveTracker())
    return world, model, module


def _fresh_model(drone_setup):
    world, model, module = drone_setup
    return DroneClosedLoopModel(module, model, world.workspace, seed=SEED)


def _checker(drone_setup, scalar, samples=6, horizon=3.0):
    options = CheckerOptions(
        samples=samples,
        p2a_horizon=horizon,
        p2b_max_time=horizon,
        trust_certificates=False,
    )
    model = _fresh_model(drone_setup)
    return WellFormednessChecker(scalar_view(model) if scalar else model, options)


def _verdict(result):
    return (result.name, result.passed, result.evidence, result.detail)


class TestSamplerStreamEquivalence:
    def test_batch_sampling_matches_repeated_scalar_draws(self, drone_setup):
        scalar_model = _fresh_model(drone_setup)
        batch_model = _fresh_model(drone_setup)
        scalar = [scalar_model.sample_safe_state() for _ in range(8)]
        batch = batch_model.sample_safe_state_batch(8)
        assert [s.as_tuple() for s in scalar] == [s.as_tuple() for s in batch]
        scalar_safer = [scalar_model.sample_safer_state() for _ in range(8)]
        batch_safer = batch_model.sample_safer_state_batch(8)
        assert [s.as_tuple() for s in scalar_safer] == [s.as_tuple() for s in batch_safer]


class TestRolloutEquivalence:
    def test_batched_rollout_positions_are_bit_identical(self, drone_setup):
        model = _fresh_model(drone_setup)
        starts = model.sample_safe_state_batch(5)
        scalar = [model.rollout_under_safe_controller(s, 2.0) for s in starts]
        batch = model._rollout_positions_batch(starts, 2.0)  # (T+1, N, 3)
        assert batch.shape[:2] == (len(scalar[0]), len(starts))
        for index, scalar_traj in enumerate(scalar):
            positions = [state.position.as_tuple() for state in scalar_traj]
            assert positions == [tuple(row) for row in batch[:, index].tolist()]

    def test_flag_rollouts_match_scalar_predicates(self, drone_setup):
        world, model, module = drone_setup
        flag_model = _fresh_model(drone_setup)
        scalar_model = _fresh_model(drone_setup)
        starts, flags = flag_model.rollout_safe_flags_batch(4, 2.0)
        scalar_starts = [scalar_model.sample_safe_state() for _ in range(4)]
        assert [s.as_tuple() for s in starts] == [s.as_tuple() for s in scalar_starts]
        for start, sample_flags in zip(scalar_starts, flags):
            visited = scalar_model.rollout_under_safe_controller(start, 2.0)
            expected = [module.spec.safe_spec.contains(state) for state in visited]
            assert [bool(f) for f in sample_flags] == expected

    def test_worst_case_batch_matches_scalar(self, drone_setup):
        model = _fresh_model(drone_setup)
        states = model.sample_safer_state_batch(16)
        batch = model.worst_case_stays_safe_batch(states, 0.2)
        scalar = [model.worst_case_stays_safe(state, 0.2) for state in states]
        assert [bool(b) for b in batch] == scalar


class TestCheckerEquivalence:
    @pytest.mark.parametrize("check", ["check_p2a", "check_p2b", "check_p3"])
    def test_batch_and_scalar_checks_agree(self, drone_setup, check):
        _, _, module = drone_setup
        scalar = getattr(_checker(drone_setup, scalar=True), check)(module.spec)
        batch = getattr(_checker(drone_setup, scalar=False), check)(module.spec)
        assert _verdict(scalar) == _verdict(batch)

    def test_p3_verdict_and_failure_detail_identical(self, drone_setup):
        """Force a P3 failure: a 2Δ horizon long enough to escape φ_safe."""
        import dataclasses

        _, _, module = drone_setup
        # A spec twin with a huge Δ makes Reach(s, *, 2Δ) escape for some
        # sample, exercising the failing branch of both planes.
        wide = dataclasses.replace(module.spec, delta=3.0)
        results = {}
        for scalar in (True, False):
            model = _fresh_model(drone_setup)
            checker = WellFormednessChecker(
                scalar_view(model) if scalar else model,
                CheckerOptions(samples=40, trust_certificates=False),
            )
            results[scalar] = checker.check_p3(wide)
        assert not results[True].passed
        assert _verdict(results[True]) == _verdict(results[False])

    def test_scalar_fallback_without_batch_hooks(self, drone_setup):
        """Models without batch hooks (the protocol minimum) still work."""
        _, _, module = drone_setup
        checker = WellFormednessChecker(
            scalar_view(_fresh_model(drone_setup)),
            CheckerOptions(samples=3, p2a_horizon=1.0, p2b_max_time=1.0, trust_certificates=False),
        )
        result = checker.check_p2a(module.spec)
        assert result.evidence == "falsification"

    def test_plane_follows_the_hooks_the_model_provides(self, drone_setup):
        _, _, module = drone_setup
        model = _fresh_model(drone_setup)
        calls = {"batch": 0}
        original = model.rollout_safe_flags_batch

        def counting(count, duration):
            calls["batch"] += 1
            return original(count, duration)

        model.rollout_safe_flags_batch = counting
        options = CheckerOptions(
            samples=2, p2a_horizon=0.5, p2b_max_time=0.5, trust_certificates=False
        )
        WellFormednessChecker(scalar_view(model), options).check_p2a(module.spec)
        assert calls["batch"] == 0
        WellFormednessChecker(model, options).check_p2a(module.spec)
        assert calls["batch"] == 1


class TestChunkedFlagsPlane:
    """Samples split over several flags-plane chunks keep the sample offsets."""

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_passing_p2a_over_many_chunks_matches_scalar(self, drone_setup, chunk, monkeypatch):
        _, _, module = drone_setup
        scalar = _checker(drone_setup, scalar=True, samples=40).check_p2a(module.spec)
        model = _fresh_model(drone_setup)
        chunks = []
        original = model.rollout_safe_flags_batch

        def recording(count, duration):
            chunks.append(count)
            return original(count, duration)

        model.rollout_safe_flags_batch = recording
        monkeypatch.setattr(wellformed, "BATCH_CHUNK", chunk)
        options = CheckerOptions(
            samples=40, p2a_horizon=3.0, p2b_max_time=3.0, trust_certificates=False
        )
        batch = WellFormednessChecker(model, options).check_p2a(module.spec)
        assert scalar.passed
        assert _verdict(batch) == _verdict(scalar)
        assert sum(chunks) == 40 and max(chunks) == chunk
