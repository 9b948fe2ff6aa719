"""Regression pin for the P2b near-corner finding (ROADMAP, PR 3).

The vectorised falsification plane surfaced that the PD-repulsion safe
tracker fails P2b from some sampled starts in the 9-building city: near
walls/corners it equilibrates *just below* the φ_safer clearance instead
of recovering past it, and both the scalar oracle and the vectorised
plane agree on the verdict.  This test pins that exact finding — the failing sample
index, the agreement between planes, and the φ_safer threshold the
recovery stalls under — so that any change to the SC recovery law or to
the φ_safer margin shows up as an explicit, intentional test update
rather than a silent behaviour shift.

If you *fixed* the recovery law (P2b now passes): congratulations — delete
this pin, update the ROADMAP item, and add the passing verdict to the
well-formedness tests instead.
"""

import pytest

from repro.apps.modules import DroneClosedLoopModel, build_safe_motion_primitive
from repro.control import AggressiveTracker
from repro.core import CheckerOptions, WellFormednessChecker
from repro.core import wellformed
from repro.dynamics import BoundedDoubleIntegrator, DoubleIntegratorParams
from repro.simulation import surveillance_city

from .test_wellformed_batch import scalar_view

#: The exact falsification configuration the benchmark/ROADMAP finding used
#: (seed 5, 6 s rollouts); 8 samples suffice because the failing start is
#: sample 2 of the stream.
SEED = 5
HORIZON = 6.0
SAMPLES = 8
FAILING_SAMPLE = 2


@pytest.fixture(scope="module")
def harness():
    world = surveillance_city()
    model = BoundedDoubleIntegrator(
        DoubleIntegratorParams(max_speed=4.0, max_acceleration=6.0)
    )
    module = build_safe_motion_primitive(world.workspace, model, AggressiveTracker())
    return world, model, module


def _check_p2b(world, model, module, scalar):
    closed_loop = DroneClosedLoopModel(module, model, world.workspace, seed=SEED)
    checker = WellFormednessChecker(
        scalar_view(closed_loop) if scalar else closed_loop,
        CheckerOptions(
            samples=SAMPLES,
            p2a_horizon=HORIZON,
            p2b_max_time=HORIZON,
            trust_certificates=False,
        ),
    )
    return checker, closed_loop, checker.check_p2b(module.spec)


class TestP2bNearCornerRegression:
    def test_phi_safer_threshold_is_pinned(self, harness):
        # The margin P2b recovery must clear.  Changing safer_extra_margin,
        # the reachability bound, or the hysteresis radius moves this and
        # must be a conscious decision.
        _, _, module = harness
        assert module.safer_clearance == pytest.approx(2.8333333333333333, abs=1e-12)

    @pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "batched"])
    def test_p2b_falsified_at_the_known_sample(self, harness, scalar):
        world, model, module = harness
        _, _, result = _check_p2b(world, model, module, scalar)
        assert not result.passed
        assert result.evidence == "falsification"
        assert f"sample {FAILING_SAMPLE}:" in result.detail
        assert "φ_safer-invariant window" in result.detail

    def test_both_planes_agree_verbatim(self, harness):
        world, model, module = harness
        _, _, scalar = _check_p2b(world, model, module, scalar=True)
        _, _, batched = _check_p2b(world, model, module, scalar=False)
        assert (scalar.passed, scalar.evidence, scalar.detail) == (
            batched.passed,
            batched.evidence,
            batched.detail,
        )

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_pin_holds_across_several_chunks(self, harness, chunk, monkeypatch):
        # Sample 2 lies in the third chunk of size 1 and the first of size
        # 3; the failing sample index must count across chunk boundaries.
        world, model, module = harness
        _, _, scalar = _check_p2b(world, model, module, scalar=True)
        monkeypatch.setattr(wellformed, "BATCH_CHUNK", chunk)
        _, _, batched = _check_p2b(world, model, module, scalar=False)
        assert f"sample {FAILING_SAMPLE}:" in batched.detail
        assert (batched.passed, batched.evidence, batched.detail) == (
            scalar.passed,
            scalar.evidence,
            scalar.detail,
        )

    def test_recovery_equilibrates_just_below_phi_safer(self, harness):
        # The mechanism behind the finding: from the failing start the SC
        # rollout ends with positive clearance (it is safe — P2a holds) but
        # below the φ_safer threshold (it never recovers past it).
        world, model, module = harness
        checker, closed_loop, result = _check_p2b(world, model, module, scalar=True)
        # Re-draw the same sampler stream to recover the failing start.
        fresh = DroneClosedLoopModel(module, model, world.workspace, seed=SEED)
        starts = fresh.sample_safe_state_batch(FAILING_SAMPLE + 1)
        failing_start = starts[FAILING_SAMPLE]
        assert repr(failing_start) in result.detail
        visited = fresh.rollout_under_safe_controller(failing_start, HORIZON)
        final_clearance = world.workspace.clearance(visited[-1].position)
        assert 0.0 < final_clearance < module.safer_clearance

    def test_p2a_and_p3_still_pass_under_falsification(self, harness):
        # The finding is P2b-specific: safety (P2a) and the 2Δ guarantee
        # (P3) hold from the same sampler configuration.
        world, model, module = harness
        closed_loop = DroneClosedLoopModel(module, model, world.workspace, seed=SEED)
        checker = WellFormednessChecker(
            closed_loop,
            CheckerOptions(
                samples=SAMPLES,
                p2a_horizon=HORIZON,
                p2b_max_time=HORIZON,
                trust_certificates=False,
            ),
        )
        assert checker.check_p2a(module.spec).passed
        assert checker.check_p3(module.spec).passed
