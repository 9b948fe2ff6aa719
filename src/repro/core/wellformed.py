"""Well-formedness checking of RTA modules (Section III-C of the paper).

A module ``(N_ac, N_sc, N_dm, Δ, φ_safe, φ_safer)`` is *well-formed* when:

* **P1a** — the DM runs every Δ and the AC/SC run at least that fast;
* **P1b** — the AC and SC publish on exactly the same output topics;
* **P2a** — (safety of SC) from φ_safe, the closed loop under SC stays in
  φ_safe forever;
* **P2b** — (liveness of SC) from φ_safe, the closed loop under SC
  eventually stays in φ_safer for at least Δ;
* **P3** — from φ_safer, *any* controller keeps the system in φ_safe for
  2Δ.

P1a/P1b are purely structural.  P2a/P2b/P3 are semantic obligations that
the paper discharges with external verification tools; here each module
may carry an analytic :class:`~repro.core.module.ModuleCertificate`
(produced e.g. by the FaSTrack-style synthesis in
:mod:`repro.reachability.fastrack`), and/or the checker validates the
obligations by sampling-based falsification against a closed-loop model of
the plant.  A falsification pass is *evidence*, not proof — the report
records which kind of evidence each check used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Protocol, Sequence

from .decision import DecisionModule
from .errors import WellFormednessError
from .module import RTAModuleSpec


class ClosedLoopModel(Protocol):
    """The plant-facing hooks the falsification-based checks require.

    The monitored state type is opaque to the checker; only the module's
    predicates and these hooks interpret it.

    These four scalar hooks are the protocol minimum, and a model that
    provides only them runs the scalar oracle.  A model may additionally
    provide the vectorised hooks below; the checker routes a check
    through them whenever the model has every hook the check needs, so N
    samples × T rollout steps collapse into a handful of array calls.
    Vectorised hooks must agree with their scalar counterparts sample for
    sample: ``sample_*_batch(n)`` draws the same states as *n* scalar
    calls (same RNG stream), and the flags and reachability verdicts
    equal the scalar predicates on the same (bit-identical) trajectories,
    so every check, run from the same sampler state, returns the same
    verdict and detail on either plane.

    One caveat on *sequences* of checks sharing a sampler: when a check
    **fails**, the scalar loop stops drawing at the failing sample while
    the vectorised plane has already drawn its whole chunk (up to
    :data:`BATCH_CHUNK` samples), so a later check continues the shared
    RNG stream from a different position than it would under the scalar
    oracle.  Passing checks consume exactly ``samples`` draws on both
    planes.
    """

    def sample_safe_state(self) -> Any:
        """A random monitored state inside φ_safe."""

    def sample_safer_state(self) -> Any:
        """A random monitored state inside φ_safer."""

    def rollout_under_safe_controller(self, state: Any, duration: float) -> Sequence[Any]:
        """Monitored states visited when the SC alone controls the plant."""

    def worst_case_stays_safe(self, state: Any, horizon: float) -> bool:
        """True if Reach(state, *, horizon) ⊆ φ_safe (sound over-approximation).

        Optional vectorised hooks (all, when present, must agree sample
        for sample with the scalar paths above):

        * ``rollout_safe_flags_batch(count, duration)`` /
          ``rollout_safer_flags_batch(count, duration)`` (P2a / P2b)
          — draw ``count`` φ_safe starts, roll all of them out, and return
          ``(starts, flags)`` where ``flags[i][t]`` is the module's
          φ_safe / φ_safer verdict on visited state ``t`` of sample ``i``.
          The whole pass stays in structure-of-arrays form (no per-state
          objects);
        * ``sample_safer_state_batch(count)`` and
          ``worst_case_stays_safe_batch(states, horizon)`` (P3) —
          ``count`` φ_safer states from the same RNG stream as ``count``
          scalar draws, and one verdict per state.
        """


#: The vectorised P2a/P2b checks process samples in chunks of this size:
#: a check that fails on an early sample stops after its chunk instead of
#: paying for every remaining rollout (the analogue of the scalar loop's
#: early exit), while passing checks still amortise the whole pass over
#: ``samples / BATCH_CHUNK`` vectorised calls.
BATCH_CHUNK = 128


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single well-formedness check."""

    name: str
    passed: bool
    evidence: str
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.evidence}): {self.detail}"


@dataclass
class WellFormednessReport:
    """Aggregated results of all checks for one module."""

    module_name: str
    results: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> List[CheckResult]:
        return [result for result in self.results if not result.passed]

    def result_for(self, name: str) -> CheckResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(f"no check named {name!r} in the report")

    def summary(self) -> str:
        lines = [f"well-formedness report for module {self.module_name!r}:"]
        lines.extend(f"  {result}" for result in self.results)
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.passed:
            failed = ", ".join(result.name for result in self.failures)
            raise WellFormednessError(
                f"module {self.module_name!r} is not well-formed; failed checks: {failed}\n"
                + self.summary()
            )


@dataclass
class CheckerOptions:
    """Tunables for the sampling-based checks."""

    samples: int = 20
    p2a_horizon: float = 20.0
    p2b_max_time: float = 30.0
    trust_certificates: bool = True

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("at least one sample is required")
        if self.p2a_horizon <= 0.0 or self.p2b_max_time <= 0.0:
            raise ValueError("check horizons must be positive")


class WellFormednessChecker:
    """Checks the well-formedness conditions of Section III-C."""

    def __init__(
        self,
        closed_loop: Optional[ClosedLoopModel] = None,
        options: Optional[CheckerOptions] = None,
    ) -> None:
        self.closed_loop = closed_loop
        self.options = options or CheckerOptions()

    def _provides(self, *hooks: str) -> bool:
        """True when the closed-loop model provides every vectorised hook."""
        return all(callable(getattr(self.closed_loop, hook, None)) for hook in hooks)

    # ------------------------------------------------------------------ #
    # structural checks
    # ------------------------------------------------------------------ #
    def check_p1a(self, spec: RTAModuleSpec, decision: Optional[DecisionModule] = None) -> CheckResult:
        """P1a: δ(N_dm) = Δ, δ(N_ac) ≤ Δ and δ(N_sc) ≤ Δ."""
        problems = []
        if spec.advanced.period > spec.delta + 1e-12:
            problems.append(
                f"AC period {spec.advanced.period} exceeds Δ={spec.delta}"
            )
        if spec.safe.period > spec.delta + 1e-12:
            problems.append(f"SC period {spec.safe.period} exceeds Δ={spec.delta}")
        if decision is not None and abs(decision.period - spec.delta) > 1e-12:
            problems.append(
                f"DM period {decision.period} differs from Δ={spec.delta}"
            )
        return CheckResult(
            name="P1a",
            passed=not problems,
            evidence="structural",
            detail="; ".join(problems) if problems else "periods respect Δ",
        )

    def check_p1b(self, spec: RTAModuleSpec) -> CheckResult:
        """P1b: O(N_ac) = O(N_sc)."""
        ac_out = set(spec.advanced.publishes)
        sc_out = set(spec.safe.publishes)
        passed = ac_out == sc_out and len(ac_out) > 0
        if not ac_out:
            detail = "the AC/SC publish no topics, so the DM has nothing to arbitrate"
        elif passed:
            detail = f"both publish {sorted(ac_out)}"
        else:
            detail = f"AC publishes {sorted(ac_out)} but SC publishes {sorted(sc_out)}"
        return CheckResult(name="P1b", passed=passed, evidence="structural", detail=detail)

    # ------------------------------------------------------------------ #
    # semantic checks (certificate or falsification)
    # ------------------------------------------------------------------ #
    def check_p2a(self, spec: RTAModuleSpec) -> CheckResult:
        """P2a: Reach(φ_safe, N_sc, ∞) ⊆ φ_safe."""
        if self.options.trust_certificates and spec.certificate and spec.certificate.proves_p2a:
            return CheckResult(
                name="P2a", passed=True, evidence="certificate",
                detail=spec.certificate.p2a_justification,
            )
        if self.closed_loop is None:
            return CheckResult(
                name="P2a", passed=False, evidence="missing",
                detail="no certificate and no closed-loop model supplied",
            )
        if self._provides("rollout_safe_flags_batch"):
            return self._check_p2a_flags(spec)
        for index in range(self.options.samples):
            start = self.closed_loop.sample_safe_state()
            visited = self.closed_loop.rollout_under_safe_controller(
                start, self.options.p2a_horizon
            )
            for state in visited:
                if not spec.safe_spec.contains(state):
                    return CheckResult(
                        name="P2a", passed=False, evidence="falsification",
                        detail=f"sample {index}: SC left φ_safe from {start!r}",
                    )
        return CheckResult(
            name="P2a", passed=True, evidence="falsification",
            detail=f"{self.options.samples} rollouts of {self.options.p2a_horizon}s stayed in φ_safe",
        )

    def _chunk_sizes(self) -> List[int]:
        """The sample counts of each flags-plane chunk (sums to ``samples``)."""
        remaining = self.options.samples
        sizes = []
        while remaining > 0:
            sizes.append(min(BATCH_CHUNK, remaining))
            remaining -= sizes[-1]
        return sizes

    def _check_p2a_flags(self, spec: RTAModuleSpec) -> CheckResult:
        """P2a entirely on the structure-of-arrays plane (no per-state objects).

        The closed-loop model rolls each chunk of samples out as one state
        matrix and evaluates the module's φ_safe verdicts with one
        vectorised query; the returned flags are, by the hook's contract,
        equal to mapping ``spec.safe_spec.contains`` over the scalar
        rollouts, and chunking preserves the sampler stream and the
        first-failing-sample detail.
        """
        assert self.closed_loop is not None
        samples = self.options.samples
        offset = 0
        for size in self._chunk_sizes():
            starts, flags = self.closed_loop.rollout_safe_flags_batch(
                size, self.options.p2a_horizon
            )
            for index, sample_flags in enumerate(flags):
                ok = sample_flags.all() if hasattr(sample_flags, "all") else all(sample_flags)
                if not ok:
                    return CheckResult(
                        name="P2a", passed=False, evidence="falsification",
                        detail=f"sample {offset + index}: SC left φ_safe from {starts[index]!r}",
                    )
            offset += size
        return CheckResult(
            name="P2a", passed=True, evidence="falsification",
            detail=f"{samples} rollouts of {self.options.p2a_horizon}s stayed in φ_safe",
        )

    def check_p2b(self, spec: RTAModuleSpec) -> CheckResult:
        """P2b: from φ_safe the SC eventually keeps the system in φ_safer for ≥ Δ."""
        if self.options.trust_certificates and spec.certificate and spec.certificate.proves_p2b:
            return CheckResult(
                name="P2b", passed=True, evidence="certificate",
                detail=spec.certificate.p2b_justification,
            )
        if self.closed_loop is None:
            return CheckResult(
                name="P2b", passed=False, evidence="missing",
                detail="no certificate and no closed-loop model supplied",
            )
        if self._provides("rollout_safer_flags_batch"):
            return self._check_p2b_flags(spec)
        for index in range(self.options.samples):
            start = self.closed_loop.sample_safe_state()
            visited = self.closed_loop.rollout_under_safe_controller(start, self.options.p2b_max_time)
            flags = [spec.safer_spec.contains(state) for state in visited]
            if not flags:
                return CheckResult(
                    name="P2b", passed=False, evidence="falsification",
                    detail=f"sample {index}: empty rollout",
                )
            if not self._flags_reach_safer_window(spec, flags):
                return CheckResult(
                    name="P2b", passed=False, evidence="falsification",
                    detail=(
                        f"sample {index}: SC did not reach a φ_safer-invariant window "
                        f"within {self.options.p2b_max_time}s from {start!r}"
                    ),
                )
        return CheckResult(
            name="P2b", passed=True, evidence="falsification",
            detail=f"{self.options.samples} rollouts reached φ_safer and stayed ≥ Δ",
        )

    def _check_p2b_flags(self, spec: RTAModuleSpec) -> CheckResult:
        """P2b entirely on the structure-of-arrays plane (no per-state objects)."""
        assert self.closed_loop is not None
        samples = self.options.samples
        offset = 0
        for size in self._chunk_sizes():
            starts, flags = self.closed_loop.rollout_safer_flags_batch(
                size, self.options.p2b_max_time
            )
            for index, sample_flags in enumerate(flags):
                sample_flags = list(sample_flags)
                if not sample_flags:
                    return CheckResult(
                        name="P2b", passed=False, evidence="falsification",
                        detail=f"sample {offset + index}: empty rollout",
                    )
                if not self._flags_reach_safer_window(spec, sample_flags):
                    return CheckResult(
                        name="P2b", passed=False, evidence="falsification",
                        detail=(
                            f"sample {offset + index}: SC did not reach a φ_safer-invariant window "
                            f"within {self.options.p2b_max_time}s from {starts[index]!r}"
                        ),
                    )
            offset += size
        return CheckResult(
            name="P2b", passed=True, evidence="falsification",
            detail=f"{samples} rollouts reached φ_safer and stayed ≥ Δ",
        )

    def _flags_reach_safer_window(self, spec: RTAModuleSpec, flags: Sequence[bool]) -> bool:
        """True if some window of length ≥ Δ has every φ_safer verdict true.

        ``flags`` are the φ_safer verdicts of one rollout's visited states,
        evenly spaced over ``p2b_max_time``.
        """
        if len(flags) < 2:
            return bool(flags[0])
        total = self.options.p2b_max_time
        dt = total / (len(flags) - 1)
        window = max(1, int(round(spec.delta / dt)))
        run = 0
        for ok in flags:
            if ok:
                run += 1
                if run >= window:
                    return True
            else:
                run = 0
        return False

    def check_p3(self, spec: RTAModuleSpec) -> CheckResult:
        """P3: Reach(φ_safer, *, 2Δ) ⊆ φ_safe."""
        if self.options.trust_certificates and spec.certificate and spec.certificate.proves_p3:
            return CheckResult(
                name="P3", passed=True, evidence="certificate",
                detail=spec.certificate.p3_justification,
            )
        if self.closed_loop is None:
            return CheckResult(
                name="P3", passed=False, evidence="missing",
                detail="no certificate and no closed-loop model supplied",
            )
        horizon = 2.0 * spec.delta
        if self._provides("sample_safer_state_batch", "worst_case_stays_safe_batch"):
            states = list(self.closed_loop.sample_safer_state_batch(self.options.samples))
            verdicts = self.closed_loop.worst_case_stays_safe_batch(states, horizon)
            for index, stays_safe in enumerate(verdicts):
                if not stays_safe:
                    return CheckResult(
                        name="P3", passed=False, evidence="falsification",
                        detail=f"sample {index}: Reach(s, *, 2Δ) escapes φ_safe from {states[index]!r}",
                    )
            return CheckResult(
                name="P3", passed=True, evidence="falsification",
                detail=f"{self.options.samples} sampled φ_safer states stay safe for 2Δ",
            )
        for index in range(self.options.samples):
            state = self.closed_loop.sample_safer_state()
            if not self.closed_loop.worst_case_stays_safe(state, horizon):
                return CheckResult(
                    name="P3", passed=False, evidence="falsification",
                    detail=f"sample {index}: Reach(s, *, 2Δ) escapes φ_safe from {state!r}",
                )
        return CheckResult(
            name="P3", passed=True, evidence="falsification",
            detail=f"{self.options.samples} sampled φ_safer states stay safe for 2Δ",
        )

    def check_ttf_consistency(self, spec: RTAModuleSpec) -> CheckResult:
        """φ_safer states must not trigger ttf_2Δ (otherwise the DM would oscillate)."""
        if self.closed_loop is None:
            return CheckResult(
                name="ttf-consistency", passed=True, evidence="skipped",
                detail="no closed-loop model supplied",
            )
        for index in range(self.options.samples):
            state = self.closed_loop.sample_safer_state()
            if spec.ttf(state):
                return CheckResult(
                    name="ttf-consistency", passed=False, evidence="falsification",
                    detail=f"sample {index}: ttf_2Δ holds inside φ_safer at {state!r}",
                )
        return CheckResult(
            name="ttf-consistency", passed=True, evidence="falsification",
            detail="ttf_2Δ is false on all sampled φ_safer states",
        )

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #
    def check(
        self, spec: RTAModuleSpec, decision: Optional[DecisionModule] = None
    ) -> WellFormednessReport:
        """Run every check and return the aggregated report."""
        report = WellFormednessReport(module_name=spec.name)
        report.results.append(self.check_p1a(spec, decision))
        report.results.append(self.check_p1b(spec))
        report.results.append(self.check_p2a(spec))
        report.results.append(self.check_p2b(spec))
        report.results.append(self.check_p3(spec))
        report.results.append(self.check_ttf_consistency(spec))
        return report


def structural_report(spec: RTAModuleSpec, decision: Optional[DecisionModule] = None) -> WellFormednessReport:
    """Run only the structural checks (P1a, P1b); used by the compiler's fast path."""
    checker = WellFormednessChecker(closed_loop=None)
    report = WellFormednessReport(module_name=spec.name)
    report.results.append(checker.check_p1a(spec, decision))
    report.results.append(checker.check_p1b(spec))
    return report
