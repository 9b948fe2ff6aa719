"""The RTA resilience harness: sweep a fault space, assert the SOTER guarantee.

The paper's headline claim (Section V) is not "the stack never fails" but
"the RTA-protected stack stays inside φ even when the untrusted components
fail" — a *differential* property over an explicit fault space.  This
module turns that claim into a regression-gated assertion:

1. **Protected sweep.** Exhaustively enumerate every combination of the
   scenario's fault choice points (the :class:`~repro.runtime.faults.FaultPlan`
   windows and kinds, lifted into the choice trail) on the protected stack
   and assert **zero** monitor violations.  The sweep must actually
   exhaust the space within the budget — a truncated sweep proves
   nothing, so truncation is a harness error, not a pass.
2. **Vacuity check.** Run the same sweep on the *unprotected* twin and
   require at least one counterexample.  Faults that no stack can be hurt
   by are vacuous; this leg proves the fault space has teeth.
3. **Confirmation.** Replay the unprotected counterexample's trail
   through :class:`~repro.testing.strategies.ReplayStrategy` and require
   the identical violation sequence (times, monitors, messages) — the
   counterexample is a reproducible execution, not a flake.

Use :func:`assert_rta_resilient` from tests; it raises
:class:`ResilienceError` (an ``AssertionError`` subclass, so plain pytest
semantics apply) with a diagnostic summary on any failed leg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .explorer import ExecutionRecord, ModelInstance, SystematicTester, TestReport
from .strategies import ExhaustiveStrategy


class ResilienceError(AssertionError):
    """The SOTER guarantee (or the harness's own soundness check) failed."""


@dataclass
class ResilienceReport:
    """Outcome of one resilience sweep (both legs plus the confirmation).

    ``unprotected`` and ``counterexample`` are ``None`` when the harness
    was run without an unprotected twin (protected leg only).
    """

    __test__ = False

    protected: TestReport
    unprotected: Optional[TestReport] = None
    counterexample: Optional[ExecutionRecord] = None
    confirmed: bool = False

    def summary(self) -> str:
        lines = [
            "resilience sweep:",
            f"  protected:   {self.protected.execution_count} execution(s), "
            f"{self.protected.total_violations} violation(s)",
        ]
        if self.unprotected is not None:
            lines.append(
                f"  unprotected: {self.unprotected.execution_count} execution(s), "
                f"{len(self.unprotected.failing)} failing"
            )
        if self.counterexample is not None:
            status = "replay-confirmed" if self.confirmed else "NOT confirmed"
            lines.append(
                f"  counterexample: execution {self.counterexample.index} "
                f"({len(self.counterexample.violations)} violation(s), {status})"
            )
        return "\n".join(lines)


def _violation_identity(record: ExecutionRecord):
    return [(v.time, v.monitor, v.message) for v in record.violations]


def _exhaustive_sweep(
    factory: Callable[[], ModelInstance],
    max_depth: int,
    max_executions: int,
    max_permuted: int,
    what: str,
) -> tuple[SystematicTester, TestReport]:
    strategy = ExhaustiveStrategy(max_depth=max_depth, max_executions=max_executions)
    tester = SystematicTester(factory, strategy, max_permuted=max_permuted)
    report = tester.explore()
    # The explore loop stops either because the odometer ran dry (every
    # combination enumerated — strictly fewer executions than the budget,
    # or the strategy's own exhausted flag) or because it hit the budget.
    # Only the former counts as an exhaustive sweep.
    exhausted = strategy.is_exhausted or report.execution_count < max_executions
    if not exhausted:
        raise ResilienceError(
            f"the {what} sweep did not exhaust the fault space within "
            f"{max_executions} execution(s) — a truncated sweep proves nothing; "
            f"raise max_executions or shrink the FaultPlan"
        )
    return tester, report


def assert_rta_resilient(
    protected_factory: Callable[[], ModelInstance],
    unprotected_factory: Optional[Callable[[], ModelInstance]] = None,
    *,
    max_depth: int = 64,
    max_executions: int = 4096,
    max_permuted: int = 1,
) -> ResilienceReport:
    """Sweep the fault space; assert the protected stack never violates.

    Args:
        protected_factory: model-instance factory of the RTA-protected
            scenario (its environment should be a
            :class:`~repro.runtime.faults.FaultPlane` so fault choices
            appear in the trail).
        unprotected_factory: the unprotected twin — same fault plan, RTA
            removed.  When given, the harness additionally requires a
            replay-confirmed counterexample from it (the vacuity check).
        max_depth: choice-trail depth bound of the exhaustive odometer.
        max_executions: sweep budget; exceeding it (either leg) raises —
            exhaustiveness is part of the guarantee.
        max_permuted: bounded-asynchrony permutation width.  The default
            of 1 pins firing order so the sweep enumerates *fault*
            choices only; raise it to cross faults with schedules (the
            space multiplies accordingly).

    Returns:
        The :class:`ResilienceReport` of both legs (also useful for its
        :meth:`~ResilienceReport.summary` in logs).

    Raises:
        ResilienceError: the protected stack violated a monitor, a sweep
            failed to exhaust the space, the unprotected twin survived
            every fault (vacuous plan), or the counterexample did not
            replay identically.
    """
    _, protected_report = _exhaustive_sweep(
        protected_factory, max_depth, max_executions, max_permuted, "protected"
    )
    if not protected_report.ok:
        first = protected_report.first_counterexample()
        assert first is not None
        raise ResilienceError(
            "the RTA-protected stack violated its monitors under the fault "
            f"sweep: execution {first.index} recorded "
            f"{[v.message for v in first.violations]} (trail {first.trail})"
        )
    report = ResilienceReport(protected=protected_report)
    if unprotected_factory is None:
        return report

    unprotected_tester, unprotected_report = _exhaustive_sweep(
        unprotected_factory, max_depth, max_executions, max_permuted, "unprotected"
    )
    report.unprotected = unprotected_report
    counterexample = unprotected_report.first_counterexample()
    if counterexample is None:
        raise ResilienceError(
            "the unprotected twin survived every fault in the plan — the "
            "fault space is vacuous and the protected sweep proves nothing"
        )
    report.counterexample = counterexample
    replayed = unprotected_tester.replay(list(counterexample.trail or ()))
    report.confirmed = _violation_identity(replayed) == _violation_identity(counterexample)
    if not report.confirmed:
        raise ResilienceError(
            "the unprotected counterexample did not replay bit-identically: "
            f"original {_violation_identity(counterexample)} vs "
            f"replayed {_violation_identity(replayed)}"
        )
    return report
