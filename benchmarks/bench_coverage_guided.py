"""Coverage-guided vs random exploration on the coverage-hostile scenarios.

Quantifies the coverage plane (PR 5) on the two workloads built for it:

* **Distinct-pair discovery** — cumulative distinct ``(vehicle, mode,
  region)`` pairs after an equal execution budget, for
  :class:`~repro.testing.strategies.CoverageGuidedStrategy` versus
  :class:`~repro.testing.strategies.RandomStrategy`, across a fixed seed
  panel.  The guided strategy must reach **strictly more** distinct pairs
  in aggregate on both scenarios (the acceptance bar of the PR); per-seed
  results are printed so regressions are attributable.

* **Time to first counterexample** — executions until the first violation
  on the breach variants.  On ``deep-menu-surveillance`` the rare breach
  option hides in a thirty-plus-option menu: the guided sweep reaches it
  within one menu sweep while uniform random shows coupon-collector
  tails, and the aggregate guided cost is asserted no worse than random.
  On ``rare-branch-geofence`` a single draw from a fourteen-option menu
  suffices, so the two strategies tie by construction — the row is
  reported for completeness, not asserted.

* **Replay fidelity** — a guided counterexample's trail replayed through
  :meth:`~repro.testing.explorer.SystematicTester.replay` must reproduce
  the execution bit-identically (same steps, violation times, messages),
  which is what makes guided-found bugs actionable.
"""

from __future__ import annotations

from repro.testing import (
    CoverageGuidedStrategy,
    RandomStrategy,
    SystematicTester,
    scenario_factory,
)

SEEDS = (0, 1, 2, 3, 4, 5)
PAIR_BUDGET = 32
TTFC_BUDGET = 200

#: scenario name -> override that makes counterexamples reachable.
SCENARIOS = {
    "rare-branch-geofence": {"include_breach": True},
    "deep-menu-surveillance": {"include_unsafe_position": True},
}


def _strategies(seed: int, budget: int):
    return {
        "random": RandomStrategy(seed=seed, max_executions=budget),
        "guided": CoverageGuidedStrategy(seed=seed, max_executions=budget),
    }


def _distinct_pairs(scenario: str, seed: int, budget: int) -> dict:
    """Distinct pairs per strategy after ``budget`` executions."""
    results = {}
    for label, strategy in _strategies(seed, budget).items():
        tester = SystematicTester(scenario_factory(scenario), strategy, track_coverage=True)
        report = tester.explore()
        assert report.execution_count == budget
        assert report.ok, f"{scenario} must be violation-free by default"
        results[label] = len(report.coverage)
    return results


def test_distinct_pairs_per_budget(table_printer):
    """Guided reaches strictly more distinct pairs than random, equal budget."""
    for scenario in SCENARIOS:
        per_seed = {seed: _distinct_pairs(scenario, seed, PAIR_BUDGET) for seed in SEEDS}
        random_pairs = [per_seed[seed]["random"] for seed in SEEDS]
        guided_pairs = [per_seed[seed]["guided"] for seed in SEEDS]
        table_printer(
            f"Distinct (vehicle, mode, region) pairs after {PAIR_BUDGET} executions — {scenario}",
            ["seed", "random", "coverage-guided"],
            [[seed, r, g] for seed, r, g in zip(SEEDS, random_pairs, guided_pairs)]
            + [["total", sum(random_pairs), sum(guided_pairs)]],
        )
        assert sum(guided_pairs) > sum(random_pairs), (
            f"{scenario}: CoverageGuidedStrategy covered {sum(guided_pairs)} pairs "
            f"across seeds {SEEDS} vs RandomStrategy's {sum(random_pairs)} at an equal "
            f"budget of {PAIR_BUDGET} executions — the coverage plane lost its edge"
        )


def _ttfc(scenario: str, overrides: dict, seed: int) -> dict:
    """Executions until the first counterexample, per strategy."""
    results = {}
    for label, strategy in _strategies(seed, TTFC_BUDGET).items():
        tester = SystematicTester(scenario_factory(scenario, **overrides), strategy)
        report = tester.explore(stop_at_first_violation=True)
        counterexample = report.first_counterexample()
        assert counterexample is not None, (
            f"{scenario} with {overrides} must yield a counterexample within "
            f"{TTFC_BUDGET} executions under {label}"
        )
        results[label] = counterexample.index + 1
    return results


def test_time_to_first_counterexample(table_printer):
    """Executions to the first violation on the breach variants."""
    totals = {}
    for scenario, overrides in SCENARIOS.items():
        per_seed = {seed: _ttfc(scenario, overrides, seed) for seed in SEEDS}
        random_cost = [per_seed[seed]["random"] for seed in SEEDS]
        guided_cost = [per_seed[seed]["guided"] for seed in SEEDS]
        totals[scenario] = (sum(random_cost), sum(guided_cost))
        table_printer(
            f"Executions to first counterexample — {scenario} {overrides}",
            ["seed", "random", "coverage-guided"],
            [[seed, r, g] for seed, r, g in zip(SEEDS, random_cost, guided_cost)]
            + [["total", sum(random_cost), sum(guided_cost)]],
        )
    deep_random, deep_guided = totals["deep-menu-surveillance"]
    assert deep_guided <= deep_random, (
        f"guided took {deep_guided} total executions to the deep-menu breach vs "
        f"random's {deep_random} — the menu sweep should bound the search"
    )


def test_guided_counterexample_replays_bit_identically():
    """A guided-found trail replays to the identical execution."""
    tester = SystematicTester(
        scenario_factory("deep-menu-surveillance", include_unsafe_position=True),
        CoverageGuidedStrategy(seed=0, max_executions=TTFC_BUDGET),
    )
    report = tester.explore(stop_at_first_violation=True)
    counterexample = report.first_counterexample()
    assert counterexample is not None
    replayed = tester.replay(counterexample.trail, counterexample.index)
    assert replayed.steps == counterexample.steps
    assert replayed.trail == counterexample.trail
    assert [
        (violation.time, violation.monitor, violation.message)
        for violation in replayed.violations
    ] == [
        (violation.time, violation.monitor, violation.message)
        for violation in counterexample.violations
    ]
