"""Regions of operation of an RTA-protected system (Figure 10 of the paper).

The paper organises the state space into regions R1–R5:

* **R1** — the unsafe region (outside φ_safe).
* **R2** — inside φ_safe but not recoverable (the DM cannot prevent an
  eventual exit; with a well-formed module this region is never entered).
* **R3** — the recoverable region; its outer shell (R3 \\ R4) is the
  *switching control region* where ``ttf_2Δ`` holds and the DM hands
  control to the safe controller.
* **R4** — states from which φ_safe is guaranteed for the next 2Δ under
  any controller.
* **R5** — φ_safer, where control may be returned to the advanced
  controller.

Because recoverability (the R2/R3 boundary) is not directly observable by
the DM, the classification below distinguishes the observable regions:
UNSAFE (R1), SWITCHING (R3 \\ R4), NOMINAL (R4 \\ R5), and SAFER (R5).
"""

from __future__ import annotations

import enum
from typing import Any

from .module import RTAModuleSpec


class Region(enum.Enum):
    """Observable operating regions of an RTA module."""

    UNSAFE = "R1:unsafe"
    SWITCHING = "R3:switching"
    NOMINAL = "R4:nominal"
    SAFER = "R5:safer"


def classify_region(spec: RTAModuleSpec, state: Any) -> Region:
    """Classify a monitored state into the regions of Figure 10.

    The classification asks the module's own predicates (φ_safe, φ_safer,
    ``ttf_2Δ``) in precedence order, so it costs at most three spec
    evaluations.  For the drone modules on the cached safety-query plane
    each predicate memoizes its verdict per state object
    (:func:`~repro.geometry.clearance.state_memo`, keyed on the state by
    identity, the workspace's obstacle count and any extra arguments), so
    a verdict the decision module or a monitor already reached on the same
    state costs nothing here.  The testing engine's coverage plane
    (:mod:`repro.testing.coverage`) samples this at every monitor instant
    to build ``(vehicle, mode, region)`` occupancy maps.

    >>> from repro.testing.scenarios import build_scenario
    >>> module = build_scenario("toy-closed-loop").system.modules[0]
    >>> classify_region(module.spec, 2.0)        # far from the cliff
    <Region.SAFER: 'R5:safer'>
    >>> classify_region(module.spec, 8.95)       # inside the switching shell
    <Region.SWITCHING: 'R3:switching'>
    >>> classify_region(module.spec, 9.5)        # over the cliff
    <Region.UNSAFE: 'R1:unsafe'>
    """
    if not spec.safe_spec.contains(state):
        return Region.UNSAFE
    if spec.safer_spec.contains(state):
        return Region.SAFER
    if spec.ttf(state):
        return Region.SWITCHING
    return Region.NOMINAL


def is_consistent(spec: RTAModuleSpec, state: Any) -> bool:
    """Sanity condition on the region structure for a single state.

    A well-formed module requires φ_safer ⊆ φ_safe and, by property P3,
    states in φ_safer cannot be in the switching region; callers use this
    to validate the ttf/φ_safer choices on sampled states.
    """
    in_safe = spec.safe_spec.contains(state)
    in_safer = spec.safer_spec.contains(state)
    if in_safer and not in_safe:
        return False
    if in_safer and spec.ttf(state):
        return False
    return True
