"""Memoised clearance oracle: the cached half of the safety-query plane.

Every layer of the reproduction keeps asking the same question about the
same static workspace — "is the clearance at this position above/below a
threshold?" (the ``φ_obs`` monitors, the decision modules' ``ttf_2Δ``
checkers, the safe tracker's urgency law).  Profiling shows these scalar
clearance queries dominate systematic-testing throughput.

:class:`ClearanceField` memoises *conservative lower bounds* on clearance
per quantised grid cell: clearance is 1-Lipschitz, so

    ``clearance(p) >= clearance(cell_center) - cell_half_diagonal``

for every point ``p`` inside the cell.  Threshold queries consult the
cached bound first and fall back to the exact workspace computation only
when the bound is not decisive — which makes every answer *bit-for-bit
identical* to the uncached scalar query while skipping the obstacle loop
for the (overwhelmingly common) far-from-obstacle case.

Cells are filled lazily, so the field warms up with the traffic it
actually sees; sharing one workspace instance across executions (see
:func:`repro.apps.scenarios._shared_world`) keeps the cache warm for a
whole worker process.

:func:`state_memo` sits one level above the field: a one-entry memo of a
whole safety predicate's verdict, keyed on the state object (by ``is``),
the workspace's obstacle count (the field's freshness rule) and any extra
arguments.  The drone modules wrap their φ/``ttf`` predicates with it so
the decision module, the monitors and the coverage plane share one verdict
per state.  It lives in each model instance's closures, never on the
field: the field is shared by every thread of a process, the memo is not.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

from .vec import Vec3

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .workspace import Workspace

Cell = Tuple[int, int, int]
R = TypeVar("R")


@dataclass
class ClearanceFieldStats:
    """Counters describing how effective the cache has been."""

    queries: int = 0
    decisive: int = 0  # answered from the cached bound alone
    exact_fallbacks: int = 0  # needed the exact workspace computation
    exact_memo_hits: int = 0  # exact value served from the point memo
    dense_hits: int = 0  # cell bounds served from the precomputed dense grid

    @property
    def hit_rate(self) -> float:
        """Fraction of threshold queries answered without the obstacle loop."""
        if self.queries == 0:
            return 0.0
        return self.decisive / self.queries


class ClearanceField:
    """Grid-cell-quantised conservative clearance cache over one workspace.

    The field never *replaces* the exact clearance — it only pre-answers
    threshold queries whose outcome the cached lower bound already decides.
    ``lower_bound(p) <= workspace.clearance(p)`` always holds (tested as a
    property), and :meth:`exceeds` returns exactly what the corresponding
    scalar comparison would.
    """

    def __init__(self, workspace: "Workspace", resolution: float = 0.5) -> None:
        if resolution <= 0.0:
            raise ValueError("clearance-field resolution must be positive")
        self.workspace = workspace
        self.resolution = resolution
        # Half the diagonal of a cubic cell: the worst-case distance from
        # any point in a cell to the cell center (3-D).
        self.cell_radius = 0.5 * resolution * math.sqrt(3.0)
        self.stats = ClearanceFieldStats()
        self._bounds: Dict[Cell, float] = {}
        # Exact clearance per *exact* query point.  Systematic testing
        # re-asks the same handful of points (finite abstraction menus,
        # periodic estimates) thousands of times per sweep; memoising the
        # exact value turns every repeat into a dict hit while staying
        # trivially bit-identical.  Bounded so continuous workloads (noisy
        # simulation estimates) cannot grow it without limit.
        self._exact: Dict[Tuple[float, float, float], float] = {}
        self._exact_limit = 65536
        self._obstacle_count = len(workspace.obstacles)
        # The optional dense plane: a whole-workspace grid of cell bounds
        # (see :meth:`densify`), one flat C-order buffer read by
        # :meth:`lower_bound` at ``(i*ny + j)*nz + k``.  ``None`` until
        # densified; dropped on any workspace mutation, exactly like the
        # lazy memo.  An ``array('d')`` rather than a memoryview, so the
        # field still pickles and deep-copies.
        self._dense_values: Optional[array] = None
        self._dense_origin: Cell = (0, 0, 0)
        self._dense_shape: Cell = (0, 0, 0)

    def __len__(self) -> int:
        return len(self._bounds)

    def _check_freshness(self) -> None:
        """Drop every cached bound if the workspace grew a new obstacle.

        Callers that captured this field before ``add_obstacle`` would
        otherwise keep reading bounds that no longer under-approximate the
        true clearance — a silently unsafe answer.  A one-int comparison
        per query keeps the memo sound against the supported mutation API
        (``Workspace.add_obstacle``; the obstacle list must not be edited
        in place).
        """
        count = len(self.workspace.obstacles)
        if count != self._obstacle_count:
            self._bounds.clear()
            self._exact.clear()
            self._dense_values = None
            self._obstacle_count = count

    def _exact_clearance(self, point: Vec3) -> float:
        """The exact clearance, served from the point memo when possible."""
        key = (point.x, point.y, point.z)
        value = self._exact.get(key)
        if value is None:
            value = self.workspace.clearance(point)
            self.stats.exact_fallbacks += 1
            if len(self._exact) < self._exact_limit:
                self._exact[key] = value
        else:
            self.stats.exact_memo_hits += 1
        return value

    # ------------------------------------------------------------------ #
    # bounds
    # ------------------------------------------------------------------ #
    def densify(self, padding: float = 0.0, max_cells: int = 4_000_000) -> int:
        """Precompute the cell bounds for the whole workspace in one sweep.

        Builds a dense ``(nx, ny, nz)`` grid covering the workspace bounds
        (expanded by ``padding`` metres), filled through the batched exact
        clearance — each cell holds exactly the value the lazy path would
        compute (``clearance(cell_center) - cell_radius``, and
        ``clearance_batch`` is bit-identical to ``clearance``), so every
        conservative decision stays bit-for-bit what the lazy memo gives.
        After densification the hot threshold queries become a pure array
        lookup instead of a dict probe with a cold-miss obstacle loop;
        queries outside the grid fall back to the lazy path unchanged.

        The exact-clearance transform is used rather than the chamfer
        distance of :class:`~repro.geometry.occupancy.OccupancyGrid`: the
        chamfer approximation would break the bit-identity contract the
        threshold queries advertise.

        Returns the number of grid cells.  Dropped automatically (like the
        lazy memo) when the workspace grows an obstacle.
        """
        if padding < 0.0:
            raise ValueError("padding must be non-negative")
        self._check_freshness()
        res = self.resolution
        bounds = self.workspace.bounds
        lo = (
            int(math.floor((bounds.lo.x - padding) / res)),
            int(math.floor((bounds.lo.y - padding) / res)),
            int(math.floor((bounds.lo.z - padding) / res)),
        )
        hi = (
            int(math.floor((bounds.hi.x + padding) / res)),
            int(math.floor((bounds.hi.y + padding) / res)),
            int(math.floor((bounds.hi.z + padding) / res)),
        )
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        total = shape[0] * shape[1] * shape[2]
        if total > max_cells:
            raise ValueError(
                f"dense clearance grid would need {total} cells (> {max_cells}); "
                "raise max_cells or coarsen the resolution"
            )
        axes = [(np.arange(l, h + 1) + 0.5) * res for l, h in zip(lo, hi)]
        _, ny, nz = shape
        dense_values = array("d", [0.0]) * total
        values = np.frombuffer(dense_values)
        # Cell centres are built per chunk from the flat index range, so
        # the transient is bounded by the chunk, not by the grid.
        chunk = 32768
        centers = np.empty((chunk, 3))
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            flat = np.arange(start, stop)
            block = centers[: stop - start]
            block[:, 0] = axes[0][flat // (ny * nz)]
            block[:, 1] = axes[1][flat // nz % ny]
            block[:, 2] = axes[2][flat % nz]
            np.subtract(
                self.workspace.clearance_batch(block), self.cell_radius, out=values[start:stop]
            )
        self._dense_values = dense_values
        self._dense_origin = lo
        self._dense_shape = shape
        return total

    @property
    def _dense(self) -> Optional[np.ndarray]:
        """The dense grid as an ``(nx, ny, nz)`` view of the flat buffer."""
        if self._dense_values is None:
            return None
        return np.frombuffer(self._dense_values).reshape(self._dense_shape)

    @property
    def dense_cells(self) -> int:
        """Number of cells in the dense grid (0 until :meth:`densify`)."""
        return 0 if self._dense_values is None else len(self._dense_values)

    def lower_bound(self, point: Vec3) -> float:
        """A conservative lower bound on ``workspace.clearance(point)``.

        Never larger than the true clearance (may be much smaller near
        obstacles or for coarse resolutions).  Served from the dense grid
        when one was precomputed (:meth:`densify`); memoised per cell
        otherwise (and for off-grid cells).
        """
        self._check_freshness()
        res = self.resolution
        ci = math.floor(point.x / res)
        cj = math.floor(point.y / res)
        ck = math.floor(point.z / res)
        values = self._dense_values
        if values is not None:
            oi, oj, ok = self._dense_origin
            nx, ny, nz = self._dense_shape
            i, j, k = ci - oi, cj - oj, ck - ok
            if 0 <= i < nx and 0 <= j < ny and 0 <= k < nz:
                self.stats.dense_hits += 1
                return values[(i * ny + j) * nz + k]
        cell = (ci, cj, ck)
        bound = self._bounds.get(cell)
        if bound is None:
            center = Vec3((cell[0] + 0.5) * res, (cell[1] + 0.5) * res, (cell[2] + 0.5) * res)
            bound = self.workspace.clearance(center) - self.cell_radius
            self._bounds[cell] = bound
        return bound

    def clearance(self, point: Vec3) -> float:
        """The exact clearance (memoised per point; counted as a fallback)."""
        self._check_freshness()
        return self._exact_clearance(point)

    # ------------------------------------------------------------------ #
    # threshold queries (bit-identical to the uncached comparisons)
    # ------------------------------------------------------------------ #
    def exceeds(self, point: Vec3, threshold: float, strict: bool = True) -> bool:
        """Exactly ``workspace.clearance(point) > threshold`` (``>=`` if not strict).

        Fast path: when the cached cell bound already exceeds the
        threshold, the true clearance must as well (the bound is a lower
        bound), so no exact computation is needed.
        """
        self.stats.queries += 1
        bound = self.lower_bound(point)
        if (bound > threshold) if strict else (bound >= threshold):
            self.stats.decisive += 1
            return True
        exact = self._exact_clearance(point)
        return (exact > threshold) if strict else (exact >= threshold)

    def at_most(self, point: Vec3, threshold: float) -> bool:
        """Exactly ``workspace.clearance(point) <= threshold``."""
        return not self.exceeds(point, threshold, strict=True)

    def decides_above(self, point: Vec3, threshold: float, margin: float = 0.0) -> bool:
        """True only when the cached bound alone proves ``clearance - margin > threshold``.

        A sound one-sided gate: a ``True`` answer is definitive (the exact
        margin-shifted clearance comparison must agree, by monotonicity of
        floating-point subtraction), while ``False`` merely means the
        caller has to fall back to the exact computation.
        """
        self.stats.queries += 1
        if self.lower_bound(point) - margin > threshold:
            self.stats.decisive += 1
            return True
        return False

    def below(self, point: Vec3, threshold: float) -> bool:
        """Exactly ``workspace.clearance(point) < threshold``."""
        return not self.exceeds(point, threshold, strict=False)


def state_memo(workspace: "Workspace", fn: Callable[..., R]) -> Callable[..., R]:
    """One-entry memo of a pure safety predicate ``fn(state, *args)``.

    The drone modules judge the same monitored state several times per
    period: the decision module's ``ttf_2Δ``/φ_safer checks, the φ_obs and
    φ_Inv monitors, and the coverage plane's :func:`classify_region`.  For a
    frozen state object the verdict depends on nothing but the state, the
    extra arguments (e.g. a horizon) and the static workspace, so the memo
    keys on *the state object* (by ``is``, with a reference held so the
    object cannot be recycled), the extra arguments, and the workspace's
    obstacle count — the same freshness rule as :class:`ClearanceField`, so
    ``Workspace.add_obstacle`` makes the next query recompute.

    The memo is one tuple assigned in a single statement (the
    :attr:`DronePlant.clearance` idiom), so a concurrent reader sees either
    the old or the new entry, never a mix.  Build one per predicate per
    model instance: a memo on the process-shared field would be traded
    between the drone threads of a mission server and gain nothing.
    """
    memo: Optional[Tuple[Any, int, tuple, R]] = None

    def memoized(state: Any, *args: Any) -> R:
        nonlocal memo
        count = len(workspace.obstacles)
        entry = memo
        if entry is not None and entry[0] is state and entry[1] == count and entry[2] == args:
            return entry[3]
        value = fn(state, *args)
        memo = (state, count, args, value)
        return value

    return memoized
