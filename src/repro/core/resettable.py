"""The ``Resettable`` protocol: restore construction-time state in place.

The systematic testing engine owes its bug-finding power to sheer
execution count, and profiling shows that — once the safety queries are
cached and batched — the dominant remaining cost of an execution is
*rebuilding the model*: nodes, topics, system wiring, calendar, monitors,
and a fresh semantics engine for every single run.  The reset-and-reuse
hot path eliminates that churn: the model instance is built **once** (per
worker) and every stateful component restores its construction-time state
in place between executions.

The contract
------------
``reset()`` must leave the object indistinguishable (for every observable
the execution semantics reads) from a freshly constructed twin:

* node local state ``L`` returns to its initial valuation (counters,
  plans, RNGs re-seeded from the construction seed);
* the calendar returns to every node's offset;
* the topic board returns to the declared defaults;
* monitors forget recorded violations;
* decision modules return to their initial mode with empty switch logs.

Reset must **not** rebuild derived immutable structure (workspace
geometry, clearance caches, compiled wiring) — keeping those warm is the
point.  The equivalence tests in ``tests/testing/test_reset_reuse.py``
enforce the contract end-to-end: a reset-path execution must produce
byte-identical trails, step counts, and violation sequences to a
fresh-build execution.

New components opt in by implementing ``reset()``; :func:`is_resettable`
and :func:`reset_all` are small helpers for callers that deal with
heterogeneous collections (e.g. monitor suites).

Delta state (incremental snapshots)
-----------------------------------
The population tester extends reset-and-reuse with *copy-on-write
snapshots*: instead of pickling the whole model at a trie boundary it
captures, per component, only the state that changed since the parent
snapshot.  Every snapshot component captures through two hooks of its
own:

``capture_delta_state() -> state``
    Return every per-execution mutable value as plain (copied or
    immutable) data.  The returned object is retained by the caller and
    must stay valid however far the live object advances afterwards.

``restore_delta_state(state) -> None``
    Rewind the object *in place* to a previously captured state.  In
    place matters: other components hold references to this object, and
    a restore must not change its identity.

There is no generic fallback: a class opts in explicitly, and a
component without the hooks makes the population tester run without
snapshots (see :class:`~repro.testing.population.PopulationTester`).
Classes that hold no per-execution state at all mix in
:class:`StatelessSnapshot`.  The base ``Node`` deliberately has no
hooks, so a stateful subclass that forgets them is noticed instead of
silently skipping its capture.

Components that additionally expose a ``delta_version`` attribute let
the snapshotter skip them entirely: the version is a *unique id of a
state point* — bump it from a private monotonic clock on every mutation
(never reuse an id, even after a restore rewinds ``delta_version`` to an
older value), and equal versions prove equal state.
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, runtime_checkable


@runtime_checkable
class Resettable(Protocol):
    """An object that can restore its construction-time state in place."""

    def reset(self) -> None:
        """Restore the state the object had immediately after construction."""


def is_resettable(obj: Any) -> bool:
    """True if ``obj`` exposes a callable ``reset()``."""
    return callable(getattr(obj, "reset", None))


def reset_all(objects: Iterable[Any]) -> None:
    """Reset every object in ``objects`` that implements the protocol."""
    for obj in objects:
        reset = getattr(obj, "reset", None)
        if callable(reset):
            reset()


class StatelessSnapshot:
    """Reset and delta-snapshot hooks of a class with no per-execution state."""

    def reset(self) -> None:
        pass

    def capture_delta_state(self) -> None:
        return None

    def restore_delta_state(self, state: None) -> None:
        pass
