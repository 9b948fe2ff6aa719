"""Fault injection for untrusted components.

Section V of the paper evaluates SOTER "in the presence of bugs introduced
using fault injection in the advanced controller" and with bugs injected
into the third-party RRT* planner.  One fault plane lives here: a
:class:`FaultPlan` declares *fault sites* (a wrapped node or a topic) with
activation *windows* and candidate *kinds*; each ``(site, window)`` pair
becomes one labeled choice in the execution's trail (option 0 = no
fault), resolved by the same
:class:`~repro.testing.strategies.ChoiceStrategy` that drives every other
nondeterministic choice.  Exhaustive enumeration sweeps the fault space,
a :class:`~repro.testing.strategies.RandomStrategy` samples it
(Monte-Carlo campaigns), trails replay bit-identically, the population
trie compacts shared fault prefixes, and coverage gains a fault axis.
:class:`ChoiceFaultInjector` is the node-site wrapper,
:class:`TopicFaultGate` intercepts topic publishes (sensor readings
included) at the :class:`~repro.core.topics.TopicBoard`, and
:class:`FaultPlane` ties both to the tester's environment hook.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import NodeError
from ..core.node import Node
from ..dynamics import ControlCommand
from ..geometry import Vec3


class FaultKind(enum.Enum):
    """Supported output fault classes."""

    DROP = "drop"          # the output is silently not published (topics: reading dropout)
    STUCK = "stuck"        # the last published value is repeated forever
    BIAS = "bias"          # a constant offset is added (control commands only)
    NOISE = "noise"        # random perturbation is added (control commands only)
    INVERT = "invert"      # the commanded acceleration is negated (control commands only)
    CRASH = "crash"        # the node stops firing, then restarts from reset() (node sites only)
    SUBSTITUTE = "substitute"  # outputs replaced by builder-supplied values (node sites only)
    DELAY = "delay"        # topic publishes are delivered late (topic sites only)


#: Kinds a :class:`ChoiceFaultInjector` (node site) can inject.
NODE_FAULT_KINDS = frozenset(
    {
        FaultKind.DROP,
        FaultKind.STUCK,
        FaultKind.BIAS,
        FaultKind.NOISE,
        FaultKind.INVERT,
        FaultKind.CRASH,
        FaultKind.SUBSTITUTE,
    }
)

#: Kinds a :class:`TopicFaultGate` (topic site) can inject.
TOPIC_FAULT_KINDS = frozenset({FaultKind.DROP, FaultKind.STUCK, FaultKind.DELAY})


def _corrupt(kind: FaultKind, value: Any, magnitude: float, rng: random.Random) -> Any:
    """Apply a value-level fault; only control commands are perturbed."""
    if not isinstance(value, ControlCommand):
        return value
    if kind is FaultKind.BIAS:
        offset = Vec3(magnitude, 0.0, 0.0)
        return ControlCommand(acceleration=value.acceleration + offset, yaw_rate=value.yaw_rate)
    if kind is FaultKind.NOISE:
        noise = Vec3(
            rng.uniform(-magnitude, magnitude),
            rng.uniform(-magnitude, magnitude),
            rng.uniform(-magnitude, magnitude) * 0.2,
        )
        return ControlCommand(acceleration=value.acceleration + noise, yaw_rate=value.yaw_rate)
    if kind is FaultKind.INVERT:
        return ControlCommand(acceleration=-value.acceleration, yaw_rate=value.yaw_rate)
    raise NodeError(f"unsupported value fault kind {kind}")


def _coerce_kind(value: Any) -> FaultKind:
    if isinstance(value, FaultKind):
        return value
    return FaultKind(str(value))


@dataclass(frozen=True)
class FaultWindow:
    """A half-open activation window ``[start, end)`` in model time.

    Half-open intervals make adjacent windows (``[0, 1)``, ``[1, 2)``)
    partition time without a double-activation instant, so each firing or
    publish belongs to at most one window of a site.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValueError("fault windows must have end > start")

    def contains(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultSite:
    """One injectable location: a node's outputs or a topic's publishes.

    Exactly one of ``node``/``topic`` names the target.  ``kinds`` are the
    candidate fault classes; together with "no fault" they form the option
    menu of the per-window choice point, labeled
    ``fault:<site name>:w<index>`` in the trail.  **Option 0 is always "no
    fault"**, so truncated exhaustive enumeration and trails replayed
    beyond their recorded length (both default to option 0) degrade to the
    fault-free execution.
    """

    kinds: Tuple[FaultKind, ...]
    windows: Tuple[FaultWindow, ...]
    node: Optional[str] = None
    topic: Optional[str] = None
    magnitude: float = 1.0
    delay: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(_coerce_kind(kind) for kind in self.kinds))
        object.__setattr__(
            self,
            "windows",
            tuple(
                window if isinstance(window, FaultWindow) else FaultWindow(*window)
                for window in self.windows
            ),
        )
        if (self.node is None) == (self.topic is None):
            raise ValueError("a fault site targets exactly one of node= or topic=")
        if not self.kinds:
            raise ValueError("a fault site needs at least one candidate kind")
        if not self.windows:
            raise ValueError("a fault site needs at least one activation window")
        allowed = NODE_FAULT_KINDS if self.node is not None else TOPIC_FAULT_KINDS
        surface = "node" if self.node is not None else "topic"
        for kind in self.kinds:
            if kind not in allowed:
                raise ValueError(f"fault kind {kind.value!r} is not injectable at a {surface} site")
        ordered = sorted(self.windows, key=lambda window: window.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.end:
                raise ValueError("fault windows of one site must not overlap")
        object.__setattr__(self, "windows", tuple(ordered))
        if self.delay <= 0.0:
            raise ValueError("the delivery delay must be positive")

    @property
    def name(self) -> str:
        """Stable site label used in choice labels and coverage keys."""
        if self.node is not None:
            return f"node:{self.node}"
        return f"topic:{self.topic}"

    def options(self) -> int:
        """Number of options at each of this site's choice points."""
        return 1 + len(self.kinds)

    def encode(self) -> Tuple[Any, ...]:
        """The wire form: nested tuples of JSON scalars (hashable, JSON-safe)."""
        return (
            "node" if self.node is not None else "topic",
            self.node if self.node is not None else self.topic,
            tuple(kind.value for kind in self.kinds),
            tuple((window.start, window.end) for window in self.windows),
            self.magnitude,
            self.delay,
            self.seed,
        )

    @classmethod
    def decode(cls, data: Sequence[Any]) -> "FaultSite":
        """Rebuild a site from :meth:`encode`'s form; any malformed shape
        raises one ``ValueError("malformed fault site ...")``."""
        try:
            surface, target, kinds, windows, magnitude, delay, seed = data
            if surface not in ("node", "topic"):
                raise ValueError(f"unknown fault surface {surface!r}")
            return cls(
                kinds=tuple(_coerce_kind(kind) for kind in kinds),
                windows=tuple(FaultWindow(float(start), float(end)) for start, end in windows),
                node=str(target) if surface == "node" else None,
                topic=str(target) if surface == "topic" else None,
                magnitude=float(magnitude),
                delay=float(delay),
                seed=int(seed),
            )
        except (TypeError, ValueError) as error:
            raise ValueError(f"malformed fault site {data!r}: {error}") from None

    @classmethod
    def coerce(cls, value: Any) -> Optional["FaultSite"]:
        """Accept a site, its encoded form, or ``None`` (stack configs)."""
        if value is None or isinstance(value, FaultSite):
            return value
        return cls.decode(value)


@dataclass(frozen=True)
class FaultPlan:
    """The declared fault space of one scenario: a tuple of fault sites.

    A plan is a *value object*: :meth:`encode` produces nested tuples of
    JSON scalars, which survive the swarm wire protocol's JSON round trip
    (tuples encode as lists and come back as tuples via ``_tuplify``) and
    stay hashable for the drones' warm-tester cache keys.

    >>> plan = FaultPlan(sites=(FaultSite(
    ...     kinds=(FaultKind.DROP,), windows=(FaultWindow(0.0, 1.0),),
    ...     topic="localPosition"),))
    >>> FaultPlan.coerce(plan.encode()) == plan
    True
    """

    sites: Tuple[FaultSite, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        names = [site.name for site in self.sites]
        if len(set(names)) != len(names):
            raise ValueError("fault sites must target distinct nodes/topics")

    def node_sites(self) -> Tuple[FaultSite, ...]:
        return tuple(site for site in self.sites if site.node is not None)

    def topic_sites(self) -> Tuple[FaultSite, ...]:
        return tuple(site for site in self.sites if site.topic is not None)

    def site_for_node(self, node_name: str) -> Optional[FaultSite]:
        for site in self.sites:
            if site.node == node_name:
                return site
        return None

    def encode(self) -> Tuple[Tuple[Any, ...], ...]:
        return tuple(site.encode() for site in self.sites)

    @classmethod
    def decode(cls, data: Sequence[Sequence[Any]]) -> "FaultPlan":
        try:
            encoded = tuple(data)
        except TypeError:
            raise ValueError(f"malformed fault plan {data!r}: not a sequence of sites") from None
        return cls(sites=tuple(FaultSite.decode(site) for site in encoded))

    @classmethod
    def coerce(cls, value: Any) -> Optional["FaultPlan"]:
        """Accept a plan, its encoded form, or ``None`` (scenario overrides)."""
        if value is None or isinstance(value, FaultPlan):
            return value
        return cls.decode(value)


class _WindowedSite:
    """Shared per-execution choice state of one fault site.

    The activation of window *i* is decided lazily — at the first firing
    (node sites) or publish/advance (topic sites) inside the window — by
    drawing one choice with ``1 + len(kinds)`` options from the bound
    strategy.  Decision times are deterministic given the trail prefix, so
    the choice sits at a stable trail position: the property the
    population trie's trail-determinism contract requires.
    """

    __slots__ = ("site", "strategy", "_decisions")

    def __init__(self, site: FaultSite) -> None:
        self.site = site
        self.strategy: Any = None
        self._decisions: List[Optional[int]] = [None] * len(site.windows)

    def bind_strategy(self, strategy: Any) -> None:
        self.strategy = strategy

    def reset(self) -> None:
        self._decisions = [None] * len(self.site.windows)

    def active_kind(self, now: float) -> Optional[FaultKind]:
        """The decided kind at ``now``, drawing the window choice on first entry."""
        for index, window in enumerate(self.site.windows):
            if not window.contains(now):
                continue
            decided = self._decisions[index]
            if decided is None:
                if self.strategy is None:
                    decided = 0  # unbound models degrade to fault-free
                else:
                    decided = self.strategy.choose(
                        self.site.options(), label=f"fault:{self.site.name}:w{index}"
                    )
                self._decisions[index] = decided
            if decided == 0:
                return None
            return self.site.kinds[decided - 1]
        return None

    def coverage_sample(self, now: float) -> Optional[Tuple[str, str, str]]:
        """The fault-axis coverage key at ``now`` (only for decided windows)."""
        for index, window in enumerate(self.site.windows):
            if not window.contains(now):
                continue
            decided = self._decisions[index]
            if decided is None:
                return None
            kind = "ok" if decided == 0 else self.site.kinds[decided - 1].value
            return (f"fault:{self.site.name}", kind, f"w{index}")
        return None


class ChoiceFaultInjector(Node):
    """A node-site injector whose fault timing lives in the choice trail.

    The injector preserves the wrapped node's interface: identical
    subscriptions, publications and period (so well-formedness property
    P1 holds when it replaces the AC inside an RTA module), renamed to
    ``<name>.faultable`` by default so traces can tell them apart.
    *When* and *which* fault manifests is decided by the execution's
    strategy through the site's per-window choice points — never by a
    hidden RNG.  The only RNG left
    is the NOISE perturbation's value stream, which is seeded from the
    site and re-seeded on reset, so a replayed trail reproduces the noisy
    outputs bit-identically.

    ``FaultKind.CRASH`` models crash-and-restart: during an active crash
    window the inner node is not stepped and nothing is published; at the
    first firing after the crash the inner node is ``reset()`` — it
    restarts from its boot state mid-execution.  ``FaultKind.SUBSTITUTE``
    replaces outputs with builder-supplied values (``substitutes`` maps
    output topics to the injected value) — the hook scenario builders use
    to inject *specific* bad data, e.g. a corner-cutting plan.
    """

    def __init__(
        self,
        inner: Node,
        site: FaultSite,
        rename: Optional[str] = None,
        substitutes: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if site.node is None:
            raise ValueError("ChoiceFaultInjector needs a node-targeting fault site")
        super().__init__(
            name=rename or f"{inner.name}.faultable",
            subscribes=inner.subscribes,
            publishes=inner.publishes,
            period=inner.period,
            offset=inner.offset,
        )
        self.inner = inner
        self.site = site
        self.substitutes = dict(substitutes or {})
        if FaultKind.SUBSTITUTE in site.kinds and not self.substitutes:
            raise ValueError("SUBSTITUTE faults need a substitutes= mapping")
        self._state = _WindowedSite(site)
        self._last_outputs: Dict[str, Any] = {}
        self._crashed = False
        self._rng = random.Random(site.seed)
        self.injected_faults = 0

    # -- strategy plumbing (duck-typed, like NondeterministicNode) ------- #
    def bind_strategy(self, strategy: Any) -> None:
        self._state.bind_strategy(strategy)

    def coverage_sample(self, now: float) -> Optional[Tuple[str, str, str]]:
        return self._state.coverage_sample(now)

    def reset(self) -> None:
        self.inner.reset()
        self._state.reset()
        self._last_outputs = {}
        self._crashed = False
        self._rng = random.Random(self.site.seed)
        self.injected_faults = 0

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> Any:
        """The NOISE stream, window decisions, crash flag, last outputs (a
        dict only ever replaced, never mutated) and the wrapped node's own
        capture."""
        return (
            self._rng.getstate(),
            tuple(self._state._decisions),
            self._crashed,
            self.injected_faults,
            self._last_outputs,
            self.inner.capture_delta_state(),
        )

    def restore_delta_state(self, state: Any) -> None:
        rng, decisions, self._crashed, self.injected_faults, self._last_outputs, inner = state
        self._rng.setstate(rng)
        self._state._decisions = list(decisions)
        self.inner.restore_delta_state(inner)

    def step(self, now: float, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        kind = self._state.active_kind(now)
        if kind is FaultKind.CRASH:
            self.injected_faults += 1
            self._crashed = True
            return {}
        if self._crashed:
            # First firing after a crash window: the node restarts from its
            # boot state (crash-and-restart, not crash-and-resume).
            self.inner.reset()
            self._crashed = False
        outputs = dict(self.inner.step(now, inputs) or {})
        if kind is None:
            self._last_outputs = dict(outputs)
            return outputs
        self.injected_faults += 1
        if kind is FaultKind.DROP:
            return {}
        if kind is FaultKind.STUCK:
            return dict(self._last_outputs)
        if kind is FaultKind.SUBSTITUTE:
            substituted = {
                topic: self.substitutes.get(topic, value) for topic, value in outputs.items()
            }
            if not outputs:
                substituted = dict(self.substitutes)
            self._last_outputs = dict(substituted)
            return substituted
        corrupted = {
            topic: _corrupt(kind, value, self.site.magnitude, self._rng)
            for topic, value in outputs.items()
        }
        self._last_outputs = dict(corrupted)
        return corrupted


class TopicFaultGate:
    """Message loss, freezes and delays injected at the :class:`TopicBoard`.

    The board's :meth:`~repro.core.topics.TopicBoard.publish` is the
    single choke point every topic write funnels through (node firings via
    ``publish_many``, environment inputs via ``engine.set_input``), so one
    gate covers the entire topic plane.  For each gated topic the active
    window's decided kind maps to:

    * ``DROP`` — the reading blacks out: the write is replaced by ``None``
      (subscribers see a missing value, sensor-dropout style);
    * ``STUCK`` — the message is lost: the write is swallowed and the
      previous value persists (message-loss style);
    * ``DELAY`` — the write is buffered and delivered ``site.delay``
      seconds later by :meth:`advance`.

    Ungated topics pay one dict lookup; boards without a gate installed
    pay one attribute check (see ``TopicBoard.publish``).
    """

    def __init__(self, sites: Sequence[FaultSite]) -> None:
        for site in sites:
            if site.topic is None:
                raise ValueError("TopicFaultGate needs topic-targeting fault sites")
        self._by_topic: Dict[str, _WindowedSite] = {
            site.topic: _WindowedSite(site) for site in sites  # type: ignore[misc]
        }
        self._board: Any = None
        self._pending: List[Tuple[float, str, Any]] = []
        self.now = 0.0
        self.injected_faults = 0

    @property
    def site_states(self) -> List[_WindowedSite]:
        return list(self._by_topic.values())

    def bind_strategy(self, strategy: Any) -> None:
        for state in self._by_topic.values():
            state.bind_strategy(strategy)

    def install(self, board: Any) -> None:
        """Attach this gate to a topic board (idempotent per board)."""
        self._board = board
        board._gate = self

    def reset(self) -> None:
        self.now = 0.0
        self._pending.clear()
        self.injected_faults = 0
        for state in self._by_topic.values():
            state.reset()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    def capture_delta_state(self) -> Any:
        """Clock, pending delayed writes, and every site's window decisions."""
        return (
            self.now,
            tuple(self._pending),
            self.injected_faults,
            tuple(tuple(state._decisions) for state in self._by_topic.values()),
        )

    def restore_delta_state(self, state: Any) -> None:
        """Rewind the gate in place (identity preserved — the board keeps
        pointing at the installed gate)."""
        now, pending, injected, decisions = state
        self.now = now
        self._pending[:] = pending
        self.injected_faults = injected
        for site_state, row in zip(self._by_topic.values(), decisions):
            site_state._decisions = list(row)

    def advance(self, now: float) -> None:
        """Move the gate clock and deliver every delayed write now due."""
        self.now = now
        if not self._pending:
            return
        due = [entry for entry in self._pending if entry[0] <= now + 1e-12]
        if not due:
            return
        self._pending = [entry for entry in self._pending if entry[0] > now + 1e-12]
        # Deliveries land in send order (stable within equal due times);
        # values were type-checked at their original publish.
        for _, name, value in due:
            self._board.values[name] = value

    def admit(self, name: str, value: Any) -> bool:
        """Gate one publish; True lets the board's normal write proceed."""
        state = self._by_topic.get(name)
        if state is None:
            return True
        kind = state.active_kind(self.now)
        if kind is None:
            return True
        self.injected_faults += 1
        if kind is FaultKind.DROP:
            self._board.values[name] = None
            return False
        if kind is FaultKind.STUCK:
            return False
        if kind is FaultKind.DELAY:
            self._pending.append((self.now + state.site.delay, name, value))
            return False
        raise NodeError(f"unsupported topic fault kind {kind}")


class FaultPlane:
    """The execution-facing façade of one scenario's fault plan.

    Duck-types the :class:`~repro.testing.abstractions.AbstractEnvironment`
    interface (``apply``/``reset``/``bind_strategy``) and wraps the
    scenario's real environment, so the testers' hot loops need no new
    hook: scenario builders store the plane as the model instance's
    ``environment``.  On every sampling instant :meth:`apply` installs the
    gate on the engine's board (once), advances the gate clock, delivers
    due delayed writes, and then delegates to the inner environment.

    Node-site injectors are *adopted* from the compiled system
    (:meth:`adopt`), so builders that wire injectors deep inside RTA
    modules don't have to thread handles out.  ``fault_sites`` exposes
    every site's choice state for the coverage plane's fault axis.
    """

    def __init__(self, plan: FaultPlan, environment: Any = None) -> None:
        self.plan = plan
        self.environment = environment
        self.gate = TopicFaultGate(plan.topic_sites())
        self.injectors: List[ChoiceFaultInjector] = []
        self._strategy: Any = None

    def adopt(self, system: Any) -> "FaultPlane":
        """Register every :class:`ChoiceFaultInjector` found in ``system``."""
        for node in system.all_nodes():
            if isinstance(node, ChoiceFaultInjector) and node not in self.injectors:
                self.injectors.append(node)
        return self

    @property
    def fault_sites(self) -> List[Any]:
        """Every site's choice state (objects with ``coverage_sample(now)``)."""
        return list(self.injectors) + self.gate.site_states

    def bind_strategy(self, strategy: Any) -> None:
        self._strategy = strategy
        self.gate.bind_strategy(strategy)
        if self.environment is not None:
            self.environment.bind_strategy(strategy)
        # Injectors are nodes: the tester binds them directly through the
        # system's node list; binding here too keeps standalone use (no
        # tester) working.
        for injector in self.injectors:
            injector.bind_strategy(strategy)

    def reset(self) -> None:
        self.gate.reset()
        if self.environment is not None:
            self.environment.reset()

    # -- delta-snapshot hooks (see repro.core.resettable) --------------- #
    # The plane has no ``delta_version``, so snapshotters treat it as
    # always-dirty; the capture is small (gate clock + window decisions +
    # the inner environment's own compact state).  Injectors are nodes —
    # their state is covered by the per-node snapshot components.
    def capture_delta_state(self) -> Any:
        inner: Any = None
        if self.environment is not None:
            hook = getattr(self.environment, "capture_delta_state", None)
            if hook is None:
                raise TypeError(
                    "FaultPlane delta snapshots need an inner environment "
                    "with capture_delta_state/restore_delta_state hooks"
                )
            inner = hook()
        return self.gate.capture_delta_state(), inner

    def restore_delta_state(self, state: Any) -> None:
        gate_state, inner = state
        self.gate.restore_delta_state(gate_state)
        if self.environment is not None:
            self.environment.restore_delta_state(inner)

    def apply(self, engine: Any, upcoming_time: float) -> None:
        board = engine.board
        if getattr(board, "_gate", None) is not self.gate:
            self.gate.install(board)
        self.gate.advance(upcoming_time)
        if self.environment is not None:
            self.environment.apply(engine, upcoming_time)
