"""Deterministic fault injection — seedable chaos for the labeling service.

The service's resilience machinery (retry, circuit breaking, load shedding,
cache integrity) is only trustworthy if faults can be *produced on demand,
reproducibly*.  This module provides that: a :class:`FaultPlan` describes
which faults fire where, and the decision for any (point, key) pair is a
pure function of the plan's seed — no wall clock, no ``random`` module
state, no dependence on thread interleaving.  Running the same plan over
the same corpus batch twice injects exactly the same faults, which is what
lets the chaos suite assert that fault-free items are byte-identical to a
no-fault run.

Injection points
----------------
Call sites across the stack invoke :func:`maybe_inject` with a point name:

======================  ====================================================
``engine.execute``      entry of :func:`repro.service.engine.compute` (per item)
``cache.get``           :meth:`ResultCache.get` — ``corrupt`` faults flip a
                        stored entry so the integrity checksum must catch it
``pipeline.merge``      :func:`repro.core.pipeline.label_corpus` before the
                        1:m reduction and merge
``pipeline.phase1``     start of the three-phase naming traversal
``pipeline.phase3``     before top-down label assignment
``lexicon.query``       a :class:`~repro.lexicon.compiled.CompiledLexicon`
                        out-of-vocabulary base-form miss
======================  ====================================================

When no plan is active (the overwhelmingly common case) ``maybe_inject``
is a read of one module-level integer — the hot paths pay nothing.

Fault kinds
-----------
``latency``          sleep ``latency_s`` then continue
``timeout``          same, but conventionally with a delay sized to blow a
                     batch/item deadline
``error``            raise :class:`InjectedFault` (a transient, retryable
                     failure)
``corrupt``          returned to the call site, which flips its own stored
                     data (only honoured by ``cache.get``)
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "FAULT_KINDS",
    "INJECTION_POINTS",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "TransientFault",
    "active_scope",
    "fault_scope",
    "maybe_inject",
]

#: Every named injection point wired through the stack.
INJECTION_POINTS = (
    "engine.execute",
    "cache.get",
    "pipeline.merge",
    "pipeline.phase1",
    "pipeline.phase3",
    "lexicon.query",
)

#: Supported fault kinds (see the module docstring).
FAULT_KINDS = ("latency", "timeout", "error", "corrupt")

#: Kinds that make sense at each point; ``FaultPlan.random`` draws from these.
_POINT_KINDS = {
    "engine.execute": ("latency", "error"),
    "cache.get": ("corrupt",),
    "pipeline.merge": ("latency", "error"),
    "pipeline.phase1": ("error",),
    "pipeline.phase3": ("latency", "error"),
    "lexicon.query": ("latency", "error"),
}


class TransientFault(RuntimeError):
    """A failure expected to clear on retry (the retry policy's trigger)."""


class InjectedFault(TransientFault):
    """An ``error``-kind fault raised by :func:`maybe_inject`."""

    def __init__(self, event: "FaultEvent", message: str) -> None:
        super().__init__(f"{message} [{event.point}]")
        self.event = event


@dataclass(frozen=True)
class FaultSpec:
    """One rule of a plan: what fires, where, how often, how many times.

    ``rate`` is the probability that a given key is *selected* by this
    spec (a pure function of the plan seed, the spec and the key).  A
    selected key faults on its first ``max_fires`` arrivals at the point
    and then heals — ``max_fires=1`` models a transient blip a single
    retry gets past, ``max_fires=None`` a permanent fault that exhausts
    the retry budget.
    """

    point: str                    # an INJECTION_POINTS name, or "*"
    kind: str                     # a FAULT_KINDS member
    rate: float = 1.0
    max_fires: int | None = 1
    latency_s: float = 0.002
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")


@dataclass(frozen=True)
class FaultEvent:
    """Provenance record of one injected fault."""

    point: str
    key: str
    kind: str
    spec_index: int

    def to_dict(self) -> dict:
        return {"point": self.point, "kind": self.kind}


class FaultPlan:
    """A seeded, thread-safe set of fault rules with full provenance.

    Selection is deterministic: whether spec *i* selects key *k* at point
    *p* depends only on ``(seed, i, p, k)`` — never on call order or
    threads — so a plan replayed over the same inputs injects the same
    faults.  Per-key fire counts (the ``max_fires`` budget) are tracked
    under a lock; :attr:`events` accumulates every injected fault for the
    chaos harness's accounting.
    """

    def __init__(self, specs, seed: int = 0, name: str | None = None) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)
        self.name = name or f"plan-{self.seed}"
        self.events: list[FaultEvent] = []
        self._fired: dict[tuple[int, str], int] = {}
        self._lock = threading.Lock()

    @classmethod
    def random(
        cls,
        seed: int,
        rate: float = 0.1,
        points=INJECTION_POINTS,
        max_fires: int | None = 1,
        latency_s: float = 0.002,
    ) -> "FaultPlan":
        """A varied plan for chaos sweeps: one seed-chosen kind per point.

        The kind drawn for each point comes from the same hash family as
        the selection rolls, so the whole plan — shape and firing — is a
        pure function of ``seed``.
        """
        specs = []
        for index, point in enumerate(points):
            kinds = _POINT_KINDS.get(point, ("latency", "error"))
            kind = kinds[_uniform(seed, index, point, "kind-draw") % len(kinds)]
            specs.append(
                FaultSpec(
                    point=point,
                    kind=kind,
                    rate=rate,
                    max_fires=max_fires,
                    latency_s=latency_s,
                    message=f"chaos seed {seed}",
                )
            )
        return cls(specs, seed=seed, name=f"chaos-{seed}")

    # ------------------------------------------------------------------
    # Decision logic.
    # ------------------------------------------------------------------

    def _selected(self, spec_index: int, point: str, key: str) -> bool:
        spec = self.specs[spec_index]
        roll = _uniform(self.seed, spec_index, point, key) / float(2**64)
        return roll < spec.rate

    def fires(self, point: str, key: str) -> tuple[FaultSpec, FaultEvent] | None:
        """The first spec that fires for (point, key) this call, or None."""
        for index, spec in enumerate(self.specs):
            if spec.point not in (point, "*"):
                continue
            if not self._selected(index, point, key):
                continue
            with self._lock:
                fired = self._fired.get((index, key), 0)
                if spec.max_fires is not None and fired >= spec.max_fires:
                    continue
                self._fired[(index, key)] = fired + 1
                event = FaultEvent(
                    point=point, key=key, kind=spec.kind, spec_index=index
                )
                self.events.append(event)
            return spec, event
        return None

    def stats(self) -> dict:
        """JSON-ready summary of everything this plan injected."""
        with self._lock:
            events = list(self.events)
        by_kind: dict[str, int] = {}
        by_point: dict[str, int] = {}
        for event in events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
            by_point[event.point] = by_point.get(event.point, 0) + 1
        return {
            "name": self.name,
            "seed": self.seed,
            "specs": len(self.specs),
            "injected": len(events),
            "by_kind": dict(sorted(by_kind.items())),
            "by_point": dict(sorted(by_point.items())),
        }


def _uniform(*parts) -> int:
    """A 64-bit hash of the parts — the shared deterministic entropy source."""
    text = "|".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# The active scope: which plan applies, for which item.
# ----------------------------------------------------------------------


@dataclass
class FaultScope:
    """One item's fault context: the plan, the item key, observed events."""

    plan: FaultPlan
    key: str
    events: list[FaultEvent] = field(default_factory=list)


_SCOPE: ContextVar[FaultScope | None] = ContextVar("repro_fault_scope", default=None)

#: Count of live scopes across all threads; the hot-path fast-exit guard.
_ACTIVE = 0
_ACTIVE_LOCK = threading.Lock()


def active_scope() -> FaultScope | None:
    """The scope governing the current (thread's) execution, if any."""
    if not _ACTIVE:
        return None
    return _SCOPE.get()


@contextmanager
def fault_scope(plan: FaultPlan | None, key: str):
    """Activate ``plan`` for the current context, keyed by ``key``.

    ``plan=None`` yields a no-op scope so callers need no branching.  The
    scope is context-local: concurrent batch workers each activate their
    own item's scope without interference.
    """
    global _ACTIVE
    if plan is None:
        yield None
        return
    scope = FaultScope(plan=plan, key=key)
    token = _SCOPE.set(scope)
    with _ACTIVE_LOCK:
        _ACTIVE += 1
    try:
        yield scope
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE -= 1
        _SCOPE.reset(token)


def maybe_inject(point: str, key: str | None = None) -> FaultSpec | None:
    """Fire any fault the active plan schedules at ``point``.

    Costs one integer read when no plan is active.  ``key`` overrides the
    scope's item key (the cache uses the entry key).  ``latency``/``timeout``
    faults sleep here; ``error`` faults raise :class:`InjectedFault`;
    ``corrupt`` faults are returned for the call site to apply to its own
    data.
    """
    scope = active_scope()
    if scope is None:
        return None
    hit = scope.plan.fires(point, key if key is not None else scope.key)
    if hit is None:
        return None
    spec, event = hit
    scope.events.append(event)
    if spec.kind in ("latency", "timeout"):
        time.sleep(spec.latency_s)
    elif spec.kind == "error":
        raise InjectedFault(event, spec.message)
    return spec
