"""Fault injection and recovery counters for the cross-process shard
data plane.

The worker fleet is a *disposable cache* of the parent's control-plane
replicas — each worker is a fork of its shard's replica — so correct
recovery from any worker failure is one re-fork away.  That is the
supervised self-stabilization of Feldmann et al. (``PAPERS.md``): the
legitimate state is a fresh fork, and the data plane converges back to
it by one rule (any transport fault disposes the worker; the shard
answers inline; the next publish re-forks it).  The rule lives in
:mod:`repro.broker.sharding`; this module holds what proves and
reports it:

:class:`FaultPlan`
    Deterministic fault injection for tests, benchmarks, and
    ``stopss demo --chaos``.  A plan is a finite schedule of
    :class:`FaultAction` records — *kill this worker before its Nth
    op*, *drop this reply*, *garble this request*, … — consumed exactly
    once each by the data plane's send path.
    :meth:`FaultPlan.seeded` derives a schedule from one integer seed,
    so a chaos run is reproducible from its seed alone.

:class:`SupervisionStats`
    The observable surface: deterministic counters
    (``worker_restarts``, ``degraded_publishes``) that flow through
    ``sharding_info()`` / ``merge_stats`` into the ``stopss demo``
    health table.  The chaos leg of the sharding equivalence suite
    asserts they are non-zero exactly when faults fired.

Full prose: ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigError

__all__ = [
    "DATA_PLANE_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultAction",
    "FaultPlan",
    "SupervisionStats",
]

#: the fault kinds the shard data plane knows how to inject, in one
#: place so plans validate against the implementation rather than a
#: stale list.  Each one is a transport fault, so each disposes the
#: worker it lands on.
#:
#: ``kill``      SIGKILL the worker just before the op is sent (death
#:               detection).
#: ``hang``      treat the worker as hung: the op is sent but the reply
#:               deadline expires immediately (exercises the timeout
#:               path without waiting out a real timeout).
#: ``drop``      the op is sent but its reply is abandoned unread.
#: ``corrupt``   the request's op is replaced with garbage on the wire
#:               (the worker answers ``badwire``).
DATA_PLANE_FAULT_KINDS = ("kill", "hang", "drop", "corrupt")

#: every valid fault kind.  ``crash`` is consumed by the durability
#: layer, not the data plane: the journal writes a *torn* record (a
#: realistic partial ``write(2)``) and raises
#: :class:`~repro.errors.SimulatedCrash`, killing the whole broker at a
#: chosen journal-append offset (shard axis 0, op axis = append index).
#: The data plane ignores a ``crash`` slot it happens to consume, so
#: keep durability plans separate from data-plane plans.
FAULT_KINDS = DATA_PLANE_FAULT_KINDS + ("crash",)


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: inject *kind* on shard *shard* at its
    *op*-th data-plane send (0-based, counted per shard across every op
    type — publishes, forwarded churn, stats)."""

    kind: str
    shard: int
    op: int

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r} (expected one of {list(FAULT_KINDS)})"
            )
        if self.shard < 0 or self.op < 0:
            raise ConfigError("fault shard and op indexes must be >= 0")


class FaultPlan:
    """A finite, deterministic schedule of injected faults.

    The data plane consults :meth:`take` before every send; each
    scheduled action fires exactly once.  Build a plan explicitly from
    :class:`FaultAction` records when a test needs a precise scenario,
    or from :meth:`seeded` when a single reproducible integer seed
    should drive a whole chaos run (the property suite, the chaos-soak
    CI job, ``stopss demo --chaos``).
    """

    def __init__(self, actions: Iterable[FaultAction] = ()) -> None:
        self._pending: dict[tuple[int, int], str] = {}
        for action in actions:
            slot = (action.shard, action.op)
            if slot in self._pending:
                raise ConfigError(
                    f"duplicate fault slot shard={action.shard} op={action.op}"
                )
            self._pending[slot] = action.kind
        self._planned = len(self._pending)
        #: kind -> times fired, for reporting (``stopss demo --chaos``)
        self.fired: dict[str, int] = {}

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        shards: int,
        ops: int,
        rate: float = 0.15,
        faults: int | None = None,
        kinds: Sequence[str] = DATA_PLANE_FAULT_KINDS,
    ) -> "FaultPlan":
        """A reproducible schedule over the first *ops* sends of each of
        *shards* shards: *faults* slots (default ``rate`` of the grid,
        at least one) chosen and assigned kinds by ``random.Random(seed)``
        — same seed, same plan, on every machine and run.  The default
        *kinds* are the data-plane four; pass ``("crash",)`` to seed a
        durability crash schedule."""
        if shards < 1 or ops < 1:
            raise ConfigError("a seeded plan needs shards >= 1 and ops >= 1")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigError(f"unknown fault kind {kind!r}")
        if faults is None:
            faults = max(1, round(rate * shards * ops))
        if not 0 <= faults <= shards * ops:
            raise ConfigError("fault count must fit the shards x ops grid")
        rng = random.Random(seed)
        slots = rng.sample(
            [(shard, op) for shard in range(shards) for op in range(ops)], faults
        )
        return cls(
            FaultAction(rng.choice(list(kinds)), shard, op)
            for shard, op in sorted(slots)
        )

    @classmethod
    def crash_at(cls, *offsets: int) -> "FaultPlan":
        """A durability plan: :class:`~repro.errors.SimulatedCrash` at
        each journal-append *offset* (0-based).  The journal consults
        slot ``(0, append_index)`` before every append, so this is the
        precise "kill the broker at journal offset N" construction the
        crash-equivalence suite sweeps."""
        return cls(FaultAction("crash", 0, offset) for offset in offsets)

    @property
    def planned(self) -> int:
        """Total actions this plan started with."""
        return self._planned

    @property
    def pending(self) -> int:
        """Actions not yet fired."""
        return len(self._pending)

    def take(self, shard: int, op: int) -> str | None:
        """The fault kind scheduled for this (shard, op) send, consumed
        so it fires at most once; None when the slot is clean."""
        kind = self._pending.pop((shard, op), None)
        if kind is not None:
            self.fired[kind] = self.fired.get(kind, 0) + 1
        return kind


class SupervisionStats:
    """Deterministic recovery counters, cumulative for one
    :class:`~repro.broker.sharding.ShardedEngine` across every worker
    fleet it builds (the plane is disposable; these outlive it).

    Summed across engines by
    :func:`~repro.metrics.aggregate.merge_stats` like any other counter
    group, and surfaced as ``sharding_info()["supervision"]`` — the
    ``stopss demo`` health columns and the chaos acceptance assertions
    (non-zero under faults, zero on a clean run) both read this
    snapshot.
    """

    __slots__ = (
        "worker_restarts",
        "degraded_publishes",
        "stale_replies_discarded",
        "restart_seconds",
    )

    def __init__(self) -> None:
        #: workers re-forked by a publish after a fault disposed them
        self.worker_restarts = 0
        #: shard-publishes answered inline on the parent replica
        self.degraded_publishes = 0
        self.stale_replies_discarded = 0
        self.restart_seconds = 0.0

    def snapshot(self) -> dict[str, int | float]:
        """Plain-dict view (JSON-safe, ``merge_stats``-summable)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def recoveries(self) -> int:
        """Total recovery interventions — the one number that must be
        zero on a clean run."""
        return self.worker_restarts + self.degraded_publishes
