"""Supervision substrate for the cross-process shard data plane.

PR 7's worker-process fleet made the sharded publish path fast; this
module makes it survivable.  The model is the supervised
self-stabilizing topology maintenance of Feldmann et al. and VCube-PS's
fault-tolerant delivery (both in ``PAPERS.md``): the worker fleet is a
*disposable cache* of the parent's control-plane replicas — each worker
is a fork of its shard's replica — so correct recovery from any worker
failure is always one re-fork away: the supervisor's whole job is to
converge back to a healthy fleet without ever failing a publish.

Three cooperating pieces, all deterministic and dependency-free:

:class:`SupervisionPolicy`
    The knobs — per-op retry budget, bounded exponential backoff with
    seeded jitter, and the circuit-breaker threshold/cooldown.  One
    frozen value object threaded from ``ShardedEngine`` down into the
    data plane.

:class:`CircuitBreaker`
    One per shard.  Counts *consecutive* transport failures; at the
    threshold it opens and the shard's publishes route inline through
    the parent replica (always-correct degraded mode) until the
    cooldown elapses, after which a single half-open probe decides
    between closing and re-opening.  The clock is injectable so the
    state machine unit-tests without sleeping.

:class:`FaultPlan`
    Deterministic fault injection for tests, benchmarks, and
    ``stopss demo --chaos``.  A plan is a finite schedule of
    :class:`FaultAction` records — *kill this worker before its Nth
    op*, *drop this reply*, *corrupt this wire payload*, … — consumed
    exactly once each by the data plane's send path.
    :meth:`FaultPlan.seeded` derives a schedule from one integer seed,
    so a chaos run is reproducible from its seed alone.

:class:`SupervisionStats` is the observable surface: deterministic
counters (``worker_restarts``, ``publish_retries``,
``degraded_publishes``, ``breaker_opens``) that flow through
``sharding_info()`` / ``merge_stats`` into the ``stopss demo`` health
table.  The chaos leg of the sharding equivalence suite asserts they
are non-zero exactly when faults fired.

Full prose: ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigError

__all__ = [
    "DATA_PLANE_FAULT_KINDS",
    "FAULT_KINDS",
    "CircuitBreaker",
    "FaultAction",
    "FaultPlan",
    "SupervisionPolicy",
    "SupervisionStats",
]

#: the fault kinds the shard data plane knows how to inject, in one
#: place so plans validate against the implementation rather than a
#: stale list.
#:
#: ``kill``      SIGKILL the worker just before the op is sent.
#: ``hang``      treat the worker as hung: the op is sent but the reply
#:               deadline expires immediately (exercises the timeout →
#:               respawn path without waiting out a real timeout).
#: ``drop``      the op is sent but its reply is abandoned unread
#:               (exercises epoch-stale discard on the retry).
#: ``corrupt``   the publish payload is replaced with garbage on the
#:               wire (the worker answers ``badwire``; retry resends the
#:               clean payload).
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
class SupervisionPolicy:
    """How hard the data plane fights for a shard before degrading.

    ``max_retries`` bounds re-sends of one op after its first failed
    attempt; between re-sends the supervisor sleeps an exponential
    backoff (``backoff_base * backoff_factor**k``, capped at
    ``backoff_max``) with ``jitter``-fraction randomization from a
    ``seed``-determined stream, so two planes never thundering-herd
    their respawns yet any single run replays exactly.

    ``breaker_threshold`` consecutive transport failures open a shard's
    circuit breaker; while open, that shard's publishes run inline on
    the parent replica (degraded mode) with no worker traffic at all,
    and after ``breaker_cooldown`` seconds one half-open probe decides
    whether to close it again.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.5
    breaker_threshold: int = 3
    breaker_cooldown: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base < 0.0 or self.backoff_max < 0.0:
            raise ConfigError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be within [0, 1]")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_cooldown < 0.0:
            raise ConfigError("breaker_cooldown must be >= 0")

    def backoff_delay(self, failures: int, rng: random.Random) -> float:
        """Backoff before re-send number *failures* (1-based), jittered
        from *rng* — the caller owns the stream so delays replay under a
        fixed policy seed."""
        delay = min(self.backoff_max, self.backoff_base * self.backoff_factor ** (failures - 1))
        if self.jitter and delay:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


class CircuitBreaker:
    """Per-shard breaker: closed → open after N consecutive failures →
    half-open probe after the cooldown → closed on success, re-open on
    failure.

    Single-threaded by design (the data plane serializes all shard
    traffic), so state transitions need no locking.  *clock* is
    injectable for tests; production uses ``time.monotonic``.
    """

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ConfigError("breaker threshold must be >= 1")
        self._threshold = threshold
        self._cooldown = cooldown
        self._clock = clock
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` (an open breaker
        whose cooldown elapsed reports half-open once probed)."""
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def allow(self) -> bool:
        """May the caller contact the worker right now?  An open breaker
        answers no until the cooldown elapses, then transitions to
        half-open and admits exactly the probe attempt."""
        if self._state == "open":
            if self._clock() - self._opened_at < self._cooldown:
                return False
            self._state = "half-open"
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._state = "closed"

    def record_failure(self) -> bool:
        """Count one transport failure; returns True when this failure
        *opened* the breaker (a failed half-open probe re-opens and
        counts as a fresh open — the cooldown restarts)."""
        self._consecutive_failures += 1
        should_open = (
            self._state == "half-open"
            or self._consecutive_failures >= self._threshold
        )
        if should_open and self._state != "open":
            self._state = "open"
            self._opened_at = self._clock()
            return True
        if should_open:
            # already open (failures kept arriving while cooling down —
            # e.g. control forwards); push the cooldown out, not a new open
            self._opened_at = self._clock()
        return False


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: inject *kind* on shard *shard* at its
    *op*-th data-plane send (0-based, counted per shard across every op
    type — publishes, forwarded churn, stats, retries)."""

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
        "publish_retries",
        "degraded_publishes",
        "breaker_opens",
        "stale_replies_discarded",
        "restart_seconds",
    )

    def __init__(self) -> None:
        self.worker_restarts = 0
        self.publish_retries = 0
        self.degraded_publishes = 0
        self.breaker_opens = 0
        self.stale_replies_discarded = 0
        self.restart_seconds = 0.0

    def snapshot(self) -> dict[str, int | float]:
        """Plain-dict view (JSON-safe, ``merge_stats``-summable)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def recoveries(self) -> int:
        """Total recovery interventions of any kind — the one number
        that must be zero on a clean run."""
        return (
            self.worker_restarts
            + self.publish_retries
            + self.degraded_publishes
            + self.breaker_opens
        )
