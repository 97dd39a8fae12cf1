"""Sharded broker: subscription-partitioned engine replicas.

S-ToPSS describes one semantic engine; its companion paper frames the
problem at Internet scale, where later systems (VCube-PS, Topiary)
partition the *subscription population* across workers.  This module is
that scale-out axis: :class:`ShardedEngine` hash-partitions stored
subscriptions across N independent engine replicas that share one
:class:`~repro.ontology.knowledge_base.KnowledgeBase` (and therefore
one version-synced :class:`~repro.ontology.concept_table.ConceptTable`),
fans each publication out across the shards — inline, or
through one forked worker process per shard — and merges the per-shard
match sets back into the global subscription insertion order the
single-engine design reports.

Why this composes without new invariants: a publication's match set is
a per-subscription minimum, so partitioning subscriptions partitions
the match set exactly — the union over shards *is* the single-engine
result, generality values included (pinned as a hard property test,
``tests/property/test_sharding_equivalence.py``).  Each replica keeps
its own matcher, memos, and
:class:`~repro.core.interest.InterestIndex`, so demand-driven pruning
gets *sharper* per shard: fewer live subscriptions mean smaller
accepted sets and a cheaper per-shard expansion.

Concurrency contract: parallelism is *across shards within one
publication* — the process executor runs the shard engines
concurrently, and every structure a shard touches during publish is
either replica-local (matcher, memos, counters, interest index) or a
lock-guarded shared structure (the concept table).  The facade itself is
not re-entrant: one ``publish``/``subscribe``/``reconfigure`` at a
time, exactly the discipline the
:class:`~repro.broker.dispatcher.EventDispatcher` already imposes.

Subscription churn routes to the owning shard (the router is a stable
content hash of the subscription id, so unsubscribe finds the same
shard without a lookup table); ``reconfigure`` and
``bump_semantic_epoch`` route to *every* shard, and knowledge-base
motion needs no routing at all — each replica's publish path already
re-syncs against ``kb.version`` through the existing semantic-version/
epoch plumbing.

Two executors ship (``docs/CONCURRENCY.md`` is the full contract).
``"serial"`` runs the shards inline, in order.  ``"process"`` gives
each shard its own worker *process*, which is where the 4-shard
critical-path gain becomes real wall-clock.  A worker is a ``fork`` of
the parent at the moment of launch and serves the parent's own replica
of its shard, inherited copy-on-write along with the knowledge base
and every closure the concept table has memoized — nothing is rebuilt,
re-subscribed or re-shipped.  From then on the two copies meet only on
a pipe, which pickles whatever crosses it: a publication crosses as the
:class:`~repro.model.events.Event` itself, control operations the
parent has already applied to its replica are mirrored to the worker's,
and match results come back as the distinct match witnesses plus one
``(sub_id, generality, index)`` row per match.  The parent's replicas
stay the control plane — the routing/ordering source of truth — so
replacing a worker, or the whole fleet when the knowledge base moves (a
forked worker never sees a parent KB mutation), is a fork of the
current replica.

Because the fleet is a disposable cache of the control plane, worker
failure is never fatal, and one rule recovers from all of it (prose in
``docs/RESILIENCE.md``): **any transport fault on a shard disposes
that worker.**  The publish that met the fault answers the shard inline
on its parent replica, and the next publish re-forks every shard with
no live worker.  Control operations are never re-sent — the re-fork
already holds them.  Every request/reply crossing a pipe is
epoch-tagged so an abandoned reply (an engine error raised while other
shards' replies were still unread) can never desynchronize a later
round-trip: stale epochs are discarded on read.  A seeded
:class:`~repro.broker.supervision.FaultPlan` injects deterministic
worker failures for the chaos leg of the equivalence suite, the
chaos-soak CI job, and ``stopss demo --chaos``.
"""

from __future__ import annotations

import logging
import time
import zlib
from typing import Callable, Iterator

from repro.broker.broker import Broker
from repro.broker.supervision import FaultPlan, SupervisionStats
from repro.broker.transports import TransportRegistry
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.pipeline import PipelineResult
from repro.core.provenance import SemanticMatch
from repro.errors import BrokerError, ConfigError
from repro.matching.base import MatchingAlgorithm
from repro.metrics.aggregate import merge_stats
from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase

_log = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_REQUEST_TIMEOUT",
    "EXECUTORS",
    "ShardedBroker",
    "ShardedEngine",
    "default_router",
]

#: default bound on one worker round-trip before the shard is presumed
#: hung and its worker disposed; override via
#: ``ShardedEngine(request_timeout=...)`` or ``stopss demo
#: --shard-timeout``.
DEFAULT_REQUEST_TIMEOUT = 120.0


def default_router(sub_id: str, shards: int) -> int:
    """Stable hash routing: CRC-32 of the subscription id modulo the
    shard count.  Deliberately *not* Python's salted ``hash()`` — the
    assignment must be reproducible across processes and runs so
    traces, benchmarks, and a restarted broker agree on ownership."""
    return zlib.crc32(sub_id.encode("utf-8")) % shards


#: how the publish fan-out runs: ``serial`` publishes on each replica
#: inline, ``process`` on one forked worker process per shard
EXECUTORS = ("serial", "process")


class _ShardFault(BrokerError):
    """Internal: one shard round-trip failed at the *transport* layer
    (dead worker, timeout, broken pipe, dropped reply, rejected wire
    payload).  It is raised only after the worker has been disposed, so
    catching it is all a caller does; engine-level errors raised by the
    worker's replica propagate unwrapped, exactly as the single-engine
    path would raise them."""


#: what the ``corrupt`` fault kind puts on the wire instead of the
#: request's op — a request no worker can decode; it answers
#: ``badwire``, which is a transport fault like any other.
_CORRUPT_WIRE = "\x00corrupted-wire\x00"


def _send_error(conn, epoch, exc: BaseException) -> None:
    """Ship a worker-side failure to the parent, preserving the original
    exception when it pickles (so the parent re-raises the same type the
    single-engine path would) and degrading to a string otherwise."""
    try:
        conn.send((epoch, "err", exc))
    except Exception:
        try:
            conn.send((epoch, "err", f"{type(exc).__name__}: {exc}"))
        except Exception:  # parent is gone; nothing left to report to
            pass


def _worker_publish(engine, event) -> tuple:
    """One publication inside a shard worker.

    The reply deduplicates the matches' witnesses — many matches share
    one — as ``(witnesses, (sub_id, generality, witness index) rows,
    publish thread-CPU span, truncated)``.  A
    :class:`~repro.core.provenance.Witness` is strings, numbers and
    tuples: it crosses as it is, and the parent's match keeps it."""
    started = time.thread_time()
    matches = engine.publish(event)
    span = time.thread_time() - started
    witnesses: list = []
    index_of: dict[int, int] = {}
    rows = []
    for match in matches:
        via = match.via
        via_index = index_of.get(id(via))
        if via_index is None:
            via_index = index_of[id(via)] = len(witnesses)
            witnesses.append(via)
        rows.append((match.subscription.sub_id, match.generality, via_index))
    return witnesses, rows, span, engine.last_truncated


def _shard_worker_main(conn, engine, ready_epoch) -> None:
    """Entry point of one shard worker process.

    *engine* is the parent's own replica of this shard, inherited
    through ``fork`` with the knowledge base and concept table it reads
    — already holding every subscription, the current configuration and
    whatever the parent had memoized.  The worker acknowledges
    readiness, then serves the request/reply loop on it until ``stop``
    or a closed pipe.

    Every exchange is epoch-tagged: requests arrive as ``(epoch, op,
    payload)`` and are answered with the same epoch — ``(epoch, "ok",
    payload)``, ``(epoch, "err", exception-or-text)`` for an engine
    error (the worker never dies on one, only on a broken parent), or
    ``(epoch, "badwire", text)`` when the request makes no sense — an
    unknown op, or a publish payload that is not an event (transport
    damage).  The parent discards replies whose epoch it is no longer
    waiting for, so an abandoned reply can never satisfy a later
    request."""
    conn.send((ready_epoch, "ok", None))
    try:
        while True:
            try:
                epoch, op, payload = conn.recv()
            except (EOFError, OSError):
                break
            if op == "stop":
                conn.send((epoch, "ok", None))
                break
            try:
                if op == "publish":
                    if type(payload) is not Event:
                        conn.send((epoch, "badwire", f"not an event: {type(payload).__name__}"))
                        continue
                    conn.send((epoch, "ok", _worker_publish(engine, payload)))
                elif op == "subscribe":
                    engine.subscribe(payload)
                    conn.send((epoch, "ok", None))
                elif op == "unsubscribe":
                    engine.unsubscribe(payload)
                    conn.send((epoch, "ok", None))
                elif op == "reconfigure":
                    engine.reconfigure(payload)
                    conn.send((epoch, "ok", None))
                elif op == "epoch":
                    engine.bump_semantic_epoch(payload)
                    conn.send((epoch, "ok", None))
                elif op == "stats":
                    conn.send((epoch, "ok", engine.stats()))
                else:
                    conn.send((epoch, "badwire", f"unknown op {op!r}"))
            except BaseException as exc:
                _send_error(conn, epoch, exc)
    finally:
        conn.close()


class _ProcessDataPlane:
    """The worker-process fleet behind the process executor: one daemon
    process per shard, forked from the parent and serving the parent's
    replica of that shard, with a duplex pipe each (see the module
    docstring for the design).

    The plane is a disposable cache of the parent's control plane: the
    parent rebuilds it from its local replicas whenever the knowledge
    base version drifts (forked workers cannot observe parent KB
    mutations), so every operation here may assume a version-stable
    world.

    Within one plane's lifetime the same disposability gives worker
    failure one rule: **any transport fault on a shard disposes that
    worker** — death, deadline, broken pipe, a dropped reply, a
    ``badwire`` answer, or a forwarded op the worker's replica rejected.
    Nothing is retried.  A publish answers a disposed shard ``None``
    (the engine publishes inline on its parent replica), and the next
    publish forks every empty slot from the parent's replica as it is
    now, which already holds every control op the old worker missed.
    All recovery counters accumulate into the engine-owned *stats* so
    they survive plane rebuilds."""

    def __init__(
        self,
        engines,
        *,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        stats: SupervisionStats | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        #: the parent's replicas, one per shard — what each worker is a
        #: fork of, at launch and at every re-fork
        self._engines = engines
        self.kb_version = engines[0].kb.version
        self.request_timeout = request_timeout
        self._stats = stats if stats is not None else SupervisionStats()
        self._fault_plan = fault_plan
        shards = len(engines)
        self._closed = False
        #: shard index -> (process, conn), or None where the worker was
        #: disposed and not yet re-forked (the list length never changes)
        self._workers: list = [None] * shards
        #: the reply epoch each shard's next read must match; anything
        #: older is an abandoned reply and is discarded on sight
        self._expected = [0] * shards
        self._deadlines = [0.0] * shards
        #: per-shard send counter — the FaultPlan's op axis
        self._op_counts = [0] * shards
        try:
            self._fork(range(shards))
        except BaseException:
            self.close()
            raise

    @property
    def workers(self) -> int:
        return len(self._workers)

    # -- worker lifecycle --------------------------------------------------------

    def _fresh_epoch(self, index: int) -> int:
        epoch = self._expected[index] + 1
        self._expected[index] = epoch
        return epoch

    def _launch(self, index: int) -> None:
        """Fork shard *index*'s worker off the parent's replica; its
        readiness reply is the next thing :meth:`_finish` reads."""
        import multiprocessing

        epoch = self._fresh_epoch(index)
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_shard_worker_main,
            args=(child_conn, self._engines[index], epoch),
            daemon=True,
            name=f"stopss-shard-{index}",
        )
        try:
            process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        self._workers[index] = (process, parent_conn)
        self._deadlines[index] = time.monotonic() + self.request_timeout

    def _fork(self, indexes) -> int:
        """Fork a worker for each shard in *indexes* off the parent's
        replica as it is now (subscriptions and configuration included)
        and read every readiness reply; returns how many came up.  A
        fork that fails leaves its slot empty: that shard answers
        inline until a later publish forks it again."""
        for index in indexes:
            try:
                self._launch(index)
            except Exception as exc:
                if _log.isEnabledFor(logging.DEBUG):
                    _log.debug("shard %d worker launch failed: %r", index, exc)
        forked = 0
        for index in indexes:
            if self._workers[index] is None:
                continue
            try:
                self._finish(index)
            except _ShardFault:
                continue
            forked += 1
        return forked

    def _dispose_worker(self, index: int, fault: str) -> None:
        """Forget shard *index*'s worker after *fault*: close the pipe,
        make sure the process is gone.  The slot stays None until the
        next publish re-forks it."""
        entry = self._workers[index]
        if entry is None:
            return
        self._workers[index] = None
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("shard %d worker disposed: %s", index, fault)
        process, conn = entry
        try:
            conn.close()
        except OSError:
            pass
        if process.is_alive():
            process.kill()
        process.join(timeout=5.0)

    def _fault(self, index: int, message: str) -> _ShardFault:
        """The one recovery rule: dispose shard *index*'s worker, and
        hand back the fault for the caller to raise."""
        self._dispose_worker(index, message)
        return _ShardFault(message)

    # -- the epoch-tagged round-trip ---------------------------------------------

    def _begin(self, index: int, op: str, payload=None) -> None:
        """Send one request to shard *index*'s live worker, injecting any
        fault the plan scheduled for this send.  Raises
        :class:`_ShardFault` when the send itself failed (or a fault
        made it fail)."""
        process, conn = self._workers[index]
        slot = self._op_counts[index]
        self._op_counts[index] += 1
        kind = self._fault_plan.take(index, slot) if self._fault_plan is not None else None
        epoch = self._fresh_epoch(index)
        self._deadlines[index] = time.monotonic() + self.request_timeout
        if kind == "kill":
            process.kill()
            process.join(timeout=5.0)
            raise self._fault(index, f"shard {index} worker killed by fault plan")
        if kind == "corrupt":
            op = _CORRUPT_WIRE
        try:
            conn.send((epoch, op, payload))
        except (OSError, ValueError) as exc:
            raise self._fault(index, f"shard {index} pipe send failed: {exc}") from exc
        if kind == "hang":
            # simulate a hung worker deterministically: the reply may
            # well arrive, but the deadline expires first and the read
            # path must take the timeout branch
            self._deadlines[index] = time.monotonic()
        elif kind == "drop":
            raise self._fault(index, f"shard {index} reply dropped by fault plan")

    def _finish(self, index: int):
        """Collect shard *index*'s reply for the epoch :meth:`_begin`
        registered, discarding abandoned replies from earlier epochs.
        Transport trouble raises :class:`_ShardFault`; a worker-side
        engine error re-raises as the original exception."""
        process, conn = self._workers[index]
        expected = self._expected[index]
        deadline = self._deadlines[index]
        while True:
            # deadline first: an injected "hang" sets it to *now* and
            # must reach this branch even when the real reply is already
            # waiting in the pipe
            if time.monotonic() >= deadline:
                raise self._fault(
                    index,
                    f"shard worker {process.name} did not answer within "
                    f"{self.request_timeout:.0f}s",
                )
            if not conn.poll(0.05):
                if not process.is_alive():
                    raise self._fault(
                        index,
                        f"shard worker {process.name} died "
                        f"(exit code {process.exitcode})",
                    )
                continue
            try:
                epoch, status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                raise self._fault(
                    index, f"shard worker {process.name} hung up: {exc}"
                ) from exc
            if epoch != expected:
                self._stats.stale_replies_discarded += 1
                if _log.isEnabledFor(logging.DEBUG):
                    _log.debug(
                        "shard %d stale reply discarded (epoch %d, expected %d)",
                        index, epoch, expected,
                    )  # fmt: skip
                continue
            if status == "ok":
                return payload
            if status == "badwire":
                raise self._fault(index, f"shard {index} rejected the request: {payload}")
            if isinstance(payload, BaseException):
                raise payload
            raise BrokerError(f"shard worker {process.name} failed: {payload}")

    def _control(self, index: int, op: str, payload=None):
        """One round-trip that must not fail the caller: the reply, or
        ``None`` when shard *index* has no live worker or the exchange
        failed.  Any failure disposes the worker — a transport fault,
        or the worker's replica rejecting what the parent's accepted,
        after which the worker's state is unknowable."""
        if self._workers[index] is None:
            return None
        try:
            self._begin(index, op, payload)
            return self._finish(index)
        except BaseException as exc:
            self._dispose_worker(index, f"{op} failed: {exc!r}")
            if not isinstance(exc, Exception):
                raise
            return None

    # -- operations -----------------------------------------------------------------

    def publish(self, event: Event) -> list:
        """Fan one publication across the fleet; the result has
        one outcome slot per shard, ``None`` meaning the shard has no
        worker this time and the caller must publish inline on its
        parent replica.

        First every empty slot is forked again; then one send loop and
        one collect loop.  A transport fault disposes the shard's worker
        and leaves its slot ``None``; worker-side engine errors
        propagate exactly as the single-engine publish would raise
        them."""
        shards = len(self._workers)
        empty = [index for index in range(shards) if self._workers[index] is None]
        if empty:
            started = time.monotonic()
            forked = self._fork(empty)
            self._stats.worker_restarts += forked
            self._stats.restart_seconds += time.monotonic() - started
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("shards %s re-forked: %d of %d up", empty, forked, len(empty))
        for index in range(shards):
            if self._workers[index] is not None:
                try:
                    self._begin(index, "publish", event)
                except _ShardFault:
                    pass
        outcomes = [None] * shards
        for index in range(shards):
            if self._workers[index] is not None:
                try:
                    outcomes[index] = self._finish(index)
                except _ShardFault:
                    pass
        degraded = outcomes.count(None)
        self._stats.degraded_publishes += degraded
        if degraded and _log.isEnabledFor(logging.DEBUG):
            inline = [index for index, outcome in enumerate(outcomes) if outcome is None]
            _log.debug("publish %s degraded: shards %s answered inline", event.event_id, inline)
        return outcomes

    def forward(self, index: int | None, op: str, payload=None) -> None:
        """Mirror a control-plane mutation onto the fleet (*index*
        ``None`` broadcasts).  The parent's local replicas are the
        source of truth and have already applied it, so this never
        raises, and a failed op is never re-sent: the worker is
        disposed, and the next publish forks the replica, which holds
        the op (re-sending could double-apply a mutation the worker did
        receive)."""
        targets = range(len(self._workers)) if index is None else (index,)
        for i in targets:
            self._control(i, op, payload)

    def stats(self) -> list:
        """Per-shard stats snapshots from the worker replicas, as
        received, with ``None`` holes for shards that currently have no
        worker (the engine fills those from its local replicas)."""
        return [self._control(index, "stats") for index in range(len(self._workers))]

    def close(self) -> None:
        """Stop and reap every worker.  Idempotent, and tolerant of
        already-dead workers and half-built fleets."""
        if self._closed:
            return
        self._closed = True
        workers, self._workers = list(self._workers), []
        for index, entry in enumerate(workers):
            if entry is None:
                continue
            _, conn = entry
            try:
                conn.send((self._expected[index] + 1, "stop", None))
            except (OSError, ValueError):
                pass
        for entry in workers:
            if entry is None:
                continue
            process, conn = entry
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)


class ShardedEngine:
    """N engine replicas behind the single-engine interface.

    Satisfies everything :class:`~repro.broker.dispatcher.
    EventDispatcher` (and therefore :class:`~repro.broker.broker.
    Broker`) needs from an engine — ``subscribe`` / ``unsubscribe`` /
    ``publish`` / ``reconfigure`` / ``subscriptions`` / ``stats`` and
    the ``semantic_version`` / ``subscription_epoch`` properties that
    date the result cache's generation — so the existing dispatcher,
    result cache, and notification plumbing work unchanged on top of
    it.

    Parameters
    ----------
    kb:
        The shared knowledge base.  All replicas read the same object
        and the same concept table.
    shards:
        Replica count (>= 1).  One shard degenerates to a thin wrapper
        around a plain engine and never forks, whatever the executor.
    matcher:
        A *registered* matcher name, instantiated once per shard.  A
        :class:`MatchingAlgorithm` instance cannot be shared across
        replicas (its indexes embed one shard's subscriptions), so
        instances are rejected whenever ``shards > 1``.
    engine_factory:
        ``factory(kb, *, matcher=..., config=...) -> engine`` building
        one replica — defaults to :class:`~repro.core.engine.SToPSS`; a replica
        keeps its ``subscribe(..., seq=...)``, ``matcher.sequence`` and ``original``.
    executor:
        How the publish fan-out runs: ``"serial"`` (default) publishes
        on each replica inline; ``"process"`` routes publishes through
        one forked worker process per shard and needs a platform with
        the ``fork`` start method.
    router:
        ``router(sub_id, shards) -> shard index`` override; defaults to
        :func:`default_router`.
    request_timeout:
        Bound (seconds) on one worker round-trip before the shard is
        presumed hung and its worker disposed.  Defaults to
        :data:`DEFAULT_REQUEST_TIMEOUT`.  CLI: ``--shard-timeout``.
    fault_plan:
        Optional :class:`~repro.broker.supervision.FaultPlan` injecting
        deterministic worker faults into the data plane — tests, chaos
        benchmarks, and ``stopss demo --chaos`` only.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        shards: int = 4,
        matcher: str | MatchingAlgorithm = "counting",
        config: SemanticConfig | None = None,
        engine_factory: Callable | None = None,
        executor: str = "serial",
        router: Callable[[str, int], int] | None = None,
        request_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if shards < 1:
            raise ConfigError("shards must be >= 1")
        if not isinstance(matcher, str) and shards > 1:
            raise ConfigError(
                "a matcher instance cannot back multiple shards; pass a "
                "registered matcher name so each replica gets its own"
            )
        self.kb = kb
        factory = engine_factory if engine_factory is not None else SToPSS
        self._engines: tuple = tuple(
            factory(kb, matcher=matcher, config=config) for _ in range(shards)
        )
        self._router = router if router is not None else default_router
        if executor not in EXECUTORS:
            raise ConfigError(
                f"unknown executor {executor!r} (expected one of {list(EXECUTORS)})"
            )
        self._executor = executor
        #: the process executor moves publishes onto the worker-process
        #: data plane (forked lazily on first publish; re-forked
        #: whenever the knowledge base version drifts)
        self._distributed = executor == "process" and shards > 1
        if self._distributed:
            # imported here and at the first fork only: a serial or
            # single-shard broker never loads multiprocessing
            import multiprocessing

            if "fork" not in multiprocessing.get_all_start_methods():
                raise ConfigError(
                    'executor="process" needs the fork start method, which this '
                    "platform does not offer: a shard worker is a fork of its "
                    'parent replica (use executor="serial")'
                )
        self._plane: _ProcessDataPlane | None = None
        self._plane_dirty = False
        if request_timeout is None:
            request_timeout = DEFAULT_REQUEST_TIMEOUT
        if request_timeout <= 0:
            raise ConfigError("request_timeout must be > 0")
        self._request_timeout = float(request_timeout)
        #: engine-owned recovery counters: the plane is disposable (KB
        #: drift discards it) but its recovery history is not
        self._supervision = SupervisionStats()
        self._fault_plan = fault_plan
        #: the next global insertion sequence: shards merge in its order
        self._next_seq = 0
        self.publications = 0
        #: whether the latest publication's expansion was truncated on
        #: any replica (``None`` before the first)
        self.last_truncated: bool | None = None
        #: cumulative per-shard publish CPU (thread time: the shard's
        #: own work, not what else ran on its core meanwhile)
        self._busy_cpu_seconds = [0.0] * shards
        #: Σ over publications of the slowest shard's publish CPU —
        #: the fan-out's critical path: what wall-clock converges to
        #: when the process executor has >= N cores to overlap shards on
        self._critical_path_seconds = 0.0

    # -- routing -----------------------------------------------------------------

    @property
    def engines(self) -> tuple:
        """The shard replicas, for inspection (index = shard id)."""
        return self._engines

    @property
    def shards(self) -> int:
        return len(self._engines)

    def shard_of(self, sub_id: str) -> int:
        """The shard owning *sub_id* under the active router."""
        return self._router(sub_id, len(self._engines))

    # -- subscription management ---------------------------------------------------

    def subscribe(self, subscription: Subscription) -> Subscription:
        """Route a subscription to its owning shard; returns the root
        form that shard's engine inserted."""
        index = self.shard_of(subscription.sub_id)
        root = self._engines[index].subscribe(subscription, seq=self._next_seq)
        self._next_seq += 1
        self._forward(index, "subscribe", subscription)  # a worker numbers its own
        return root

    def unsubscribe(self, sub_id: str) -> Subscription:
        """Remove a subscription from the shard that owns it."""
        index = self.shard_of(sub_id)
        original = self._engines[index].unsubscribe(sub_id)
        self._forward(index, "unsubscribe", sub_id)
        return original

    def _forward(self, index: int | None, op: str, payload) -> None:
        """Mirror a control-plane mutation onto the live worker fleet
        (no-op without one).  The local replicas are the source of
        truth, so forwarding can never fail the caller's already-applied
        operation: a knowledge base that moved since the fork marks the
        whole plane dirty (next publish rebuilds it), and a failed
        forward disposes only the one affected worker, which the next
        publish re-forks, leaving the healthy shards' workers warm."""
        if self._plane is None:
            return
        if self._plane_dirty or self._plane.kb_version != self.kb.version:
            self._plane_dirty = True
            return
        self._plane.forward(index, op, payload)

    def __len__(self) -> int:
        return sum(len(engine) for engine in self._engines)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._engines[self.shard_of(sub_id)]

    def subscriptions(self) -> Iterator[Subscription]:
        """Original subscriptions in global insertion order."""
        entries = [
            (engine.matcher.sequence(subscription.sub_id), subscription)
            for engine in self._engines
            for subscription in engine.subscriptions()
        ]
        entries.sort(key=lambda entry: entry[0])
        for _, subscription in entries:
            yield subscription

    # -- publishing -------------------------------------------------------------------

    def _publish_local(self, index: int, event: Event) -> tuple[list[SemanticMatch], float, bool]:
        """Publish on the parent's own replica of shard *index*:
        ``(matches, publish thread-CPU span, truncated)``.  The serial
        executor's whole fan-out, and the process executor's answer for
        a shard with no worker — the replica is the control-plane source
        of truth, so it always produces exactly what a healthy worker
        would have returned.
        Slower there (it shares the parent's core) but never wrong."""
        engine = self._engines[index]
        started = time.thread_time()
        matches = engine.publish(event)
        return matches, time.thread_time() - started, engine.last_truncated

    def publish(self, event: Event) -> list[SemanticMatch]:
        """Fan one publication out across every shard and merge the
        per-shard match sets back into global insertion order.

        Every shard sees every event (any shard's subscriptions may
        match), but each works against its own interest index — an
        empty or uninterested shard prunes the expansion to nearly
        nothing.  Per-shard CPU is measured with thread time, so the
        recorded critical path is each shard's own work wherever the
        shard ran.
        """
        self.publications += 1
        if self._distributed:
            outcomes = self._publish_distributed(event)
        else:
            outcomes = (
                self._publish_local(index, event) for index in range(len(self._engines))
            )
        merged: list[tuple[int, SemanticMatch]] = []
        slowest = 0.0
        truncated = []
        for index, (matches, span, shard_truncated) in enumerate(outcomes):
            sequence = self._engines[index].matcher.sequence
            merged.extend((sequence(match.subscription.sub_id), match) for match in matches)
            self._busy_cpu_seconds[index] += span
            slowest = max(slowest, span)
            truncated.append(shard_truncated)
        self._critical_path_seconds += slowest
        self.last_truncated = any(truncated)
        merged.sort(key=lambda entry: entry[0])
        return [match for _, match in merged]

    def _discard_plane(self, reason: str) -> None:
        if self._plane is not None:
            plane, self._plane = self._plane, None
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("worker fleet dropped (%s): %d workers", reason, plane.workers)
            plane.close()
        self._plane_dirty = False

    def _ensure_plane(self) -> _ProcessDataPlane:
        """The live worker fleet, re-forked from the control plane when
        marked dirty or when the knowledge base version moved since the
        fork (workers hold a fork-time KB copy and cannot observe
        parent mutations — restart *is* the propagation mechanism)."""
        plane = self._plane
        if plane is not None and plane.kb_version != self.kb.version:
            self._discard_plane(f"knowledge base v{plane.kb_version} -> v{self.kb.version}")
        elif plane is not None and self._plane_dirty:
            self._discard_plane("dirty")
        if self._plane is None:
            self._plane = _ProcessDataPlane(
                self._engines,
                request_timeout=self._request_timeout,
                stats=self._supervision,
                fault_plan=self._fault_plan,
            )
        return self._plane

    def _publish_distributed(
        self, event: Event
    ) -> Iterator[tuple[list[SemanticMatch], float, bool]]:
        """The process-executor publish path, one ``(matches, publish
        CPU span, truncated)`` per shard: fan the event out to every
        worker and rebuild each shard's matches from its rows.  Matches
        carry the parent's original subscription and event objects —
        only the match witnesses come back across the pipe.

        A ``None`` outcome for a shard means it has no worker this time
        (a transport fault disposed it, or its re-fork failed) — the
        parent replica answers inline, so a publication *never* fails on
        worker trouble."""
        # the table before the fleet: after a knowledge-base write this
        # drops its stale closure memos once, here, so the fork hands
        # every worker a table that has already dropped them instead of
        # each dropping them on its own
        self.kb.concept_table()
        plane = self._ensure_plane()
        for index, outcome in enumerate(plane.publish(event)):
            if outcome is None:
                yield self._publish_local(index, event)
                continue
            witnesses, rows, span, truncated = outcome
            original = self._engines[index].original
            yield [
                SemanticMatch(original(sub_id), event, witnesses[via_index], generality)
                for sub_id, generality, via_index in rows
            ], span, truncated

    def explain(self, event: Event) -> PipelineResult:
        """The full (deliberately exhaustive) expansion — identical on
        every replica, so shard 0 answers for all."""
        return self._engines[0].explain(event)

    # -- mode control / semantic plumbing -------------------------------------------

    @property
    def config(self) -> SemanticConfig:
        return self._engines[0].config

    @property
    def mode(self) -> str:
        return self._engines[0].mode

    def reconfigure(self, config: SemanticConfig) -> None:
        """Switch every shard to *config*.  Each replica's own
        ``reconfigure`` is transactional; if one shard rejects the new
        configuration the already-switched shards are rolled back so
        the fleet never runs split-brain."""
        previous = self._engines[0].config
        switched = []
        try:
            for engine in self._engines:
                engine.reconfigure(config)
                switched.append(engine)
        except BaseException:
            for engine in switched:
                engine.reconfigure(previous)
            raise
        self._forward(None, "reconfigure", config)

    def bump_semantic_epoch(self, reason: str = "external") -> None:
        """Force-invalidate cached semantic state on every shard."""
        for engine in self._engines:
            engine.bump_semantic_epoch(reason)
        self._forward(None, "epoch", reason)

    @property
    def semantic_version(self) -> tuple:
        """Per-shard semantic versions as one hashable value: any
        shard's knowledge-base sync or epoch bump moves it, so the
        dispatcher's result cache drops every match set computed under
        a stale shard."""
        return tuple(engine.semantic_version for engine in self._engines)

    @property
    def subscription_epoch(self) -> tuple:
        """Per-shard churn epochs — any subscribe/unsubscribe anywhere
        moves the dispatcher's result-cache generation."""
        return tuple(engine.subscription_epoch for engine in self._engines)

    # -- reporting ------------------------------------------------------------------

    @property
    def supervision(self) -> SupervisionStats:
        """The engine's cumulative recovery counters (live object; use
        ``.snapshot()`` for a plain dict)."""
        return self._supervision

    def sharding_info(self) -> dict[str, object]:
        """Fan-out shape and measured shard-parallel cost."""
        return {
            "shards": len(self._engines),
            "executor": self._executor,
            # per-shard matcher names (every replica is built from the
            # same matcher name, so these agree)
            "matchers": [
                getattr(getattr(engine, "matcher", None), "name", "?")
                for engine in self._engines
            ],
            "subscriptions_per_shard": [len(engine) for engine in self._engines],
            "publications": self.publications,
            "busy_cpu_seconds": list(self._busy_cpu_seconds),
            "critical_path_seconds": self._critical_path_seconds,
            "request_timeout": self._request_timeout,
            # recovery counters (all zero for the serial executor and
            # for any process run that never hit worker trouble)
            "supervision": self._supervision.snapshot(),
        }

    def stats(self) -> dict[str, object]:
        """Aggregate stats in the single-engine shape (counters summed
        across shards via :func:`~repro.metrics.aggregate.merge_stats`)
        plus a ``sharding`` section with the fan-out shape and the
        per-shard snapshots under ``sharding.shard_stats``.

        Under a live process plane the per-shard snapshots come from
        the worker replicas (where the publish work actually ran); the
        local control replicas answer otherwise — including for any
        individual shard that has no worker (the plane reports those as
        ``None`` holes)."""
        live = (
            self._plane is not None
            and not self._plane_dirty
            and self._plane.kb_version == self.kb.version
        )
        snapshots = self._plane.stats() if live else [None] * len(self._engines)
        per_shard = [
            snapshot if snapshot is not None else engine.stats()
            for snapshot, engine in zip(snapshots, self._engines)
        ]
        merged = merge_stats(per_shard)
        sharding = self.sharding_info()
        sharding["shard_stats"] = per_shard
        merged["sharding"] = sharding
        return merged

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the worker fleet, if one is running."""
        self._discard_plane("closed")

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedBroker(Broker):
    """A :class:`~repro.broker.broker.Broker` whose engine is a
    :class:`ShardedEngine` — same registration/subscribe/publish API,
    same dispatcher, result cache, and notification fan-out, with the
    matching work partitioned across N replicas.

    >>> from repro.ontology.domains import build_jobs_knowledge_base
    >>> broker = ShardedBroker(build_jobs_knowledge_base(), shards=4)
    >>> company = broker.register_subscriber("Initech", email="hr@initech.example")
    >>> sub = broker.subscribe(company.client_id,
    ...     "(university = Toronto) and (degree = PhD)")
    >>> candidate = broker.register_publisher("Ada")
    >>> report = broker.publish(candidate.client_id,
    ...     "(school, Toronto)(degree, PhD)")
    >>> report.match_count
    1
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        shards: int = 4,
        matcher: str | MatchingAlgorithm = "counting",
        config: SemanticConfig | None = None,
        transports: TransportRegistry | None = None,
        engine_factory: Callable | None = None,
        executor: str = "serial",
        router: Callable[[str, int], int] | None = None,
        request_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        durability=None,
    ) -> None:
        super().__init__(
            kb,
            matcher=matcher,
            config=config,
            transports=transports,
            durability=durability,
            engine=ShardedEngine(
                kb,
                shards=shards,
                matcher=matcher,
                config=config,
                engine_factory=engine_factory,
                executor=executor,
                router=router,
                request_timeout=request_timeout,
                fault_plan=fault_plan,
            ),
        )

    @property
    def engines(self) -> tuple:
        return self.engine.engines
