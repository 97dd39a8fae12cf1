"""The broker facade: S-ToPSS "collocated at a job-finder web server".

One object wiring every Figure 2 component together with a
string-friendly API (the web application and CLI speak the textual
subscription/event language).  This is the type a downstream user
instantiates first; everything underneath remains reachable for
composition.

With ``durability=`` the broker becomes crash-safe: every
state-changing operation is journaled write-ahead (publishes before
matching, churn after it succeeds), deliveries are outboxed/acked, and
:func:`~repro.broker.durability.recover` rebuilds an equivalent broker
after a crash.  See ``docs/DURABILITY.md``.
"""

from __future__ import annotations

import os
from typing import Iterator

from repro.broker.clients import Client, ClientKind, ClientRegistry
from repro.broker.dispatcher import EventDispatcher, PublishReport
from repro.broker.durability import (
    Durability,
    _encode_client,
    _encode_config,
    _encode_event,
    _encode_subscription,
)
from repro.broker.notifications import DeliveryOutcome, NotificationEngine
from repro.broker.transports import TransportRegistry, default_transports
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.errors import DurabilityError
from repro.matching.base import MatchingAlgorithm
from repro.model.events import Event
from repro.model.parser import parse_event, parse_subscription
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase

__all__ = ["Broker"]


class Broker:
    """High-level S-ToPSS broker.

    >>> from repro.ontology.domains import build_jobs_knowledge_base
    >>> broker = Broker(build_jobs_knowledge_base())
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
        matcher: str | MatchingAlgorithm = "counting",
        config: SemanticConfig | None = None,
        transports: TransportRegistry | None = None,
        engine=None,
        durability: Durability | str | os.PathLike | None = None,
    ) -> None:
        self.kb = kb
        # an injected engine (any object satisfying the dispatcher's
        # engine interface — e.g. a ShardedEngine) wins over the
        # matcher/config construction parameters.
        self.engine = engine if engine is not None else SToPSS(kb, matcher=matcher, config=config)
        if durability is not None and not isinstance(durability, Durability):
            durability = Durability(durability)
        if (
            durability is not None
            and durability.has_state
            and not durability.replay_active
        ):
            raise DurabilityError(
                f"directory {durability.directory} already holds durable broker "
                "state; use repro.broker.durability.recover() to rebuild from it"
            )
        self.durability = durability
        self._op_index = 0
        self.recovery = None  # RecoveryReport when built by recover()
        self.registry = ClientRegistry()
        self.notifier = NotificationEngine(
            transports if transports is not None else default_transports(),
            durability=durability,
        )
        self.dispatcher = EventDispatcher(self.engine, self.registry, self.notifier)

    # -- journaling ---------------------------------------------------------------

    def _journal_op(self, encode, *args) -> None:
        """Journal one broker-level operation as the record
        ``encode(*args)`` — built only once it is known to be
        written: a broker without a store, or one whose recovery is
        replaying existing records, journals nothing and encodes
        nothing.  Auto-compaction runs *before* the append, when the
        in-memory state is consistent with every record already
        journaled."""
        durability = self.durability
        if durability is None or durability.replay_active:
            return
        if durability.should_compact():
            durability.compact(self._durable_state())
        record = encode(*args)
        record["oi"] = self._op_index
        self._op_index += 1
        durability.append(record)
        durability.note_op()

    def _durable_state(self) -> Iterator[dict]:
        """The broker's complete durable state as the content records of
        a snapshot, in the order recovery applies them: one ``broker``
        record, the clients, the subscriptions, then the notification
        engine's counters and per-subscription delivery logs."""
        config = getattr(self.engine, "config", None)
        yield {
            "k": "broker",
            "next_op_index": self._op_index,
            "config": _encode_config(config) if config is not None else None,
        }
        for client in self.registry.clients():
            yield _encode_client(client)
        for subscription in self.engine.subscriptions():
            client_id = self.dispatcher._subscriber_of.get(subscription.sub_id)
            if client_id is None:  # engine-only subscription (tests)
                continue
            yield _encode_subscription(subscription, client_id)
        yield from self.notifier.durable_state()

    def checkpoint(self) -> None:
        """Fold current state into a compacted snapshot now (automatic
        compaction runs every ``snapshot_every`` operations)."""
        if self.durability is None:
            raise DurabilityError("broker has no durability store to checkpoint")
        self.durability.compact(self._durable_state())

    # -- registration -------------------------------------------------------------

    def register_subscriber(
        self,
        name: str,
        *,
        email: str | None = None,
        sms: str | None = None,
        tcp: str | None = None,
        udp: str | None = None,
        client_id: str | None = None,
    ) -> Client:
        """Register a subscriber with transport addresses in keyword
        order of preference (email first by convention)."""
        return self._register(
            name,
            kind=ClientKind.SUBSCRIBER,
            addresses=self._addresses(email=email, sms=sms, tcp=tcp, udp=udp),
            client_id=client_id,
        )

    def register_publisher(self, name: str, *, client_id: str | None = None) -> Client:
        return self._register(
            name, kind=ClientKind.PUBLISHER, addresses=(), client_id=client_id
        )

    def register_client(
        self,
        name: str,
        *,
        kind: ClientKind = ClientKind.BOTH,
        email: str | None = None,
        sms: str | None = None,
        tcp: str | None = None,
        udp: str | None = None,
        client_id: str | None = None,
    ) -> Client:
        return self._register(
            name,
            kind=kind,
            addresses=self._addresses(email=email, sms=sms, tcp=tcp, udp=udp),
            client_id=client_id,
        )

    def _register(
        self,
        name: str,
        *,
        kind: ClientKind,
        addresses: tuple[tuple[str, str], ...],
        client_id: str | None,
    ) -> Client:
        client = self.registry.register(
            name, kind=kind, addresses=addresses, client_id=client_id
        )
        self._journal_op(_encode_client, client)
        return client

    def remove_client(self, client_id: str) -> Client:
        """Remove a client, dropping its subscriptions first (each drop
        is journaled individually, so recovery replays the same way)."""
        for subscription in self.dispatcher.subscriptions_of(client_id):
            self.unsubscribe(subscription.sub_id)
        client = self.registry.remove(client_id)
        self._release_addresses(client)
        self._journal_op(lambda: {"k": "remove", "id": client_id})
        return client

    def _release_addresses(self, client: Client) -> None:
        """Let the transports drop per-address state (open TCP
        connections) for the removed *client*'s addresses that no live
        client still uses, so client churn leaves nothing behind."""
        transports = self.notifier.transports
        in_use = {pair for other in self.registry.clients() for pair in other.addresses}
        for name, address in client.addresses:
            if (name, address) not in in_use and name in transports:
                transports.get(name).forget(address)

    @staticmethod
    def _addresses(
        *, email: str | None, sms: str | None, tcp: str | None, udp: str | None
    ) -> tuple[tuple[str, str], ...]:
        pairs = []
        if email:
            pairs.append(("smtp", email))
        if sms:
            pairs.append(("sms", sms))
        if tcp:
            pairs.append(("tcp", tcp))
        if udp:
            pairs.append(("udp", udp))
        if not pairs:
            # Registry-internal loopback keeps notification delivery
            # observable even for clients that gave no address.
            pairs.append(("tcp", "loopback"))
        return tuple(pairs)

    # -- pub/sub --------------------------------------------------------------------

    def subscribe(
        self,
        client_id: str,
        subscription: str | Subscription,
        *,
        max_generality: int | None = None,
    ) -> Subscription:
        """Subscribe from a :class:`Subscription` or language text."""
        if isinstance(subscription, str):
            subscription = parse_subscription(subscription, max_generality=max_generality)
        elif max_generality is not None:
            subscription = Subscription(
                subscription.predicates,
                subscriber_id=subscription.subscriber_id,
                sub_id=subscription.sub_id,
                max_generality=max_generality,
            )
        bound = self.dispatcher.subscribe(client_id, subscription)
        self._journal_op(_encode_subscription, bound, client_id)
        return bound

    def unsubscribe(self, sub_id: str) -> Subscription:
        removed = self.dispatcher.unsubscribe(sub_id)
        self._journal_op(lambda: {"k": "unsub", "sid": sub_id})
        return removed

    def publish(self, client_id: str, event: str | Event) -> PublishReport:
        """Publish from an :class:`Event` or language text.  Durable
        brokers journal the publish *before* matching (write-ahead), so
        a crash mid-fan-out replays the event and reconciles deliveries
        against the journaled outbox.  ``report.truncated`` says whether
        the expansion hit ``max_derived_events`` — the match set may then
        be short (``None`` from the process-sharded plane, which does
        not report it)."""
        if isinstance(event, str):
            event = parse_event(event)
        self._journal_op(_encode_event, event, client_id)
        return self.dispatcher.publish(client_id, event)

    def replay_from(self, sub_id: str, sequence: int) -> list[DeliveryOutcome]:
        """Re-deliver this subscription's retained delivery log from
        *sequence* onward — a reconnecting subscriber's catch-up call;
        it dedups by the ``(sub_id, sequence)`` stamped on every
        notification."""
        return self.notifier.replay_from(sub_id, sequence, self.registry)

    # -- modes (paper §4: semantic vs. syntactic demo modes) -----------------------------

    @property
    def mode(self) -> str:
        return self.engine.mode

    def reconfigure(self, config: SemanticConfig) -> None:
        """Swap the engine's semantic configuration (journaled, so a
        recovered broker matches with the same tolerances)."""
        self.engine.reconfigure(config)
        self._journal_op(lambda: {"k": "config", "cfg": _encode_config(config)})

    def set_semantic_mode(self) -> None:
        self.reconfigure(SemanticConfig.semantic())

    def set_syntactic_mode(self) -> None:
        self.reconfigure(SemanticConfig.syntactic())

    # -- reporting -------------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        stats = self.dispatcher.stats()
        if self.durability is not None:
            stats["durability"] = self.durability.stats.snapshot()
        return stats

    def health(self) -> dict[str, object]:
        """Operational health snapshot: the sharded data plane's
        recovery counters in the defensive
        :func:`~repro.metrics.aggregate.supervision_summary` shape,
        plus the notification dead-letter depth and the
        :func:`~repro.metrics.aggregate.durability_summary` counters.
        A plain single-engine broker (no ``sharding`` stats section)
        reports all-zero counters — ``health()["recoveries"] == 0``
        always means "nothing needed rescuing"."""
        from repro.metrics.aggregate import durability_summary, supervision_summary

        stats = self.stats()
        engine_stats = stats.get("engine")
        if not isinstance(engine_stats, dict):
            engine_stats = stats
        health = supervision_summary(engine_stats)
        health["dead_letters"] = len(self.notifier.dead_letters)
        health["history_evictions"] = self.notifier.stats.history_evictions
        health["durability"] = durability_summary(stats)
        return health

    # -- lifecycle -------------------------------------------------------------------------

    def close(self) -> None:
        """Release engine-held resources (the sharded engine's worker
        processes) and the journal handle.  A plain single-engine
        broker holds none, so this is a no-op there — having it on the
        base class means ``with Broker(...)``-style cleanup code works
        unchanged when the engine is swapped for a sharded one."""
        closer = getattr(self.engine, "close", None)
        if closer is not None:
            closer()
        if self.durability is not None:
            self.durability.close()

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
