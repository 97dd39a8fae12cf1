"""The event dispatcher: the central pub/sub component.

"The central component of this architecture is the event dispatcher.
This component records all subscriptions in the system.  When a certain
event is published, the event dispatcher matches it against all
subscriptions … and sends a notification to the corresponding
subscriber" (paper §1).

The dispatcher wires the S-ToPSS engine (matching) to the client
registry (who subscribed) and the notification engine (how to reach
them).  It enforces client roles — only subscribers may subscribe,
only publishers may publish.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass

from repro.broker.clients import Client, ClientRegistry
from repro.broker.notifications import DeliveryOutcome, NotificationEngine
from repro.core.engine import SToPSS
from repro.core.provenance import SemanticMatch
from repro.errors import BrokerError
from repro.model.events import Event
from repro.model.subscriptions import Subscription

__all__ = ["EventDispatcher", "PublishReport"]

_log = logging.getLogger(__name__)

#: what the result cache's generation is made of, in order
_GENERATION = ("semantic_version", "subscription_epoch")


@dataclass(frozen=True)
class PublishReport:
    """Everything that happened for one publication.

    ``truncated`` says whether the semantic expansion hit
    ``max_derived_events``, so ``matches`` may be short of what the
    knowledge base supports: ``True``/``False`` from a single engine or
    a sharded one (any replica), ``None`` from an engine that does not
    say.  A result-cache hit repeats what the publication that filled
    the entry saw."""

    event: Event
    matches: tuple[SemanticMatch, ...]
    outcomes: tuple[DeliveryOutcome, ...]
    truncated: bool | None = None

    @property
    def match_count(self) -> int:
        return len(self.matches)

    @property
    def delivered_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.delivered)


class EventDispatcher:
    """Subscription records + matching + notification fan-out.

    The dispatcher keeps a bounded LRU **result cache** of one
    **generation**: match sets memoized by ``(event content signature,
    publisher, active configuration)`` under the engine's current
    ``(semantic_version, subscription_epoch)`` pair.  Workload traces
    repeat publications, and for a repeated event the entire engine
    pass — expansion *and* matching — is redundant as long as nothing
    the match set depends on has moved.  Knowledge-base edits, epoch
    bumps (refresh) and any subscribe/unsubscribe move the pair, and
    the next lookup drops every entry before the engine runs: nothing
    computed under an old generation stays reachable, so a re-forked
    shard worker inherits an empty cache.  The shipped engines never
    repeat a pair, so the drop loses no hit; a custom engine's pair need
    only differ from the one the previous lookup saw whenever its match
    sets may have changed — returning to an older pair costs hits, never
    correctness (``docs/EXTENDING.md``).  Reconfiguration does not move
    the pair — the configuration is in the key, so a round trip A→B→A
    hits again.  Cached hits re-stamp the match set onto the fresh
    publication's event object, so delivery reports always carry the
    real event id; the derivation is the first publication's compact
    witness, which holds no event or derivation object (``matched_via``
    builds its chain for the fresh event on read).  A dropped generation
    is logged at DEBUG on this module's logger with what moved and how
    many entries went.  ``result_cache_size`` is read
    at every lookup: ``0`` disables the cache and empties it, a lowered
    size trims it.

    The dispatcher keeps no per-publication history: the caller holds
    the :class:`PublishReport`, and ``stats()`` totals are running
    counters.
    """

    def __init__(
        self,
        engine: SToPSS,
        registry: ClientRegistry | None = None,
        notifier: NotificationEngine | None = None,
        *,
        result_cache_size: int = 256,
    ) -> None:
        self.engine = engine
        self.registry = registry if registry is not None else ClientRegistry()
        self.notifier = notifier if notifier is not None else NotificationEngine()
        self.publications = 0
        self.publications_truncated = 0
        self.matches = 0
        self.deliveries = 0
        self.result_cache_size = result_cache_size
        #: cache key -> (match tuple, truncated) in LRU order, all
        #: computed under ``_generation``
        self._result_cache: OrderedDict[tuple, tuple] = OrderedDict()
        #: the engine's ``(semantic_version, subscription_epoch)`` the
        #: cached entries were computed under
        self._generation: tuple | None = None
        self.result_cache_hits = 0
        self.result_cache_misses = 0

    # -- subscriptions -------------------------------------------------------------

    def subscribe(self, client_id: str, subscription: Subscription) -> Subscription:
        """Record a subscription on behalf of a registered subscriber."""
        client = self.registry.get(client_id)
        if not client.kind.can_subscribe:
            raise BrokerError(f"client {client_id!r} is not a subscriber")
        bound = subscription.bound_to(client_id)
        self.engine.subscribe(bound)
        return bound

    def unsubscribe(self, sub_id: str) -> Subscription:
        removed = self.engine.unsubscribe(sub_id)
        self.notifier.forget(sub_id)
        return removed

    def subscriptions_of(self, client_id: str) -> list[Subscription]:
        return [sub for sub in self.engine.subscriptions() if sub.subscriber_id == client_id]

    # -- publications ---------------------------------------------------------------

    def _live_cache(self) -> OrderedDict[tuple, tuple]:
        """The result cache without what it can no longer serve: every
        entry once the engine's generation has moved, and the least
        recently used beyond a capacity lowered (or zeroed) since the
        last look."""
        cache = self._result_cache
        engine = self.engine
        generation = (engine.semantic_version, engine.subscription_epoch)
        if generation != self._generation:
            if self._generation is not None and _log.isEnabledFor(logging.DEBUG):
                moved = ", ".join(
                    f"{name} {old} -> {new}"
                    for name, old, new in zip(_GENERATION, self._generation, generation)
                    if old != new
                )
                _log.debug("result cache dropped (%s): %d entries", moved, len(cache))
            cache.clear()
            self._generation = generation
        while len(cache) > max(self.result_cache_size, 0):
            cache.popitem(last=False)
        return cache

    def _matches_for(
        self, stamped: Event, client_id: str
    ) -> tuple[list[SemanticMatch], bool | None]:
        """The engine's match set for *stamped* and whether its
        expansion was truncated, served from the result cache when this
        content was already matched under the exact same semantic
        state."""
        engine = self.engine
        # before the engine runs, so a fleet re-forked by this publish
        # inherits no entry of the old generation
        cache = self._live_cache()
        capacity = self.result_cache_size
        if capacity <= 0:
            return engine.publish(stamped), getattr(engine, "last_truncated", None)
        key = (stamped.signature, client_id, engine.config)
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            self.result_cache_hits += 1
            # re-stamp onto this publication's event object so delivery
            # reports carry the real event id, not the first one's.
            return [
                SemanticMatch(match.subscription, stamped, match.via, match.generality)
                for match in cached[0]
            ], cached[1]
        self.result_cache_misses += 1
        matches = engine.publish(stamped)
        truncated = getattr(engine, "last_truncated", None)
        if len(cache) == capacity:
            cache.popitem(last=False)
        cache[key] = (tuple(matches), truncated)
        return matches, truncated

    def publish(self, client_id: str, event: Event) -> PublishReport:
        """Match *event* and notify every matched subscriber."""
        client = self.registry.get(client_id)
        if not client.kind.can_publish:
            raise BrokerError(f"client {client_id!r} is not a publisher")
        # its pairs were checked when *event* was built: the stamped copy
        # shares them and their signature
        stamped = Event._derived(event._pairs, event._signature, client_id, event.event_id)
        matches, truncated = self._matches_for(stamped, client_id)
        deliveries: list[tuple[Client, SemanticMatch]] = []
        for match in matches:
            subscriber_id = match.subscription.subscriber_id
            if subscriber_id is None:  # engine-only subscription (tests)
                continue
            deliveries.append((self.registry.get(subscriber_id), match))
        # the publication's notifications are one unit of work: rendered,
        # journaled and acked once, sent one by one
        outcomes = self.notifier.fan_out(deliveries)
        report = PublishReport(stamped, tuple(matches), tuple(outcomes), truncated)
        self.publications += 1
        if truncated:
            self.publications_truncated += 1
        self.matches += report.match_count
        self.deliveries += report.delivered_count
        return report

    # -- reporting ---------------------------------------------------------------------

    def result_cache_info(self) -> dict[str, object]:
        """Hit/miss/size/rate of the dispatcher-level result cache
        (``size`` counts only the entries a lookup could still serve)."""
        lookups = self.result_cache_hits + self.result_cache_misses
        return {
            "capacity": self.result_cache_size,
            "size": len(self._live_cache()),
            "hits": self.result_cache_hits,
            "misses": self.result_cache_misses,
            "hit_rate": (self.result_cache_hits / lookups) if lookups else 0.0,
        }

    def stats(self) -> dict[str, object]:
        engine_stats = self.engine.stats()
        matcher_stats = engine_stats.get("matcher_stats", {})
        interest = engine_stats.get("interest", {})
        result_cache = self.result_cache_info()
        return {
            "clients": len(self.registry),
            "subscriptions": len(self.engine),
            "publications": self.publications,
            # publications whose expansion hit max_derived_events (their
            # match sets may be short)
            "publications_truncated": self.publications_truncated,
            "matches": self.matches,
            "deliveries": self.deliveries,
            # batched publish-path headline counters, surfaced at the
            # top level so operators need not dig through the engine:
            "batches": matcher_stats.get("batches", 0),
            "probes_saved": matcher_stats.get("probes_saved", 0),
            "memo_hits": matcher_stats.get("memo_hits", 0),
            "memo_invalidations": matcher_stats.get("memo_invalidations", 0),
            "result_cache_hits": result_cache["hits"],
            "result_cache_hit_rate": result_cache["hit_rate"],
            "result_cache": result_cache,
            "derived_events": engine_stats.get("derived_events", 0),
            # demand-driven expansion: how much of the derived-event
            # cross-product the live interest index pruned away
            "candidates_pruned": interest.get("candidates_pruned", 0),
            "prune_hit_rate": interest.get("prune_hit_rate", 0.0),
            "interest_index_size": interest.get("interest_index_size", 0),
            "engine": engine_stats,
            "notifier": self.notifier.snapshot(),
        }
