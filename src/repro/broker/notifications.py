"""The notification engine: match → subscriber delivery (Figure 2).

"When the incoming event verifies a subscription, the event dispatcher
sends a notification to the corresponding subscriber" (paper §1).  This
engine owns that last hop: it renders a :class:`SemanticMatch` into a
message, walks the subscriber's transport preferences, retries
transient failures with bounded attempts, and journals every outcome.
Undeliverable notifications land in a dead-letter list instead of
failing the publish path — a slow SMS gateway must not stall the
matcher.

Delivery is *at-least-once with per-subscription sequences*: every
notification carries a monotonic ``sequence`` scoped to its
subscription, the engine keeps a bounded per-subscription delivery log,
and — when the broker is durable — an outbox record is journaled before
each send and an ack after, so crash recovery can reconcile regenerated
matches against what actually went out (already-acked sequences are
dropped, un-acked ones re-sent).  ``replay_from`` re-delivers the
retained log from a sequence number for reconnecting subscribers, who
dedup by ``(sub_id, sequence)``.

Everything kept per delivery is a ``deque(maxlen=history_limit)``, and
everything kept per subscription (log, sequence counter, frontier) is
dropped by :meth:`NotificationEngine.forget` when it unsubscribes, so
the engine's footprint follows the live subscriptions and the window,
not the number of notifications ever sent.

The notification-id counter is engine-owned (not module-global) and
restorable from a snapshot, so ids stay unique across a crash-restart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from sys import intern
from typing import Iterator

from repro.broker.clients import Client
from repro.broker.transports import (
    DeliveryRecord,
    OutboundMessage,
    SmsTransport,
    TransportRegistry,
    default_transports,
)
from repro.core.provenance import SemanticMatch
from repro.errors import DeliveryError, TransportError, UnknownClientError

__all__ = ["Notification", "NotificationEngine", "DeliveryOutcome", "DeliveryEntry"]


@dataclass(frozen=True)
class Notification:
    """A match destined for one subscriber, stamped with its
    subscription-scoped delivery sequence."""

    notification_id: str
    client: Client
    match: SemanticMatch | None
    sub_id: str = ""
    sequence: int = 0

    def subject(self) -> str:
        if self.match is None:  # replayed from the journal: pre-rendered
            return f"S-ToPSS: replay of {self.notification_id}"
        return (
            f"S-ToPSS: subscription {self.match.subscription.sub_id} matched "
            f"event {self.match.event.event_id}"
        )

    def body(self) -> str:
        return "" if self.match is None else self.match.explain()


@dataclass(frozen=True)
class DeliveryOutcome:
    """Final fate of one notification."""

    notification: Notification
    record: DeliveryRecord | None
    attempts: int
    delivered: bool
    transport: str = ""
    error: str = ""


@dataclass(slots=True)
class DeliveryEntry:
    """One row of the per-subscription delivery log: everything needed
    to re-send without the original match object (the journal stores the
    rendered message, so replay works across restarts).  Rows decoded
    from JSON go through :meth:`restored`, so a client's or an event's
    rows share one id string as live rows do."""

    sequence: int
    notification_id: str
    client_id: str
    event_id: str
    subject: str
    body: str
    status: str = "pending"  # pending | acked | dead

    @classmethod
    def restored(cls, seq, nid, client_id, event_id, subject, body, status) -> "DeliveryEntry":
        return cls(seq, nid, intern(client_id), intern(event_id), subject, body, intern(status))


@dataclass
class _EngineStats:
    notifications: int = 0
    delivered: int = 0
    dead_lettered: int = 0
    retries: int = 0
    fallbacks: int = 0
    history_evictions: int = 0
    per_transport: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict[str, object]:
        return {
            "notifications": self.notifications,
            "delivered": self.delivered,
            "dead_lettered": self.dead_lettered,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "history_evictions": self.history_evictions,
            "per_transport": dict(self.per_transport),
        }


class NotificationEngine:
    """Multi-transport notification delivery with retry and fallback.

    Parameters
    ----------
    transports: the transport registry (defaults to the demo's four).
    max_attempts_per_transport: bounded retries for transient failures.
    raise_on_dead_letter: tests may prefer a loud
        :class:`~repro.errors.DeliveryError` over silent dead-lettering.
    history_limit: capacity of the outcome journal, the dead-letter
        list, and each subscription's delivery log; the oldest entry is
        evicted at capacity (counted in ``history_evictions``), which
        also bounds how far back ``replay_from`` can reach.
    durability: the broker's :class:`~repro.broker.durability
        .Durability` store, when deliveries should be journaled
        (outbox-before-send, ack-after).
    """

    def __init__(
        self,
        transports: TransportRegistry | None = None,
        *,
        max_attempts_per_transport: int = 3,
        raise_on_dead_letter: bool = False,
        history_limit: int = 1024,
        durability=None,
    ) -> None:
        self.transports = transports if transports is not None else default_transports()
        if max_attempts_per_transport < 1:
            raise DeliveryError("max_attempts_per_transport must be >= 1")
        if history_limit < 1:
            raise DeliveryError("history_limit must be >= 1")
        self.max_attempts = max_attempts_per_transport
        self.raise_on_dead_letter = raise_on_dead_letter
        self.history_limit = history_limit
        self.durability = durability
        self.outcomes: deque[DeliveryOutcome] = deque(maxlen=history_limit)
        self.dead_letters: deque[Notification] = deque(maxlen=history_limit)
        self.stats = _EngineStats()
        #: engine-owned, snapshot-restorable id counter (a module global
        #: would restart at 1 after recovery and collide)
        self._next_notification = 1
        self._next_seq: dict[str, int] = {}
        self._delivery_log: dict[str, deque[DeliveryEntry]] = {}
        self._frontier: dict[str, int] = {}
        #: pending entries restored from a snapshot, per subscription
        #: (their publishes were compacted away, so recovery re-sends
        #: them directly)
        self._restored_pending: dict[str, list[DeliveryEntry]] = {}
        #: recovery only: per subscription id, the journaled outbox
        #: entries in append order with one ``None`` per journaled
        #: unsubscribe of that id, delivery or not.  A replayed
        #: unsubscribe pops through the first ``None``; whatever remains
        #: belongs to a later subscription that re-used the id
        self._replay_ledger: dict[str, deque[DeliveryEntry | None]] | None = None
        self._replay_stats = None

    # -- bounded history ---------------------------------------------------------

    def _bounded_append(self, store: deque, item) -> None:
        """Append to a ``maxlen=history_limit`` deque, counting the
        entry it pushes out."""
        if len(store) == self.history_limit:
            self.stats.history_evictions += 1
        store.append(item)

    def _log_entry(self, sub_id: str, entry: DeliveryEntry) -> None:
        log = self._delivery_log.get(sub_id)
        if log is None:
            log = self._delivery_log[sub_id] = deque(maxlen=self.history_limit)
        self._bounded_append(log, entry)

    def forget(self, sub_id: str) -> None:
        """Drop what is kept for a subscription that unsubscribed: its
        delivery log, sequence counter and frontier (an id subscribed
        again later starts a new stream at sequence 1).

        While recovery replays a journaled unsubscribe, the ended
        stream's part of the replay ledger goes first, so
        :meth:`finish_replay` cannot re-send it; if more remains, the
        state is a later stream's, already adopted by the ledger pass,
        and is left alone."""
        if self._replay_ledger is not None:
            queue = self._replay_ledger.get(sub_id)
            while queue and queue.popleft() is not None:
                pass
            if queue:
                return
        self._delivery_log.pop(sub_id, None)
        self._next_seq.pop(sub_id, None)
        self._frontier.pop(sub_id, None)
        self._restored_pending.pop(sub_id, None)

    # -- delivery --------------------------------------------------------------

    def notify(self, client: Client, match: SemanticMatch) -> DeliveryOutcome:
        """Render and deliver one match to one subscriber.  During
        crash-recovery replay, regenerated matches are reconciled
        against the journaled outbox instead of blindly re-sent."""
        sub_id = match.subscription.sub_id
        if self._replay_ledger is not None:
            queue = self._replay_ledger.get(sub_id)
            if queue and queue[0] is not None:
                entry = queue.popleft()
                notification = Notification(
                    entry.notification_id, client, match, sub_id=sub_id, sequence=entry.sequence
                )
                if entry.status != "pending":
                    # the uncrashed run already settled this sequence:
                    # idempotent redelivery drops it
                    self._replay_stats.dedup_drops += 1
                    return DeliveryOutcome(
                        notification, None, 0, entry.status == "acked", transport="journal"
                    )
                outcome = self._walk_transports(notification, entry.subject, entry.body)
                self._replay_stats.replayed_deliveries += 1
                self._settle(sub_id, entry, outcome.delivered)
                return self._finish(outcome)
            # no journaled outbox for this match: the crash hit before
            # the send started — fall through to a fresh delivery
        sequence = self._next_seq.get(sub_id, 1)
        self._next_seq[sub_id] = sequence + 1
        notification = Notification(
            f"n{self._next_notification}", client, match, sub_id=sub_id, sequence=sequence
        )
        self._next_notification += 1
        subject, body = notification.subject(), notification.body()
        entry = DeliveryEntry(
            sequence,
            notification.notification_id,
            client.client_id,
            match.event.event_id,
            subject,
            body,
        )
        self._log_entry(sub_id, entry)
        if self.durability is not None:
            self.durability.append(
                {
                    "k": "out",
                    "sid": sub_id,
                    "n": sequence,
                    "nid": notification.notification_id,
                    "cid": client.client_id,
                    "eid": entry.event_id,
                    "subject": subject,
                    "body": body,
                }
            )
        outcome = self._walk_transports(notification, subject, body)
        if self._replay_stats is not None:
            self._replay_stats.replayed_deliveries += 1
        self._settle(sub_id, entry, outcome.delivered)
        return self._finish(outcome)

    def _settle(self, sub_id: str, entry: DeliveryEntry, delivered: bool) -> None:
        """Terminal bookkeeping for one send: log status, delivered
        frontier, and the journaled ack (``ok=False`` marks a
        dead-letter terminal so recovery never re-sends it either)."""
        entry.status = "acked" if delivered else "dead"
        if delivered:
            self._frontier[sub_id] = max(self._frontier.get(sub_id, 0), entry.sequence)
        if self.durability is not None:
            self.durability.append(
                {"k": "ack", "sid": sub_id, "n": entry.sequence, "ok": delivered}
            )

    def _walk_transports(
        self, notification: Notification, subject: str, rendered_body: str
    ) -> DeliveryOutcome:
        """The transport-preference walk with bounded retries; returns
        the outcome without recording it (callers settle + finish)."""
        client = notification.client
        self.stats.notifications += 1
        attempts = 0
        last_error = ""
        preferences = client.preferred_transports()
        if not preferences:
            return DeliveryOutcome(notification, None, 0, False, error="client has no addresses")
        for position, transport_name in enumerate(preferences):
            if transport_name not in self.transports:
                last_error = f"unknown transport {transport_name!r}"
                continue
            if position > 0:
                self.stats.fallbacks += 1
            transport = self.transports.get(transport_name)
            address = client.address_for(transport_name) or ""
            body = rendered_body
            if isinstance(transport, SmsTransport):
                body = SmsTransport.render(subject, body)
            for attempt in range(1, self.max_attempts + 1):
                attempts += 1
                if attempt > 1:
                    self.stats.retries += 1
                message = OutboundMessage(
                    transport=transport_name,
                    address=address,
                    subject=subject,
                    body=body,
                    notification_id=notification.notification_id,
                    attempt=attempt,
                )
                try:
                    record = transport.send(message)
                except TransportError as exc:
                    last_error = str(exc)
                    continue
                # UDP "drops" are successful sends from the engine's
                # perspective: fire-and-forget semantics.
                self.stats.delivered += 1
                self.stats.per_transport[transport_name] = (
                    self.stats.per_transport.get(transport_name, 0) + 1
                )
                return DeliveryOutcome(
                    notification, record, attempts, True, transport=transport_name
                )
        return DeliveryOutcome(notification, None, attempts, False, error=last_error)

    def _finish(self, outcome: DeliveryOutcome) -> DeliveryOutcome:
        self._bounded_append(self.outcomes, outcome)
        if not outcome.delivered:
            self._bounded_append(self.dead_letters, outcome.notification)
            self.stats.dead_lettered += 1
            if self.raise_on_dead_letter:
                raise DeliveryError(
                    f"notification {outcome.notification.notification_id} "
                    f"undeliverable: {outcome.error}"
                )
        return outcome

    # -- replay-from-sequence ------------------------------------------------------

    def replay_from(self, sub_id: str, sequence: int, registry) -> list[DeliveryOutcome]:
        """Re-deliver every retained delivery-log entry for *sub_id*
        with ``sequence >= sequence`` (a reconnecting subscriber's
        catch-up; it dedups by sequence number).  Still-pending entries
        are settled by their re-send; already-settled ones keep their
        status.  Bounded by ``history_limit`` — evicted entries are
        gone."""
        outcomes = []
        for entry in list(self._delivery_log.get(sub_id, ())):
            if entry.sequence < sequence:
                continue
            outcomes.append(self._redeliver(sub_id, entry, registry))
        return outcomes

    def _redeliver(self, sub_id: str, entry: DeliveryEntry, registry) -> DeliveryOutcome:
        """Re-send one journaled delivery from its stored rendered
        message (no match object needed)."""
        notification = Notification(
            entry.notification_id, None, None, sub_id=sub_id, sequence=entry.sequence
        )
        try:
            client = registry.get(entry.client_id)
        except UnknownClientError:
            outcome = DeliveryOutcome(
                notification, None, 0, False, error=f"client {entry.client_id!r} removed"
            )
            if entry.status == "pending":
                self._settle(sub_id, entry, False)
            return outcome
        notification = Notification(
            entry.notification_id, client, None, sub_id=sub_id, sequence=entry.sequence
        )
        outcome = self._walk_transports(notification, entry.subject, entry.body)
        if self.durability is not None:
            self.durability.stats.replayed_deliveries += 1
        if entry.status == "pending":
            self._settle(sub_id, entry, outcome.delivered)
        return outcome

    # -- crash-recovery protocol (driven by durability.recover) --------------------

    def begin_replay(self, records, stats) -> None:
        """The ledger pass, then reconciliation mode.  *records* is the
        journal tail in append order: every ``out`` is adopted into the
        delivery log and the sequence/id counters and queued on its
        subscription's ledger, every ``ack`` settles its entry (the send
        reached its terminal state before the crash), and every
        ``unsub`` forgets the subscription as the live call did, leaving
        a ``None`` on its ledger queue where it ended.  From here until
        :meth:`finish_replay`, regenerated matches consume the ledger
        instead of drawing fresh sequences."""
        ledger: dict[str, deque[DeliveryEntry | None]] = {}
        for record in records:
            kind = record["k"]
            if kind == "out":
                sub_id = record["sid"]
                entry = DeliveryEntry.restored(
                    record["n"],
                    record["nid"],
                    record["cid"],
                    record.get("eid", ""),
                    record.get("subject", ""),
                    record.get("body", ""),
                    "pending",
                )
                self._log_entry(sub_id, entry)
                self._next_seq[sub_id] = max(self._next_seq.get(sub_id, 1), entry.sequence + 1)
                nid = entry.notification_id
                if nid.startswith("n") and nid[1:].isdigit():
                    self._next_notification = max(self._next_notification, int(nid[1:]) + 1)
                ledger.setdefault(sub_id, deque()).append(entry)
            elif kind == "ack":
                sub_id, sequence = record["sid"], record["n"]
                for entry in reversed(self._delivery_log.get(sub_id, ())):
                    if entry.sequence == sequence:
                        entry.status = "acked" if record["ok"] else "dead"
                        break
                if record["ok"]:
                    self._frontier[sub_id] = max(self._frontier.get(sub_id, 0), sequence)
            elif kind == "unsub":
                sub_id = record["sid"]
                self.forget(sub_id)
                ledger.setdefault(sub_id, deque()).append(None)
        self._replay_ledger = ledger
        self._replay_stats = stats

    def finish_replay(self, registry) -> None:
        """Leave reconciliation mode; any journaled-but-unacked entry
        replay did not regenerate (snapshot-compacted publishes) is
        re-sent directly from its stored message — at-least-once."""
        leftovers = [
            (sub_id, entry)
            for sub_id, entries in self._restored_pending.items()
            for entry in entries
        ]
        for sub_id, queue in self._replay_ledger.items():
            for entry in queue:
                if entry is not None and entry.status == "pending":
                    leftovers.append((sub_id, entry))
        self._replay_ledger = None
        self._restored_pending = {}
        for sub_id, entry in leftovers:
            self._redeliver(sub_id, entry, registry)
        self._replay_stats = None

    # -- durable state -------------------------------------------------------------

    def durable_state(self) -> Iterator[dict]:
        """Snapshot-side state as a stream of small records: one
        ``notifier`` record (the id counter), then one ``log`` record per
        subscription (sequence counter, delivered frontier, retained
        delivery log) — at most ``history_limit`` entries each, so no
        record grows with the number of deliveries ever made."""
        yield {"k": "notifier", "next_notification": self._next_notification}
        # every subscription with a log or a frontier drew a sequence first
        for sub_id, next_seq in self._next_seq.items():
            yield {
                "k": "log",
                "sid": sub_id,
                "next_seq": next_seq,
                "frontier": self._frontier.get(sub_id, 0),
                "entries": [
                    [
                        e.sequence,
                        e.notification_id,
                        e.client_id,
                        e.event_id,
                        e.subject,
                        e.body,
                        e.status,
                    ]
                    for e in self._delivery_log.get(sub_id, ())
                ],
            }

    def restore(self, record: dict) -> None:
        """Apply one :meth:`durable_state` record; pending entries are
        queued for re-send when recovery finishes."""
        if record["k"] == "notifier":
            self._next_notification = int(record["next_notification"])
            return
        sub_id = record["sid"]
        self._next_seq[sub_id] = int(record["next_seq"])
        if record["frontier"]:
            self._frontier[sub_id] = int(record["frontier"])
        for fields in record["entries"]:
            entry = DeliveryEntry.restored(*fields)
            self._log_entry(sub_id, entry)
            if entry.status == "pending":
                self._restored_pending.setdefault(sub_id, []).append(entry)

    # -- reporting ----------------------------------------------------------------

    def delivered_to(self, client_id: str) -> list[DeliveryOutcome]:
        """Delivery outcomes for one subscriber, in order."""
        return [
            outcome
            for outcome in self.outcomes
            if outcome.notification.client is not None
            and outcome.notification.client.client_id == client_id
            and outcome.delivered
        ]

    def delivery_frontiers(self) -> dict[str, int]:
        """Highest acked delivery sequence per subscription — the
        quantity crash recovery must preserve exactly."""
        return dict(self._frontier)

    def delivery_log(self, sub_id: str) -> list[DeliveryEntry]:
        """The retained (bounded) delivery log for one subscription."""
        return list(self._delivery_log.get(sub_id, ()))

    def snapshot(self) -> dict[str, object]:
        data = self.stats.snapshot()
        data["dead_letters"] = len(self.dead_letters)
        data["transports"] = self.transports.stats()
        return data

    def reset(self) -> None:
        self.outcomes.clear()
        self.dead_letters.clear()
        self.stats = _EngineStats()
        self.transports.reset()
