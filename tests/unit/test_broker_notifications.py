"""Unit tests for the notification engine."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.broker.clients import Client, ClientKind, ClientRegistry
from repro.broker.notifications import NotificationEngine
from repro.broker.transports import (
    SmsTransport,
    SmtpTransport,
    TcpTransport,
    TransportRegistry,
    UdpTransport,
)
from repro.core.provenance import DerivationStep, DerivedEvent, SemanticMatch
from repro.errors import DeliveryError
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription


def _match() -> SemanticMatch:
    event = Event({"degree": "PhD"}, event_id="e1")
    sub = Subscription([Predicate.eq("degree", "PhD")], sub_id="s1")
    return SemanticMatch(sub, event, DerivedEvent.original(event), 0)


def _client(*addresses) -> Client:
    return Client("c1", "Initech", ClientKind.SUBSCRIBER, tuple(addresses))


def _engine(**kwargs) -> NotificationEngine:
    registry = TransportRegistry(
        [
            SmsTransport(failure_rate=0.0),
            SmtpTransport(failure_rate=0.0),
            TcpTransport(),
            UdpTransport(drop_rate=0.0),
        ]
    )
    return NotificationEngine(registry, **kwargs)


class TestDelivery:
    def test_preferred_transport_used(self):
        engine = _engine()
        outcome = engine.notify(_client(("smtp", "hr@x"), ("sms", "+1")), _match())
        assert outcome.delivered and outcome.transport == "smtp"
        assert outcome.attempts == 1

    def test_retry_then_success(self):
        engine = _engine()
        engine.transports.get("smtp").fail_next(2)
        outcome = engine.notify(_client(("smtp", "hr@x")), _match())
        assert outcome.delivered and outcome.attempts == 3
        assert engine.stats.retries == 2

    def test_fallback_to_next_transport(self):
        engine = _engine()
        engine.transports.get("smtp").fail_next(10)
        outcome = engine.notify(_client(("smtp", "hr@x"), ("tcp", "host:1")), _match())
        assert outcome.delivered and outcome.transport == "tcp"
        assert engine.stats.fallbacks == 1

    def test_exhaustion_dead_letters(self):
        engine = _engine()
        engine.transports.get("smtp").fail_next(10)
        outcome = engine.notify(_client(("smtp", "hr@x")), _match())
        assert not outcome.delivered
        assert engine.dead_letters and engine.stats.dead_lettered == 1

    def test_raise_on_dead_letter(self):
        engine = _engine(raise_on_dead_letter=True)
        engine.transports.get("smtp").fail_next(10)
        with pytest.raises(DeliveryError):
            engine.notify(_client(("smtp", "hr@x")), _match())

    def test_no_addresses_dead_letters(self):
        engine = _engine()
        outcome = engine.notify(_client(), _match())
        assert not outcome.delivered
        assert "no addresses" in outcome.error

    def test_unknown_transport_skipped(self):
        engine = _engine()
        outcome = engine.notify(_client(("pigeon", "coop"), ("tcp", "host:1")), _match())
        assert outcome.delivered and outcome.transport == "tcp"

    def test_udp_drop_counts_as_sent(self):
        registry = TransportRegistry([UdpTransport(drop_rate=0.999999, seed=3)])
        engine = NotificationEngine(registry)
        outcome = engine.notify(_client(("udp", "host:9")), _match())
        assert outcome.delivered  # fire-and-forget semantics

    def test_sms_body_rendered_short(self):
        engine = _engine()
        outcome = engine.notify(_client(("sms", "+1")), _match())
        assert outcome.record.message.transport == "sms"
        assert len(outcome.record.message.body) <= SmsTransport.MAX_LENGTH

    def test_invalid_max_attempts(self):
        with pytest.raises(DeliveryError):
            _engine(max_attempts_per_transport=0)


class TestReporting:
    def test_delivered_to_filters_by_client(self):
        engine = _engine()
        engine.notify(_client(("tcp", "h:1")), _match())
        assert len(engine.delivered_to("c1")) == 1
        assert engine.delivered_to("other") == []

    def test_snapshot_shape(self):
        engine = _engine()
        engine.notify(_client(("tcp", "h:1")), _match())
        snap = engine.snapshot()
        assert snap["notifications"] == 1
        assert snap["delivered"] == 1
        assert snap["per_transport"] == {"tcp": 1}
        assert "transports" in snap

    def test_reset(self):
        engine = _engine()
        engine.notify(_client(("tcp", "h:1")), _match())
        engine.reset()
        assert engine.snapshot()["notifications"] == 0
        assert not engine.outcomes

    def test_notification_rendering(self):
        engine = _engine()
        outcome = engine.notify(_client(("smtp", "hr@x")), _match())
        assert "s1" in outcome.notification.subject()
        assert "e1" in outcome.notification.subject()
        assert "matched" in outcome.notification.body()


class TestBoundedRetention:
    """Nothing the engine keeps grows with the number of notifications
    sent: every store is a window of ``history_limit`` and every total a
    counter."""

    LIMIT = 8

    def _sub_match(self, sub_id: str, index: int) -> SemanticMatch:
        event = Event({"degree": "PhD"}, event_id=f"e{index}")
        sub = Subscription([Predicate.eq("degree", "PhD")], sub_id=sub_id)
        return SemanticMatch(sub, event, DerivedEvent.original(event), 0)

    def test_windows_hold_and_counters_stay_cumulative(self):
        limit = self.LIMIT
        engine = _engine(history_limit=limit)
        reachable = _client(("smtp", "hr@x"))
        unreachable = Client("c2", "Nowhere", ClientKind.SUBSCRIBER, (("pigeon", "coop"),))
        sends = 3 * limit + 1
        for index in range(sends):
            for sub_id in ("s1", "s2"):
                # each send's record reaches the caller; the transport keeps none
                outcome = engine.notify(reachable, self._sub_match(sub_id, index))
                assert outcome.delivered and outcome.record.ok
                assert outcome.record.message.transport == "smtp"
            assert not engine.notify(unreachable, self._sub_match("s3", index)).delivered

        smtp = engine.transports.get("smtp")
        logs = [engine.delivery_log(sub_id) for sub_id in ("s1", "s2", "s3")]
        assert [len(store) for store in (engine.outcomes, engine.dead_letters, *logs)] == (
            [limit] * 5
        )
        # the newest entries are the ones kept
        assert [e.sequence for e in engine.delivery_log("s1")] == list(
            range(sends - limit + 1, sends + 1)
        )
        assert engine.outcomes[-1].notification.sub_id == "s3"

        # totals are the true cumulative counts, not the window's
        snapshot = engine.snapshot()
        assert snapshot["notifications"] == 3 * sends
        assert snapshot["delivered"] == 2 * sends
        assert snapshot["dead_lettered"] == sends
        assert snapshot["dead_letters"] == limit  # the retained window
        assert snapshot["transports"]["smtp"]["delivered"] == 2 * sends
        assert smtp.delivered_count() == 2 * sends
        evicted = (3 * sends - limit) + (sends - limit) + 3 * (sends - limit)
        assert engine.stats.history_evictions == evicted
        assert engine.delivery_frontiers() == {"s1": sends, "s2": sends}

    def test_forget_drops_every_per_subscription_key(self):
        engine = _engine()
        client = _client(("tcp", "h:1"))
        engine.notify(client, self._sub_match("kept", 0))
        before = (set(engine._delivery_log), set(engine._next_seq), set(engine._frontier))
        for index in range(3):
            engine.notify(client, self._sub_match("gone", index))
        engine.forget("gone")
        assert (set(engine._delivery_log), set(engine._next_seq), set(engine._frontier)) == before
        assert engine.delivery_log("gone") == []
        # the id, subscribed again, starts a new stream
        assert engine.notify(client, self._sub_match("gone", 9)).notification.sequence == 1
        engine.forget("never-delivered")  # no-op, not an error

    def test_delivery_entries_are_slotted_and_share_ids(self):
        engine = _engine()
        client = _client(("tcp", "h:1"))
        for index in range(2):
            engine.notify(client, self._sub_match("s1", index))
        first, second = engine.delivery_log("s1")
        assert not hasattr(first, "__dict__")
        assert first.client_id is second.client_id
        assert first.status is second.status


class TestRetainedRowFootprint:
    """A retained delivery is a column entry: its numbers, a status byte
    and one reference to its publication's text (the subscription's ids
    and rendered part are the log's).  Pinned in traced bytes per row,
    live and after a ``restore()`` from JSON-decoded records; a row
    object with its own id string cost 172."""

    SUBS, PUBLICATIONS, BOUND = 64, 100, 64

    def _fan_out(self, engine, client) -> None:
        subs = [
            Subscription([Predicate.eq("degree", "PhD")], sub_id=f"s{index}")
            for index in range(self.SUBS)
        ]
        for index in range(self.PUBLICATIONS):
            event = Event({"degree": "PhD", "n": index}, event_id=f"e{index}")
            via = DerivedEvent.original(event)
            engine.fan_out([(client, SemanticMatch(sub, event, via, 0)) for sub in subs])

    def _bytes_per_row(self, engine) -> float:
        """Traced bytes that forgetting every subscription releases, per
        retained row (tracemalloc must have seen the rows allocated)."""
        rows = sum(len(engine.delivery_log(f"s{index}")) for index in range(self.SUBS))
        assert rows == self.SUBS * self.PUBLICATIONS
        held = tracemalloc.get_traced_memory()[0]
        for index in range(self.SUBS):
            engine.forget(f"s{index}")
        return (held - tracemalloc.get_traced_memory()[0]) / rows

    def test_live_and_restored_rows_cost_at_most_64_bytes(self):
        registry = ClientRegistry()
        client = registry.register("A", addresses=(("tcp", "a:1"),), client_id="cl-a")
        tracemalloc.start()
        try:
            live = _engine(history_limit=1024)
            self._fan_out(live, client)
            records = [json.loads(json.dumps(record)) for record in live.durable_state()]
            live_bytes = self._bytes_per_row(live)

            restored = _engine(history_limit=1024)
            for record in records:
                restored.restore(record)
            del records
            restored.begin_replay([], None)
            restored.finish_replay(registry)
            restored_bytes = self._bytes_per_row(restored)
        finally:
            tracemalloc.stop()
        assert live_bytes <= self.BOUND, live_bytes
        assert restored_bytes <= self.BOUND, restored_bytes


class TestPackedDerivationFootprint:
    """Once a publication's fan-out ends its derivations are kept as one
    zlib blob.  Pinned in traced bytes: what the retained texts' ``via``
    fields hold, against the same derivations as the list of rendered
    strings each text held before packing.  Derivations of one
    publication repeat its event and each other's steps, as derivations
    do."""

    SUBS, PUBLICATIONS = 8, 200

    @staticmethod
    def _derivation(event: Event, index: int) -> DerivedEvent:
        """Three generalization steps, each on one attribute of *event*."""
        derived = DerivedEvent.original(event)
        for attribute in ("degree", "university", "position"):
            value = f"{attribute}-generalization-{index}"
            pairs = {**dict(derived.event.items()), attribute: value}
            step = DerivationStep(
                "hierarchy", f"{attribute}: {event[attribute]} is-a {value}", attribute, 1
            )
            derived = derived.extend(Event(pairs, event_id=event.event_id), step)
        return derived

    def _fan_out(self, engine, client) -> None:
        subs = [
            Subscription([Predicate.eq("degree", f"d{index}")], sub_id=f"s{index}")
            for index in range(self.SUBS)
        ]
        for number in range(self.PUBLICATIONS):
            event = Event(
                {
                    "degree": "PhD",
                    "university": "Toronto",
                    "position": "research engineer",
                    "experience": number % 17,
                    "n": number,
                },
                event_id=f"e{number}",
            )
            engine.fan_out(
                [
                    (client, SemanticMatch(sub, event, self._derivation(event, index), 3))
                    for index, sub in enumerate(subs)
                ]
            )

    def test_retained_derivations_cost_a_quarter_of_their_text(self):
        registry = ClientRegistry()
        client = registry.register("A", addresses=(("tcp", "a:1"),), client_id="cl-a")
        engine = _engine(history_limit=1024)
        tracemalloc.start()
        try:
            self._fan_out(engine, client)
            texts = list(
                {
                    id(text): text
                    for index in range(self.SUBS)
                    for text in engine.retained_log(f"s{index}").ordered_texts()
                }.values()
            )
            assert len(texts) == self.PUBLICATIONS
            assert all(len(text.derivations()) == self.SUBS for text in texts)

            before = tracemalloc.get_traced_memory()[0]
            unpacked = [text.derivations() for text in texts]
            unpacked_bytes = tracemalloc.get_traced_memory()[0] - before
            del unpacked

            held = tracemalloc.get_traced_memory()[0]
            for text in texts:
                text.via = b""
            retained_bytes = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # ~390 characters a derivation (~480 on the benchmark's workloads)
        assert unpacked_bytes > self.PUBLICATIONS * self.SUBS * 350, unpacked_bytes
        assert retained_bytes * 4 <= unpacked_bytes, (retained_bytes, unpacked_bytes)
