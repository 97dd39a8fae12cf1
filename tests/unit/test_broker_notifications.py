"""Unit tests for the notification engine."""

from __future__ import annotations

import gc
import json
import tracemalloc
import zlib
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.broker.clients import Client, ClientKind, ClientRegistry
from repro.broker.notifications import NotificationEngine, PublicationText
from repro.broker.transports import (
    SmsTransport,
    SmtpTransport,
    TcpTransport,
    TransportRegistry,
    UdpTransport,
)
from repro.core.provenance import GENERAL, SemanticMatch, Witness
from repro.errors import DeliveryError
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription


def _match() -> SemanticMatch:
    event = Event({"degree": "PhD"}, event_id="e1")
    sub = Subscription([Predicate.eq("degree", "PhD")], sub_id="s1")
    return SemanticMatch(sub, event, Witness(), 0)


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

    def test_delivered_to_reads_the_acked_rows_with_their_transport(self):
        engine = _engine()
        client = _client(("pigeon", "coop"), ("smtp", "hr@x"), ("tcp", "h:1"))
        gone = Client("c1", "Initech", ClientKind.SUBSCRIBER, (("pigeon", "coop"),))
        subs = [Subscription([Predicate.eq("degree", "PhD")], sub_id=s) for s in ("s1", "s2")]
        event = Event({"degree": "PhD"}, event_id="e1")
        engine.notify(client, SemanticMatch(subs[1], event, Witness(), 0))
        engine.transports.get("smtp").fail_next(engine.max_attempts)
        engine.notify(client, SemanticMatch(subs[0], event, Witness(), 0))
        engine.notify(gone, SemanticMatch(subs[1], event, Witness(), 0))  # dead
        engine.notify(client, SemanticMatch(subs[0], event, Witness(), 0))
        rows = engine.delivered_to("c1")
        # oldest notification first, across the client's subscriptions
        assert [(e.notification_id, e.sub_id, e.transport) for e in rows] == [
            ("n1", "s2", "smtp"), ("n2", "s1", "tcp"), ("n4", "s1", "smtp"),
        ]  # fmt: skip
        assert [e.status for e in engine.delivery_log("s2")] == ["acked", "dead"]
        # the carrier rides in the status byte: the row stays 3 B
        log = engine.retained_log("s1")
        assert len(log.marks) == len(log.ordinals) == 2
        assert log.marks.typecode == "B"  # every derivation index is 0
        # a status forged without a carrier reads no transport
        log.set_status(2, "acked")
        assert [e.transport for e in engine.delivered_to("c1")] == ["smtp", "tcp", ""]

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
        engine.notify(_client(("pigeon", "coop")), _match())
        assert len(engine.dead_letters) == 1
        engine.reset()
        assert engine.snapshot()["notifications"] == 0
        assert not engine.dead_letters
        assert not hasattr(engine, "outcomes")  # a send's outcome is the caller's

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
        return SemanticMatch(sub, event, Witness(), 0)

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
        assert [len(store) for store in (engine.dead_letters, *logs)] == [limit] * 4
        # the newest entries are the ones kept
        assert [e.sequence for e in engine.delivery_log("s1")] == list(
            range(sends - limit + 1, sends + 1)
        )
        assert engine.dead_letters[-1].sub_id == "s3"

        # totals are the true cumulative counts, not the window's
        snapshot = engine.snapshot()
        assert snapshot["notifications"] == 3 * sends
        assert snapshot["delivered"] == 2 * sends
        assert snapshot["dead_lettered"] == sends
        assert snapshot["dead_letters"] == limit  # the retained window
        assert snapshot["transports"]["smtp"]["delivered"] == 2 * sends
        assert smtp.delivered_count() == 2 * sends
        evicted = (sends - limit) + 3 * (sends - limit)
        assert engine.stats.history_evictions == evicted
        assert engine.delivery_frontiers() == {"s1": sends, "s2": sends}

    def test_traced_memory_does_not_grow_with_the_sends(self):
        """5,000 sends to one subscription leave nothing behind outside
        its delivery log: once the subscription is forgotten, the engine
        holds what it held after one warm-up send (which made every
        lazily built store), whatever the window."""
        client = _client(("tcp", "h:1"))
        tracemalloc.start()
        try:
            engine = _engine(history_limit=self.LIMIT)
            engine.notify(client, self._sub_match("warm", 0))
            engine.forget("warm")
            gc.collect()  # the test's own matches form cycles
            warm = tracemalloc.get_traced_memory()[0]
            for index in range(5000):
                engine.notify(client, self._sub_match("s1", index))
            assert len(engine.delivery_log("s1")) == self.LIMIT
            engine.forget("s1")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # one kept outcome (its notification, message, rendered body and
        # match) costs over a kilobyte
        assert held - warm < 1024, held - warm

    def test_forget_drops_every_per_subscription_key(self):
        engine = _engine()
        client = _client(("tcp", "h:1"))
        engine.notify(client, self._sub_match("kept", 0))
        before = (set(engine._delivery_log), engine.delivery_frontiers())
        for index in range(3):
            engine.notify(client, self._sub_match("gone", index))
        assert engine.retained_log("gone").next_seq == 4
        engine.forget("gone")
        assert (set(engine._delivery_log), engine.delivery_frontiers()) == before
        assert engine.delivery_log("gone") == []
        # the id, subscribed again, starts a new stream
        assert engine.notify(client, self._sub_match("gone", 9)).notification.sequence == 1
        engine.forget("never-delivered")  # no-op, not an error

    def test_recovery_into_a_narrower_window_keeps_the_newest_rows(self):
        """A snapshot written under a wider window wraps the log a
        narrower engine restores it into; the journal tail's rows still
        follow it in age order, each adopted row evicting the oldest, so
        the log holds the newest ``history_limit``."""
        tail: list[dict] = []
        journal = SimpleNamespace(
            append=lambda record: tail.append(json.loads(json.dumps(record))),
            stats=SimpleNamespace(dedup_drops=0),
        )
        wide = _engine(history_limit=5, durability=journal)
        client = _client(("tcp", "h:1"))
        for index in range(5):
            wide.notify(client, self._sub_match("s1", index))
        snapshot = [json.loads(json.dumps(record)) for record in wide.durable_state()]
        tail.clear()
        for index in range(5, 8):
            wide.notify(client, self._sub_match("s1", index))

        narrow = _engine(history_limit=2)
        # the subscription the rows are of, as recovery reads it
        subscription = self._sub_match("s1", 0).subscription
        owners = {"s1": Subscription(subscription.predicates, subscriber_id="c1", sub_id="s1")}
        for record in snapshot:
            narrow.restore(record, owners)
        assert narrow.retained_log("s1").start == 1  # the ring wrapped
        for record in tail:
            narrow.adopt(record, owners, journal.stats)
        assert [e.sequence for e in narrow.delivery_log("s1")] == [7, 8]
        assert journal.stats.dedup_drops == 3  # each tail row, settled by its acks
        narrow.finish_replay(ClientRegistry())
        rows = narrow.delivery_log("s1")
        kept = [(e.sequence, e.notification_id, e.event_id, e.status) for e in rows]
        assert kept == [(7, "n7", "e6", "acked"), (8, "n8", "e7", "acked")]
        assert narrow.stats.history_evictions == 3 + 3

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
    """A retained delivery is a column entry: its notification number as
    a one-byte offset from its publication's first, a one-byte
    derivation index, a status byte and its publication's text ordinal
    as a one-byte offset from its log's oldest (the subscription's ids
    and rendered part are the log's, the text is the engine's table's).
    Pinned in traced bytes per row, live and after a ``restore()`` from
    JSON-decoded records, the row's share of its text included; a row
    object with its own id string cost 172, a row that referenced its
    text ~20."""

    SUBS, PUBLICATIONS, BOUND = 64, 100, 16

    def _subs(self, client_id: str | None = None) -> list[Subscription]:
        return [
            Subscription(
                [Predicate.eq("degree", "PhD")], subscriber_id=client_id, sub_id=f"s{index}"
            )
            for index in range(self.SUBS)
        ]

    def _fan_out(self, engine, client) -> None:
        subs = self._subs()
        for index in range(self.PUBLICATIONS):
            event = Event({"degree": "PhD", "n": index}, event_id=f"e{index}")
            engine.fan_out([(client, SemanticMatch(sub, event, Witness(), 0)) for sub in subs])

    def _bytes_per_row(self, engine) -> float:
        """Traced bytes that forgetting every subscription releases, per
        retained row (tracemalloc must have seen the rows allocated)."""
        rows = sum(len(engine.delivery_log(f"s{index}")) for index in range(self.SUBS))
        assert rows == self.SUBS * self.PUBLICATIONS
        held = tracemalloc.get_traced_memory()[0]
        for index in range(self.SUBS):
            engine.forget(f"s{index}")
        return (held - tracemalloc.get_traced_memory()[0]) / rows

    def test_live_and_restored_rows_cost_at_most_16_bytes(self):
        registry = ClientRegistry()
        client = registry.register("A", addresses=(("tcp", "a:1"),), client_id="cl-a")
        tracemalloc.start()
        try:
            live = _engine(history_limit=1024)
            self._fan_out(live, client)
            records = [json.loads(json.dumps(record)) for record in live.durable_state()]
            live_bytes = self._bytes_per_row(live)

            restored = _engine(history_limit=1024)
            owners = {sub.sub_id: sub for sub in self._subs(client.client_id)}
            for record in records:
                restored.restore(record, owners)
            del records
            restored.finish_replay(registry)
            restored_bytes = self._bytes_per_row(restored)
        finally:
            tracemalloc.stop()
        assert live_bytes <= self.BOUND, live_bytes
        assert restored_bytes <= self.BOUND, restored_bytes


class TestTextTable:
    """The engine keeps a publication's text while, and only while, a
    retained row names it: after ring eviction, after ``forget`` and
    after recovery, its table holds exactly the texts some row names,
    each counting the rows that name it, and a log holds no text of its
    own."""

    LIMIT = 4

    @staticmethod
    def _publish(engine, client, subs, index: int) -> None:
        event = Event({"degree": "PhD", "n": index}, event_id=f"e{index}")
        engine.fan_out([(client, SemanticMatch(sub, event, Witness(), 0)) for sub in subs])

    @staticmethod
    def _assert_named_texts_only(engine, sub_ids) -> None:
        named = Counter()
        for sub_id in sub_ids:
            log = engine.retained_log(sub_id)
            assert not any(isinstance(held, (list, PublicationText)) for held in log.columns())
            named.update(text.ordinal for text in log.ordered_texts())
        assert {ordinal: text.refs for ordinal, text in engine._texts.items()} == dict(named)

    def test_an_idle_and_a_busy_subscription_keep_just_their_rows_texts(self):
        registry = ClientRegistry()
        client = registry.register("A", addresses=(("tcp", "a:1"),), client_id="cl-a")
        idle, busy = (
            Subscription([Predicate.eq("degree", "PhD")], subscriber_id="cl-a", sub_id=sub_id)
            for sub_id in ("idle", "busy")
        )
        engine = _engine(history_limit=self.LIMIT)
        self._publish(engine, client, [idle, busy], 0)
        for index in range(1, 10 * self.LIMIT):
            self._publish(engine, client, [busy], index)
            self._assert_named_texts_only(engine, ("idle", "busy"))
        # idle's one row keeps e0; busy's ring keeps its last LIMIT
        event_ids = sorted(int(text.event_id[1:]) for text in engine._texts.values())
        assert event_ids == [0, *range(9 * self.LIMIT, 10 * self.LIMIT)]

        records = [json.loads(json.dumps(record)) for record in engine.durable_state()]
        restored = _engine(history_limit=self.LIMIT - 1)  # a narrower window evicts as it restores
        # a second log record of one stream replaces the first
        for record in records + [records[-1]]:
            restored.restore(record, {sub.sub_id: sub for sub in (idle, busy)})
        restored.finish_replay(registry)
        self._assert_named_texts_only(restored, ("idle", "busy"))
        assert len(restored._texts) == self.LIMIT

        engine.forget("busy")
        self._assert_named_texts_only(engine, ("idle",))
        assert [text.event_id for text in engine._texts.values()] == ["e0"]
        engine.forget("idle")
        assert engine._texts == {}

    def test_forgetting_every_subscription_empties_the_table(self):
        registry = ClientRegistry()
        client = registry.register("A", addresses=(("tcp", "a:1"),), client_id="cl-a")
        subs = [
            Subscription([Predicate.eq("degree", "PhD")], subscriber_id="cl-a", sub_id=f"s{i}")
            for i in range(5)
        ]
        engine = _engine(history_limit=self.LIMIT)
        for index in range(3 * self.LIMIT):
            self._publish(engine, client, subs[index % 3 :], index)
        self._assert_named_texts_only(engine, [sub.sub_id for sub in subs])
        for sub in subs:
            engine.forget(sub.sub_id)
        assert engine._texts == {} and engine._delivery_log == {}


class TestNarrowColumns:
    """A row's offset from its publication's first notification number
    and its derivation index start in one-byte columns; a value that
    does not fit widens its column.  Each leg forces one widening and
    reads the same rows before and after ``durable_state()`` →
    ``restore()``."""

    @staticmethod
    def _subs(count: int) -> list[Subscription]:
        return [
            Subscription([Predicate.eq("degree", "PhD")], subscriber_id="cl-a", sub_id=f"s{index}")
            for index in range(count)
        ]

    @staticmethod
    def _publish(engine, client, subs, index: int, witness=lambda position: Witness()) -> None:
        event = Event({"degree": "PhD", "n": index}, event_id=f"e{index}")
        engine.fan_out(
            [
                (client, SemanticMatch(sub, event, witness(position), 0))
                for position, sub in enumerate(subs)
            ]
        )

    @staticmethod
    def _round_trip(engine, registry, subs) -> NotificationEngine:
        """The rows read the same from *engine* and from an engine
        restored from its JSON-decoded snapshot records."""
        records = [json.loads(json.dumps(record)) for record in engine.durable_state()]
        restored = _engine(history_limit=engine.history_limit)
        owners = {sub.sub_id: sub for sub in subs}
        for record in records:
            restored.restore(record, owners)
        restored.finish_replay(registry)
        for sub in subs:
            assert restored.delivery_log(sub.sub_id) == engine.delivery_log(sub.sub_id)
        return restored

    @staticmethod
    def _ids(engine, sub_id: str) -> list[str]:
        return [entry.notification_id for entry in engine.delivery_log(sub_id)]

    def _setup(self, count: int, history_limit: int = 1024):
        registry = ClientRegistry()
        client = registry.register("A", addresses=(("tcp", "a:1"),), client_id="cl-a")
        return registry, client, _engine(history_limit=history_limit), self._subs(count)

    def test_a_fan_out_past_127_rows_widens_the_offsets(self):
        registry, client, engine, subs = self._setup(151, history_limit=2)
        target, others = subs[-1:], subs[:-1]
        self._publish(engine, client, target, 0)
        self._publish(engine, client, target, 1)
        assert engine.retained_log("s150").offsets.typecode == "b"
        # the ring is full: the row takes the oldest slot, 150 past its text's n
        self._publish(engine, client, others + target, 2)
        log = engine.retained_log("s150")
        assert log.offsets.typecode == "h" and sorted(log.offsets) == [0, 150]
        assert engine.retained_log("s0").offsets.typecode == "b"
        # offsets 0..127 fit a byte: a fan-out of 128 rows widens nothing
        assert engine.retained_log("s127").offsets.typecode == "b"
        assert engine.retained_log("s128").offsets.typecode == "h"
        assert self._ids(engine, "s150") == ["n2", "n153"]
        restored = self._round_trip(engine, registry, subs)
        assert self._ids(restored, "s150") == ["n2", "n153"]

    def test_a_256th_derivation_widens_the_marks(self):
        """A mark is the status byte with the derivation index above it:
        a byte while the index is 0, two below 256, four past it."""
        registry, client, engine, subs = self._setup(257)
        def witness(position: int) -> Witness:
            return Witness([(GENERAL, "degree", 1, f"d{position}")])

        self._publish(engine, client, subs, 0, witness)
        assert engine.retained_log("s0").marks.typecode == "B"
        assert engine.retained_log("s255").marks.typecode == "H"
        assert engine.retained_log("s256").marks.typecode == "I"
        (row,) = engine.delivery_log("s256")
        assert row.via == 256 and "d256" in row.body and "d255" not in row.body
        assert row.status == "acked" and row.transport == "tcp"
        restored = self._round_trip(engine, registry, subs)
        assert restored.retained_log("s256").marks.typecode == "I"

    def test_a_257th_publication_widens_the_ordinals(self):
        registry, client, engine, subs = self._setup(1)
        for index in range(256):
            self._publish(engine, client, subs, index)
        log = engine.retained_log("s0")
        assert log.ordinals.typecode == "B" and log.ordinals[-1] == 255
        self._publish(engine, client, subs, 256)
        log = engine.retained_log("s0")
        assert log.ordinals.typecode == "H" and log.ordinals.tolist() == list(range(257))
        assert self._ids(engine, "s0") == [f"n{n}" for n in range(1, 258)]
        assert [entry.event_id for entry in engine.delivery_log("s0")][-2:] == ["e255", "e256"]
        restored = self._round_trip(engine, registry, subs)
        assert restored.retained_log("s0").ordinals.typecode == "H"

    def test_a_long_lived_log_keeps_its_ordinals_a_byte_wide(self):
        """Every publication that delivers draws an ordinal, so a log's
        offsets from a fixed base would outgrow any column; a value that
        does not fit moves ``base`` to the lowest its rows name instead,
        and a column widened by a wide span narrows once it has left."""
        registry, client, engine, subs = self._setup(2, history_limit=2)
        quiet, busy = subs
        self._publish(engine, client, [quiet], 0)
        for index in range(1, 300):
            self._publish(engine, client, [busy], index)
        self._publish(engine, client, [quiet], 300)
        assert engine.retained_log("s0").ordinals.typecode == "H"
        assert engine.retained_log("s0").ordinals.tolist() == [0, 300]
        event = Event({"degree": "PhD"}, event_id="e")
        batch = [(client, SemanticMatch(sub, event, Witness(), 0)) for sub in subs]
        for count in range(1, 1 << 16 | 1):
            engine.fan_out(batch)
            if not count % 4096:
                assert engine.retained_log("s1").ordinals.typecode == "B", count
        last = engine._next_ordinal - 1
        assert last > 1 << 16
        for sub in subs:
            log = engine.retained_log(sub.sub_id)
            assert log.ordinals.typecode == "B"
            assert sorted(log.base + offset for offset in log.ordinals) == [last - 1, last]
        assert sorted(engine._texts) == [last - 1, last]
        restored = self._round_trip(engine, registry, subs)
        assert restored.retained_log("s0").ordinals.typecode == "B"

    def test_a_restored_text_takes_negative_offsets(self):
        registry, client, engine, subs = self._setup(152)
        first, last, middle = subs[0], subs[1], subs[2:]
        self._publish(engine, client, [first], 0)  # "s0"'s log comes first in the snapshot
        self._publish(engine, client, [last, *middle, first], 1)
        assert self._ids(engine, "s0") == ["n1", "n153"]
        assert self._ids(engine, "s1") == ["n2"]
        # restored, e1's text takes n153 from s0's row: s1's n2 is 151 below it
        restored = self._round_trip(engine, registry, subs)
        log = restored.retained_log("s1")
        assert log.offsets.typecode == "h" and list(log.offsets) == [-151]
        assert restored.retained_log("s2").offsets.tolist() == [-150]
        assert self._ids(restored, "s1") == ["n2"]


class TestPackedDerivationFootprint:
    """A publication's text is kept as one zlib blob of its event's
    pairs and its witnesses' steps, never as prose.  Pinned in traced
    bytes: what the retained texts' blobs hold, against the event and
    derivations they render to, and against that prose zlib-packed (the
    form a text was kept in before).  Witnesses of one publication
    repeat each other's steps, as derivations do."""

    SUBS, PUBLICATIONS = 8, 200

    @staticmethod
    def _derivation(event: Event, index: int) -> Witness:
        """Three generalization steps, each on one attribute of *event*."""
        return Witness(
            (GENERAL, attribute, 1, f"{attribute}-generalization-{index}")
            for attribute in ("degree", "university", "position")
        )

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
            assert all(len(text.form()[1]) == self.SUBS for text in texts)

            before = tracemalloc.get_traced_memory()[0]
            prose = [
                [text.event_part(), *map(text.derivation_part, range(self.SUBS))]
                for text in texts
            ]
            prose_bytes = tracemalloc.get_traced_memory()[0] - before
            packed_prose = sum(
                len(zlib.compress("\xff".join(parts).encode(), 1)) for parts in prose
            )
            del prose

            held = tracemalloc.get_traced_memory()[0]
            for text in texts:
                text.blob = b""
            retained_bytes = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # ~390 characters a derivation (~480 on the benchmark's workloads)
        assert prose_bytes > self.PUBLICATIONS * self.SUBS * 350, prose_bytes
        assert retained_bytes * 4 <= prose_bytes, (retained_bytes, prose_bytes)
        assert retained_bytes < packed_prose, (retained_bytes, packed_prose)
