"""Unit tests for durable broker state: the write-ahead journal,
snapshot compaction, crash injection, recovery, and replay-from-
sequence delivery (the PR 9 tentpole).

The crash-at-any-prefix equivalence invariant lives in
``tests/property/test_crash_recovery_equivalence.py``; this file covers
the mechanisms one at a time — record framing, torn-tail truncation at
every byte offset of the final record, snapshot/journal reconciliation,
the fault-injected ``crash`` kind, bounded delivery histories, and the
engine-owned notification counters.
"""

from __future__ import annotations

import gc
import json
import logging
import multiprocessing
import os
import shutil
import stat
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from enum import StrEnum
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broker import durability as durability_module
from repro.broker.broker import Broker
from repro.broker.durability import (
    FORMAT_VERSION,
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    Durability,
    _encode_config,
    _encode_record,
    _scan_records,
    recover,
)
from repro.broker.notifications import NotificationEngine, PublicationText
from repro.core.provenance import CUSTOM, GENERAL, MAPPING, SYNONYM
from repro.broker.sharding import ShardedBroker
from repro.broker.supervision import FaultPlan
from repro.core.config import SemanticConfig
from repro.errors import (
    DeliveryError,
    DurabilityError,
    ReproError,
    SimulatedCrash,
    StateFormatError,
)
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.domains import build_jobs_knowledge_base


@pytest.fixture
def kb():
    return build_jobs_knowledge_base()


def _sub(attr: str, value: str | int, sub_id: str) -> Subscription:
    # explicit sub_ids: auto ids draw from a module counter and would
    # differ between a run and its recovery
    return Subscription([Predicate.eq(attr, value)], sub_id=sub_id)


def _populate(broker: Broker) -> None:
    """The standard durable scenario: two tcp subscribers (reliable
    transport — deliveries always succeed), one publisher, two
    publishes, one unsubscribe."""
    broker.register_subscriber("Alice", tcp="alice:9", client_id="cl-a")
    broker.register_subscriber("Bob", tcp="bob:9", client_id="cl-b")
    broker.register_publisher("Press", client_id="cl-p")
    broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
    broker.subscribe("cl-b", _sub("degree", "PhD", "s-b"))
    broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
    broker.publish("cl-p", Event([("degree", "PhD")], event_id="e2"))
    broker.unsubscribe("s-b")


def _observable(broker: Broker) -> dict:
    """The state recovery must preserve."""
    return {
        "clients": sorted(client.client_id for client in broker.registry.clients()),
        "subs": sorted(sub.sub_id for sub in broker.engine.subscriptions()),
        "frontiers": broker.notifier.delivery_frontiers(),
    }


def _durable_state_by_rows(notifier):
    """The notifier's snapshot records as an earlier writer walked them:
    every retained row built as a tuple through ``_DeliveryLog.row``,
    each log waiting with its next row under that row's text ordinal."""
    waiting = defaultdict(list)  # text ordinal -> [(next row, log)]
    for log in notifier._delivery_log.values():
        row = log.row(log.first)
        waiting[row[1]].append((row, log))
    while waiting:
        ordinal = min(waiting)
        found = []
        for row, log in waiting.pop(ordinal):
            while row is not None and row[1] == ordinal:
                found.append(row)
                row = log.row(row[3] + 1)
            if row is not None:
                waiting[row[1]].append((row, log))
        found.sort()  # by notification number
        n = found[0][0]
        rows, exceptions = [None] * (found[-1][0] + 1 - n), []  # None: a row gone
        for number, _, sub_id, sequence, via, status in found:
            rows[number - n] = [sub_id, sequence, via]
            if status != "acked":
                exceptions.append([number - n, status])
        text = notifier._texts[ordinal]
        pairs, via = text.form()
        yield dict(k="outs", eid=text.event_id, n=n, pairs=pairs, via=via, rows=rows)
        yield {"k": "close", "rows": exceptions}
    for sub_id in sorted(notifier._delivery_log):
        if frontier := notifier._delivery_log[sub_id].frontier:
            yield {"k": "frontier", "sid": sub_id, "seq": frontier}
    yield {"k": "notifier", "next_notification": notifier._next_notification}


#: s-a's rendered subscription part, which format 3 wrote on every row
_HEAD = "subscription s-a [(university = Toronto)] matched event "


def _frame(records) -> bytes:
    return b"".join(_encode_record(record) for record in records)


class TestRecordFraming:
    def test_roundtrip(self):
        payloads = [{"k": "a", "i": 1}, {"k": "b", "i": 2, "x": [1, "two"]}]
        raw = b"".join(_encode_record(p) for p in payloads)
        records, clean, torn = _scan_records(raw)
        assert records == payloads
        assert clean == len(raw)
        assert not torn

    def test_stops_at_checksum_mismatch(self):
        good = _encode_record({"k": "a", "i": 1})
        bad = bytearray(_encode_record({"k": "b", "i": 2}))
        bad[-3] ^= 0xFF  # flip a body byte under an unchanged CRC
        records, clean, torn = _scan_records(good + bytes(bad))
        assert [r["k"] for r in records] == ["a"]
        assert clean == len(good)
        assert torn

    def test_stops_at_missing_newline(self):
        good = _encode_record({"k": "a", "i": 1})
        partial = _encode_record({"k": "b", "i": 2})[:-5]
        records, clean, torn = _scan_records(good + partial)
        assert [r["k"] for r in records] == ["a"]
        assert clean == len(good)
        assert torn

    def test_stops_at_malformed_frame(self):
        good = _encode_record({"k": "a", "i": 1})
        for garbage in (b"nonsense\n", b"zzzzzzzz {}\n", b"x\n"):
            records, clean, torn = _scan_records(good + garbage)
            assert len(records) == 1 and clean == len(good) and torn

    def test_stops_at_non_object_body(self):
        good = _encode_record({"k": "a", "i": 1})
        body = json.dumps([1, 2]).encode()
        import zlib

        framed = b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"
        records, clean, torn = _scan_records(good + framed)
        assert len(records) == 1 and clean == len(good) and torn


class TestDurableBrokerLifecycle:
    def test_counters_and_health(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path / "wal") as broker:
            _populate(broker)
            durability = broker.stats()["durability"]
            assert durability["journal_appends"] > 0
            assert durability["journal_bytes"] > 0
            health = broker.health()["durability"]
            assert health["enabled"] is True
            assert health["journal_appends"] == durability["journal_appends"]

    def test_in_memory_broker_reports_disabled(self, kb):
        broker = Broker(kb)
        assert "durability" not in broker.stats()
        assert broker.health()["durability"]["enabled"] is False

    def test_refuses_directory_with_existing_state(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            broker.register_publisher("P", client_id="cl-p")
        with pytest.raises(DurabilityError, match="recover"):
            Broker(kb, durability=tmp_path)

    def test_recover_empty_directory_is_fresh_broker(self, kb, tmp_path):
        broker = recover(tmp_path, kb)
        try:
            assert broker.recovery.snapshot_loaded is False
            assert broker.recovery.records_replayed == 0
            # and it is durable going forward
            broker.register_publisher("P", client_id="cl-p")
            assert broker.durability.stats.journal_appends == 1
        finally:
            broker.close()

    def test_snapshot_every_must_be_nonnegative(self, tmp_path):
        with pytest.raises(DurabilityError):
            Durability(tmp_path, snapshot_every=-1)

    def test_checkpoint_requires_durability(self, kb):
        with pytest.raises(DurabilityError):
            Broker(kb).checkpoint()


class TestRecoveryRoundTrip:
    def test_state_and_frontiers_survive(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            expected = _observable(broker)
            # s-b unsubscribed: its frontier left with it
            assert expected["frontiers"] == {"s-a": 1}
        recovered = recover(tmp_path, kb)
        try:
            assert _observable(recovered) == expected
            # both journaled deliveries were acked: recovery settles
            # both from the acks records, re-sends none
            assert recovered.recovery.dedup_drops == 2
            assert recovered.recovery.replayed_deliveries == 0
        finally:
            recovered.close()

    def test_sequences_continue_after_recovery(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
        # every id the first life drew, from its outs records: row j of
        # a record is number n + j
        records, _, _ = _scan_records((tmp_path / JOURNAL_NAME).read_bytes())
        nids = {
            f"n{record['n'] + j}"
            for record in records
            if record["k"] == "outs"
            for j in range(len(record["rows"]))
        }
        assert nids == {"n1", "n2"}
        recovered = recover(tmp_path, kb)
        try:
            report = recovered.publish("cl-p", Event([("school", "Toronto")], event_id="e3"))
            (outcome,) = report.outcomes
            assert outcome.notification.sequence == 2  # continues s-a's stream
            assert outcome.notification.notification_id not in nids
            assert recovered.notifier.delivery_frontiers()["s-a"] == 2
        finally:
            recovered.close()

    def test_remove_client_and_reconfigure_are_journaled(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            broker.remove_client("cl-a")
            broker.set_syntactic_mode()
        recovered = recover(tmp_path, kb)
        try:
            assert "cl-a" not in recovered.registry
            assert list(recovered.engine.subscriptions()) == []
            assert recovered.mode == "syntactic"
        finally:
            recovered.close()

    def test_replay_resends_unacked_outbox(self, kb, tmp_path):
        """An outboxed-but-never-acked delivery (crash between send and
        ack) must be re-sent on recovery — at-least-once.  The journal
        ends as that crash leaves it: at the last publication's
        ``outs``."""
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
        journal = tmp_path / JOURNAL_NAME
        records, _, _ = _scan_records(journal.read_bytes())
        last_outs = max(i for i, record in enumerate(records) if record["k"] == "outs")
        journal.write_bytes(_frame(records[: last_outs + 1]))
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.replayed_deliveries == 1
            assert recovered.recovery.dedup_drops == 1  # e1's, acked before the crash
            # s-b's delivery of e2 was re-sent, so it is delivered; the
            # unsubscribe never reached the journal
            assert recovered.notifier.delivery_frontiers() == {"s-a": 1, "s-b": 1}
        finally:
            recovered.close()


    def test_resubscribed_id_starts_a_new_stream_and_recovers(self, kb, tmp_path):
        """Unsubscribing forgets the subscription's sequence stream; the
        same id subscribed again starts at 1, and recovery — which sees
        both streams' records under one id — lands where the run did."""
        with Broker(kb, durability=tmp_path) as broker:
            broker.register_subscriber("Alice", tcp="alice:9", client_id="cl-a")
            broker.register_publisher("Press", client_id="cl-p")
            for event_id in ("e1", "e2", "e3"):
                broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
                report = broker.publish("cl-p", Event([("school", "Toronto")], event_id=event_id))
                assert report.outcomes[0].notification.sequence == 1
                if event_id != "e3":
                    broker.unsubscribe("s-a")
            expected = _observable(broker)
            expected_log = broker.notifier.delivery_log("s-a")
            assert expected["frontiers"] == {"s-a": 1}
            assert [entry.event_id for entry in expected_log] == ["e3"]
        recovered = recover(tmp_path, kb)
        try:
            assert _observable(recovered) == expected
            assert recovered.notifier.delivery_log("s-a") == expected_log
            assert recovered.recovery.dedup_drops == 3
            assert recovered.recovery.replayed_deliveries == 0
            report = recovered.publish("cl-p", Event([("school", "Toronto")], event_id="e4"))
            assert report.outcomes[0].notification.sequence == 2
        finally:
            recovered.close()

    @pytest.mark.parametrize("first_generation", ["no delivery", "compacted"])
    def test_resubscribed_id_dedups_when_the_first_stream_left_no_outbox(
        self, kb, tmp_path, first_generation
    ):
        """The first subscription under a re-used id leaves no ``out``
        record in the journal tail — it never matched, or its delivery
        was folded into the snapshot.  The replayed unsubscribe must not
        take the later stream's adopted records with it: the acked
        delivery is deduplicated, not sent a second time."""
        with Broker(kb, durability=tmp_path) as broker:
            broker.register_subscriber("Alice", tcp="alice:9", client_id="cl-a")
            broker.register_publisher("Press", client_id="cl-p")
            broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
            if first_generation == "compacted":
                broker.publish("cl-p", Event([("school", "Toronto")], event_id="e0"))
                broker.checkpoint()
            broker.unsubscribe("s-a")
            broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
            report = broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
            assert report.outcomes[0].notification.sequence == 1
            expected = _observable(broker)
            expected_log = broker.notifier.delivery_log("s-a")
            assert [entry.event_id for entry in expected_log] == ["e1"]
        recovered = recover(tmp_path, kb)
        try:
            assert _observable(recovered) == expected
            assert recovered.notifier.delivery_log("s-a") == expected_log
            assert recovered.recovery.dedup_drops == 1
            assert recovered.recovery.replayed_deliveries == 0
            assert recovered.notifier.transports.get("tcp").delivered_count() == 0
        finally:
            recovered.close()


class TestTornTail:
    def test_truncation_at_every_byte_of_final_record(self, kb, tmp_path):
        """Cut the journal at *every* byte offset inside its final
        record: recovery must always succeed, count exactly one
        torn-tail truncation, and land in the state with that record
        absent (a torn final record is an operation that never
        happened)."""
        source = tmp_path / "source"
        with Broker(kb, durability=source) as broker:
            _populate(broker)  # final record: the unsubscribe of s-b
        raw = (source / JOURNAL_NAME).read_bytes()
        _, _, torn = _scan_records(raw)
        assert not torn
        final_start = raw.rfind(b"\n", 0, len(raw) - 1) + 1

        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        (baseline_dir / JOURNAL_NAME).write_bytes(raw[:final_start])
        baseline = recover(baseline_dir, kb)
        expected = _observable(baseline)
        baseline.close()
        assert "s-b" in expected["subs"]  # the unsubscribe is gone

        for cut in range(final_start, len(raw)):
            work = tmp_path / f"cut{cut}"
            work.mkdir()
            journal = work / JOURNAL_NAME
            journal.write_bytes(raw[:cut])
            recovered = recover(work, kb)
            try:
                report = recovered.recovery
                assert report.torn_tail_truncations == (1 if cut > final_start else 0)
                assert _observable(recovered) == expected
                # the garbage is physically gone, not just skipped
                assert journal.read_bytes()[: final_start] == raw[:final_start]
                assert len(journal.read_bytes()) == final_start
            finally:
                recovered.close()

    def test_a_truncation_logs_one_warning(self, kb, tmp_path, caplog):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
        journal = tmp_path / JOURNAL_NAME
        raw = journal.read_bytes()
        torn = b'0badc0de {"k": "to'
        journal.write_bytes(raw + torn)
        with caplog.at_level(logging.WARNING, logger="repro.broker.durability"):
            recover(tmp_path, kb).close()
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == f"{journal}: torn tail truncated, {len(torn)} bytes dropped"
        assert journal.read_bytes() == raw

    def test_a_clean_journal_logs_nothing(self, kb, tmp_path, caplog):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
        with caplog.at_level(logging.DEBUG, logger="repro.broker.durability"):
            recover(tmp_path, kb).close()
        assert caplog.records == []

    def test_whole_journal_torn_recovers_empty(self, kb, tmp_path):
        (tmp_path / JOURNAL_NAME).write_bytes(b"garbage with no frame at all")
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.torn_tail_truncations == 1
            assert len(recovered.registry) == 0
        finally:
            recovered.close()


class TestCrashInjection:
    def test_crash_at_offset_raises_and_poisons_journal(self, kb, tmp_path):
        durability = Durability(tmp_path, fault_plan=FaultPlan.crash_at(2))
        with Broker(kb, durability=durability) as broker:
            broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
            broker.register_publisher("P", client_id="cl-p")
            with pytest.raises(SimulatedCrash):
                broker.subscribe("cl-a", _sub("degree", "PhD", "s-a"))
            # the crashed journal refuses further appends
            with pytest.raises(DurabilityError):
                broker.register_publisher("Q", client_id="cl-q")
        _, _, torn = _scan_records((tmp_path / JOURNAL_NAME).read_bytes())
        assert torn  # a half-written record is on disk

    def test_crashed_publish_never_happened(self, kb, tmp_path):
        """Publishes journal write-ahead: a crash on the publish record
        itself recovers to a state where the event was never published."""
        durability = Durability(tmp_path, fault_plan=FaultPlan.crash_at(3))
        with Broker(kb, durability=durability) as broker:
            broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
            broker.register_publisher("P", client_id="cl-p")
            broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
            with pytest.raises(SimulatedCrash):
                broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.torn_tail_truncations == 1
            assert recovered.notifier.delivery_frontiers() == {}
            # re-publishing delivers with sequence 1 — nothing leaked
            report = recovered.publish(
                "cl-p", Event([("school", "Toronto")], event_id="e1")
            )
            assert report.outcomes[0].notification.sequence == 1
        finally:
            recovered.close()

    def test_crash_mid_fanout_resends_unacked(self, kb, tmp_path):
        """A crash between the outbox record and its ack re-sends that
        delivery on recovery (at-least-once), and exactly that one."""
        probe = Durability(tmp_path / "probe")
        with Broker(kb, durability=probe) as broker:
            broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
            broker.register_publisher("P", client_id="cl-p")
            broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
            broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
        ack_offset = probe._append_index - 1  # the final append was the ack

        crash_dir = tmp_path / "crash"
        durability = Durability(crash_dir, fault_plan=FaultPlan.crash_at(ack_offset))
        with Broker(kb, durability=durability) as crashing:
            crashing.register_subscriber("A", tcp="a:1", client_id="cl-a")
            crashing.register_publisher("P", client_id="cl-p")
            crashing.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
            with pytest.raises(SimulatedCrash):
                crashing.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
        recovered = recover(crash_dir, kb)
        try:
            assert recovered.recovery.replayed_deliveries == 1
            assert recovered.recovery.dedup_drops == 0
            assert recovered.notifier.delivery_frontiers() == {"s-a": 1}
        finally:
            recovered.close()


class TestClosingRecord:
    """A fan-out's ``close`` record names only the rows of its ``outs``
    that did not ack."""

    def test_an_all_acked_close_is_one_size_however_wide_the_fan_out(self, kb, tmp_path):
        closes = []
        for width in (1, 200):
            directory = tmp_path / f"w{width}"
            with Broker(kb, durability=directory) as broker:
                broker.register_subscriber("Fleet", tcp="fleet:1", client_id="cl-f")
                broker.register_publisher("Press", client_id="cl-p")
                for index in range(width):
                    broker.subscribe("cl-f", _sub("university", "Toronto", f"s{index}"))
                report = broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
                assert report.delivered_count == width
            lines = (directory / JOURNAL_NAME).read_bytes().splitlines(keepends=True)
            records, _, _ = _scan_records(b"".join(lines))
            outs, close = records[-2:]
            assert len(outs["rows"]) == width
            assert close == {"k": "close", "rows": [], "i": outs["i"] + 1}
            # its size, less the digits of its journal sequence
            closes.append(len(lines[-1]) - len(str(close["i"])))
        assert closes[0] == closes[1]


class TestValueSpelling:
    def test_a_str_enum_operand_matches_live_as_after_recovery(self, kb, tmp_path):
        """A ``sub`` record spells a ``StrEnum`` operand as its plain
        value; the live subscription holds that value too, so the
        publication matches the same before and after recovery."""
        kind = StrEnum("Kind", {"RED": "red"})
        red = Event([("colour", "red")], event_id="e1")
        with Broker(kb, durability=tmp_path) as broker:
            broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
            broker.register_publisher("P", client_id="cl-p")
            broker.subscribe("cl-a", Subscription([Predicate.eq("colour", kind.RED)], sub_id="s"))
            assert broker.publish("cl-p", red).match_count == 1
        with recover(tmp_path, kb) as recovered:
            assert recovered.publish("cl-p", red).match_count == 1


class TestLoneSurrogates:
    """A string is journaled as the code units it holds: a lone high
    surrogate followed by a lone low one stays two code units across
    recovery, in the ``outs`` record recovery adopts and in the ``pub``
    record it decides again, never joined into one character."""

    PAIR = chr(0xD83D) + chr(0xDE00)

    def _publish(self, broker: Broker) -> None:
        broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
        broker.register_publisher("P", client_id="cl-p")
        broker.subscribe("cl-a", _sub("degree", "PhD", "s-a"))
        broker.publish("cl-p", Event([("degree", "PhD"), ("note", self.PAIR)], event_id="e1"))

    @staticmethod
    def _note(broker: Broker) -> str:
        (row,) = broker.notifier.delivery_log("s-a")
        pairs, _ = row.text.form()
        return dict(pairs)["note"]

    def test_an_outs_record_keeps_them_apart(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            self._publish(broker)
            assert self._note(broker) == self.PAIR
        with recover(tmp_path, kb) as recovered:
            assert recovered.recovery.dedup_drops == 1
            assert self._note(recovered) == self.PAIR

    def test_a_pub_record_keeps_them_apart(self, kb, tmp_path):
        """A crash on the ``outs`` record leaves the publication to be
        decided again from its ``pub`` record."""
        probe = Durability(tmp_path / "probe")
        with Broker(kb, durability=probe) as broker:
            self._publish(broker)
        outs_offset = probe._append_index - 2  # its pub, outs and acks were the last appends
        durability = Durability(tmp_path / "crash", fault_plan=FaultPlan.crash_at(outs_offset))
        with Broker(kb, durability=durability) as crashing:
            with pytest.raises(SimulatedCrash):
                self._publish(crashing)
        with recover(tmp_path / "crash", kb) as recovered:
            assert recovered.recovery.replayed_deliveries == 1
            assert self._note(recovered) == self.PAIR


class TestReplayedChurn:
    def test_replayed_remove_ends_the_stream_of_a_pending_row(self, kb, tmp_path):
        """A dead letter aborts a fan-out and leaves ``s-a``'s row
        pending; then ``cl-a`` is removed, which ends ``s-a``.  The live
        run never sent that row, and neither does recovery: the replayed
        unsubscribe takes the row with its stream, so nothing is re-sent
        and no TCP connection is opened to the removed client."""
        with Broker(kb, durability=tmp_path) as broker:
            broker.notifier.raise_on_dead_letter = True
            broker.register_subscriber("U", sms="+1", client_id="cl-u")
            broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
            broker.register_publisher("P", client_id="cl-p")
            broker.subscribe("cl-u", _sub("university", "Toronto", "s-u"))
            broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
            broker.notifier.transports.get("sms").fail_next(broker.notifier.max_attempts)
            with pytest.raises(DeliveryError):
                broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
            assert [e.status for e in broker.notifier.delivery_log("s-a")] == ["pending"]
            broker.remove_client("cl-a")
            assert broker.notifier.transports.get("tcp").connections == set()
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.replayed_deliveries == 0
            assert recovered.recovery.dedup_drops == 1  # s-u's dead letter
            assert "cl-a" not in recovered.registry
            assert recovered.notifier.transports.get("tcp").connections == set()
        finally:
            recovered.close()


class TestSnapshots:
    def test_auto_compaction_folds_state(self, kb, tmp_path):
        durability = Durability(tmp_path, snapshot_every=3)
        with Broker(kb, durability=durability) as broker:
            _populate(broker)
            expected = _observable(broker)
            assert durability.stats.snapshot_compactions >= 1
            assert (tmp_path / SNAPSHOT_NAME).exists()
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.snapshot_loaded is True
            assert _observable(recovered) == expected
        finally:
            recovered.close()

    def test_checkpoint_empties_journal(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            expected = _observable(broker)
            broker.checkpoint()
            assert (tmp_path / JOURNAL_NAME).stat().st_size == 0
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.snapshot_loaded is True
            assert recovered.recovery.records_replayed == 0
            assert _observable(recovered) == expected
            # pending-free snapshot: nothing re-sent, nothing dedup'd
            assert recovered.recovery.replayed_deliveries == 0
        finally:
            recovered.close()

    def test_stale_journal_records_are_skipped(self, kb, tmp_path):
        """A crash between snapshot rename and journal truncate leaves
        already-folded records behind; replay must skip them by
        sequence, not double-apply."""
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            stale = (tmp_path / JOURNAL_NAME).read_bytes()
            broker.checkpoint()
            expected = _observable(broker)
        (tmp_path / JOURNAL_NAME).write_bytes(stale)  # resurrect the old tail
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.records_replayed == 0
            assert _observable(recovered) == expected
        finally:
            recovered.close()

    @pytest.mark.parametrize("fsync", [True, False])
    def test_renames_and_creates_are_synced_before_the_journal_is_cut(
        self, tmp_path, monkeypatch, fsync
    ):
        """With ``fsync=True`` the directory is synced after the journal
        is created and after compaction's rename, before the journal is
        truncated — so a power loss cannot keep the cut journal and lose
        the snapshot that replaced it.  Without, nothing is synced.  A
        compaction before the first append creates no journal: the
        append does, and syncs the directory then."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync_(descriptor):
            kind = "directory" if stat.S_ISDIR(os.fstat(descriptor).st_mode) else "file"
            calls.append(f"fsync {kind}")
            real_fsync(descriptor)

        def replace(source, target):
            calls.append(f"replace {Path(target).name}")
            real_replace(source, target)

        def open_(path, mode="r", *args, **kwargs):
            calls.append(f"open {Path(path).name} {mode}")
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync_)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(durability_module, "open", open_, raising=False)
        durability = Durability(tmp_path, snapshot_every=0, fsync=fsync)
        durability.append({"k": "noop"})
        durability.append({"k": "noop"})
        durability.compact([{"k": "notifier", "next_notification": 1}])
        durability.append({"k": "noop"})
        durability.close()
        synced = [
            "open journal.log ab", "fsync directory", "fsync file",  # created, then appended
            "fsync file",
            "open snapshot.tmp wb", "fsync file",
            "replace snapshot.json", "fsync directory",  # the rename is durable ...
            "open journal.log wb",  # ... before the journal is cut
            "open journal.log ab", "fsync file",
        ]  # fmt: skip
        assert calls == (synced if fsync else [call for call in synced if "fsync" not in call])

        calls.clear()
        durability = Durability(tmp_path / "fresh", snapshot_every=0, fsync=fsync)
        durability.compact([{"k": "notifier", "next_notification": 1}])
        durability.append({"k": "noop"})
        durability.close()
        synced = [
            "open snapshot.tmp wb", "fsync file", "replace snapshot.json", "fsync directory",
            "open journal.log ab", "fsync directory", "fsync file",  # created, then appended
        ]  # fmt: skip
        assert calls == (synced if fsync else [call for call in synced if "fsync" not in call])

    def test_corrupt_snapshot_never_refuses_to_start(self, kb, tmp_path, caplog):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
        (tmp_path / SNAPSHOT_NAME).write_bytes(b"not a snapshot")
        with caplog.at_level(logging.WARNING, logger="repro.broker.durability"):
            recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.snapshot_discarded is True
            (record,) = caplog.records
            assert record.levelno == logging.WARNING
            assert record.getMessage() == (
                f"{tmp_path / SNAPSHOT_NAME}: snapshot discarded (damaged or not format "
                f"{FORMAT_VERSION})"
            )
            # the journal alone still rebuilds everything (it was never
            # compacted, so no records were lost with the snapshot)
            assert _observable(recovered)["subs"] == ["s-a"]
        finally:
            recovered.close()

    def test_compacted_pending_delivery_resent_from_snapshot(self, kb, tmp_path):
        """A pending (unacked) delivery folded into a snapshot has no
        journal record left to replay — recovery must re-send it from
        the snapshot's stored text."""
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            # forge in-flight state: mark s-a's delivery un-acked
            assert broker.notifier.retained_log("s-a").set_status(1, "pending")
            broker.notifier.retained_log("s-a").frontier = 0
            broker.checkpoint()
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.replayed_deliveries == 1
            assert recovered.notifier.delivery_frontiers()["s-a"] == 1
        finally:
            recovered.close()


class TestStreamedSnapshot:
    """The snapshot: a stream of small CRC-framed records between a head
    and a counting trailer, validated whole before any is applied,
    written and read one record at a time; the retained deliveries are
    the journal's own ``outs`` and ``close`` records, one pair per
    publication, read by ``adopt()`` as the journal's are."""

    def _ghosted(self, kb, directory) -> tuple[list[dict], dict]:
        """A directory whose snapshot AND journal each hold the full
        ``_populate`` history (the journal resurrected after the
        checkpoint), with one extra client only the snapshot knows: a
        recovery that applied anything from a bad snapshot shows it.
        Returns the snapshot's records and the journal-only state."""
        with Broker(kb, durability=directory) as broker:
            _populate(broker)
            stale = (directory / JOURNAL_NAME).read_bytes()
            broker.checkpoint()
            expected = _observable(broker)
        (directory / JOURNAL_NAME).write_bytes(stale)
        records, _, torn = _scan_records((directory / SNAPSHOT_NAME).read_bytes())
        assert not torn
        ghost = {"k": "client", "id": "cl-ghost", "name": "Ghost", "kind": "publisher", "addr": []}
        records.insert(2, ghost)  # after the store's head and the broker record
        records[-1] = dict(records[-1], records=len(records) - 2)
        return records, expected

    def test_layout(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            broker.checkpoint()
            last_seq = broker.durability.last_seq
        records, _, torn = _scan_records((tmp_path / SNAPSHOT_NAME).read_bytes())
        assert not torn
        # only the kinds recovery applies before the tail, and the
        # retained deliveries in the journal's own forms
        assert [record["k"] for record in records] == [
            "snapshot", "broker", "client", "client", "client", "sub", "outs", "close",
            "frontier", "notifier", "end",
        ]  # fmt: skip
        assert FORMAT_VERSION == 6
        assert records[0] == {"k": "snapshot", "format": FORMAT_VERSION, "last_seq": last_seq}
        assert records[-1] == {"k": "end", "records": len(records) - 2, "last_seq": last_seq}
        # s-b unsubscribed before the checkpoint: no row of it, and no
        # outs for the publication only it was sent
        outs, close, frontier, notifier = records[-5:-1]
        # a journal outs without its i: the event's pairs, one witness
        # ([SYNONYM, new name, 0, old name]), and per row [sub_id,
        # sequence, derivation index], numbered from n; the row's client
        # and text are the sub record's
        assert outs == {
            "k": "outs",
            "eid": "e1",
            "n": 1,
            "pairs": [["school", "Toronto"]],
            "via": [[[SYNONYM, "university", 0, "school"]]],
            "rows": [["s-a", 1, 0]],
        }
        assert close == {"k": "close", "rows": []}  # every row acked
        assert frontier == {"k": "frontier", "sid": "s-a", "seq": 1}
        assert notifier == {"k": "notifier", "next_notification": 3}

    def test_a_row_gone_from_the_middle_of_a_publication_is_written_null(self, kb, tmp_path):
        """``e1`` fans out to three subscriptions and the middle one
        unsubscribes: the snapshot's ``outs`` keeps the publication's
        numbering with a ``null`` row, and the recovered broker holds the
        same rows, notification ids and frontiers, and draws the next id
        the live one would."""
        with Broker(kb, durability=tmp_path) as broker:
            broker.register_subscriber("Fleet", tcp="fleet:1", client_id="cl-f")
            broker.register_publisher("Press", client_id="cl-p")
            for index in range(3):
                broker.subscribe("cl-f", _sub("university", "Toronto", f"s{index}"))
            broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
            broker.unsubscribe("s1")
            broker.checkpoint()
            logs = {sub_id: broker.notifier.delivery_log(sub_id) for sub_id in ("s0", "s2")}
            frontiers = broker.notifier.delivery_frontiers()
        records, _, _ = _scan_records((tmp_path / SNAPSHOT_NAME).read_bytes())
        (outs,) = [record for record in records if record["k"] == "outs"]
        assert (outs["n"], outs["rows"]) == (1, [["s0", 1, 0], None, ["s2", 1, 0]])
        with recover(tmp_path, kb) as recovered:
            assert recovered.recovery.snapshot_loaded and recovered.recovery.records_replayed == 0
            assert recovered.recovery.dedup_drops == 0  # it counts the tail's settlements only
            assert {sub_id: recovered.notifier.delivery_log(sub_id) for sub_id in logs} == logs
            assert [log[0].notification_id for log in logs.values()] == ["n1", "n3"]
            assert recovered.notifier.delivery_frontiers() == frontiers == {"s0": 1, "s2": 1}
            report = recovered.publish("cl-p", Event([("school", "Toronto")], event_id="e2"))
            assert [o.notification.notification_id for o in report.outcomes] == ["n4", "n5"]

    def test_a_frontier_past_the_retained_rows_survives(self, kb, tmp_path):
        """A one-row window: ``s-a``'s acked row 1 is evicted by its dead
        row 2, so no retained row says the stream acked 1; its
        ``frontier`` record does."""
        with Broker(kb, durability=tmp_path) as broker:
            broker.notifier.history_limit = 1
            broker.register_subscriber("Alice", tcp="alice:9", client_id="cl-a")
            broker.register_publisher("Press", client_id="cl-p")
            broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
            broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
            broker.notifier.transports.get("tcp").fail_next(broker.notifier.max_attempts)
            broker.publish("cl-p", Event([("school", "Toronto")], event_id="e2"))
            log = broker.notifier.delivery_log("s-a")
            assert [(entry.sequence, entry.status) for entry in log] == [(2, "dead")]
            broker.checkpoint()
        with recover(tmp_path, kb) as recovered:
            assert recovered.recovery.snapshot_loaded
            assert recovered.notifier.delivery_frontiers() == {"s-a": 1}
            (row,) = recovered.notifier.delivery_log("s-a")
            assert (row.sequence, row.notification_id, row.status) == (2, "n2", "dead")

    def test_valid_snapshot_is_applied(self, kb, tmp_path):
        records, expected = self._ghosted(kb, tmp_path)
        (tmp_path / SNAPSHOT_NAME).write_bytes(_frame(records))
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.snapshot_loaded and not recovered.recovery.snapshot_discarded
            assert recovered.recovery.records_replayed == 0  # the journal is all folded in
            assert "cl-ghost" in recovered.registry
            assert _observable(recovered)["subs"] == expected["subs"]
            assert _observable(recovered)["frontiers"] == expected["frontiers"]
        finally:
            recovered.close()

    def test_any_damage_discards_the_whole_snapshot(self, kb, tmp_path):
        """Truncation at every record boundary and inside every record,
        one flipped byte in a middle record, a missing trailer and a
        miscounting one: each time the file is discarded before any of
        it is applied, and recovery falls back to the journal."""
        source = tmp_path / "source"
        records, expected = self._ghosted(kb, source)
        journal = (source / JOURNAL_NAME).read_bytes()
        whole = _frame(records)
        damaged: dict[str, bytes] = {}
        offset = 0
        for index, record in enumerate(records):
            size = len(_encode_record(record))
            if index:
                damaged[f"cut at boundary {index}"] = whole[:offset]
            damaged[f"cut inside record {index}"] = whole[: offset + size // 2]
            offset += size
        damaged["cut before the final newline"] = whole[:-1]
        middle = len(_frame(records[:3])) + 20
        flipped = bytearray(whole)
        flipped[middle] ^= 0x01
        damaged["byte flipped in a middle record"] = bytes(flipped)
        damaged["trailer dropped"] = _frame(records[:-1])
        damaged["trailer counts one more"] = _frame(
            records[:-1] + [dict(records[-1], records=records[-1]["records"] + 1)]
        )
        damaged["content record dropped"] = _frame(records[:3] + records[4:])
        damaged["trailer names another sequence"] = _frame(
            records[:-1] + [dict(records[-1], last_seq=records[-1]["last_seq"] + 1)]
        )
        damaged["records after the trailer"] = whole + _encode_record(records[2])
        damaged["format 1 single record"] = _encode_record(
            {"format": 1, "last_seq": records[0]["last_seq"], "state": {"clients": [records[2]]}}
        )
        damaged["unknown format"] = _frame(
            [dict(records[0], format=FORMAT_VERSION + 1)] + records[1:]
        )
        damaged["empty file"] = b""

        for number, (label, raw) in enumerate(damaged.items()):
            work = tmp_path / f"case{number}"
            work.mkdir()
            (work / JOURNAL_NAME).write_bytes(journal)
            (work / SNAPSHOT_NAME).write_bytes(raw)
            recovered = recover(work, kb)
            try:
                report = recovered.recovery
                assert report.snapshot_discarded and not report.snapshot_loaded, label
                assert "cl-ghost" not in recovered.registry, label
                assert report.records_replayed > 0, label
                assert _observable(recovered) == expected, label
            finally:
                recovered.close()

    @pytest.mark.parametrize(
        "form",
        [
            "format 2", "format 5", "format 5 text and log records", "unknown kind",
            "retired config key", "retired semantic switches",
        ],
    )  # fmt: skip
    def test_a_snapshot_never_written_is_discarded(self, kb, tmp_path, form):
        """Intact, but not a form this broker writes: discarded whole
        like a damaged file, and recovery runs from the journal."""
        records, expected = self._ghosted(kb, tmp_path)
        if form == "format 2":
            records[0] = dict(records[0], format=2)
        elif form.startswith("format 5"):
            # the deliveries as format 5 wrote them: the id counter, a
            # text record per publication, and a log record per stream
            # whose rows name their text record by position
            at = next(n for n, record in enumerate(records) if record.get("k") == "outs")
            outs = records[at]
            records[at:-1] = [
                {"k": "notifier", "next_notification": 3},
                {"k": "text", "eid": outs["eid"], "pairs": outs["pairs"], "via": outs["via"]},
                {"k": "log", "sid": "s-a", "next_seq": 2, "frontier": 1,
                 "rows": [[1, 0, 0, "acked"]]},
            ]  # fmt: skip
            records[-1] = dict(records[-1], records=len(records) - 2)
            if form == "format 5":
                records[0] = dict(records[0], format=5)
        elif form == "unknown kind":
            records.insert(-1, {"k": "outbox", "rows": []})
            records[-1] = dict(records[-1], records=len(records) - 2)
        elif form == "retired config key":
            config = dict(records[1]["config"], matching_backend="numpy")
            records[1] = dict(records[1], config=config)
        else:  # the broker record as written before the two switches went
            config = dict(records[1]["config"], value_synonyms=True, generalize_attributes=True)
            records[1] = dict(records[1], config=config)
        (tmp_path / SNAPSHOT_NAME).write_bytes(_frame(records))
        recovered = recover(tmp_path, kb)
        try:
            report = recovered.recovery
            assert report.snapshot_discarded and not report.snapshot_loaded
            assert "cl-ghost" not in recovered.registry
            assert report.records_replayed > 0
            assert _observable(recovered) == expected
        finally:
            recovered.close()

    def _mixed_broker(self, kb, directory) -> Broker:
        """Acked, dead and (forged) pending entries in the logs."""
        broker = Broker(kb, durability=directory)
        _populate(broker)
        broker.registry.register(
            "Nowhere", addresses=(("carrier-pigeon", "roof"),), client_id="cl-u"
        )
        broker.dispatcher.subscribe("cl-u", _sub("degree", "PhD", "s-u"))
        broker.subscribe("cl-b", _sub("degree", "PhD", "s-b2"))
        for event_id in ("e3", "e4"):
            broker.publish("cl-p", Event([("degree", "PhD")], event_id=event_id))
        broker.publish("cl-p", Event([("school", "Toronto")], event_id="e5"))
        notifier = broker.notifier
        assert {entry.status for entry in notifier.delivery_log("s-u")} == {"dead"}
        assert {entry.status for entry in notifier.delivery_log("s-b2")} == {"acked"}
        last = notifier.delivery_log("s-a")[-1].sequence
        assert notifier.retained_log("s-a").set_status(last, "pending")  # forge an in-flight send
        broker.notifier.retained_log("s-a").frontier = 1
        return broker

    def test_roundtrip_record_for_record(self, kb, tmp_path):
        broker = self._mixed_broker(kb, tmp_path)
        try:
            written = list(broker._durable_state())
            broker.checkpoint()
            # what the file hands back is what the broker produced
            content, last_seq, discarded = broker.durability.load_snapshot()
            assert not discarded and last_seq == broker.durability.last_seq
            assert list(content) == written
            # a close names the rows that did not ack; one of a
            # publication every row of which acked names none
            closes = [record["rows"] for record in written if record["k"] == "close"]
            assert {status for rows in closes for _, status in rows} == {"pending", "dead"}
            assert [] in closes
            # recovery settles the pending send; do the same here
            last = broker.notifier.delivery_log("s-a")[-1].sequence
            assert broker.notifier.retained_log("s-a").set_status(last, "acked")
            broker.notifier.retained_log("s-a").frontier = 2
            expected = list(broker.notifier.durable_state())
        finally:
            broker.close()
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.replayed_deliveries == 1
            assert list(recovered.notifier.durable_state()) == expected
            assert "cl-u" in recovered.registry
            first, second = recovered.notifier.delivery_log("s-b2")
            # rows decoded from JSON share their repeated strings again
            assert first.client_id is second.client_id and first.status is second.status
        finally:
            recovered.close()

    def test_the_snapshot_is_byte_for_byte_what_the_row_walk_wrote(
        self, kb, tmp_path, monkeypatch
    ):
        """``durable_state`` reads each log's run of rows that name one
        text straight off its columns; the file it writes is byte for
        byte the one the row-by-row walk wrote (``_durable_state_by_rows``)
        over wrapped rings, rows gone between two retained ones, dead and
        pending rows, and a log whose ordinal column widened."""
        broker = Broker(kb, durability=tmp_path)
        try:
            broker.notifier.history_limit = 3
            broker.register_subscriber("Alice", tcp="alice:9", client_id="cl-a")
            broker.register_subscriber("Bob", tcp="bob:9", client_id="cl-b")
            broker.registry.register("U", addresses=(("pigeon", "roof"),), client_id="cl-u")
            broker.register_publisher("Press", client_id="cl-p")
            broker.subscribe("cl-b", Subscription([], sub_id="s-c"))  # every publication
            broker.subscribe("cl-a", _sub("degree", "PhD", "s-a"))
            broker.subscribe("cl-b", Subscription([], sub_id="s-b"))
            broker.dispatcher.subscribe("cl-u", _sub("degree", "PhD", "s-u"))
            for index in range(301):  # every ring wrapped: no log starts at slot 0
                degree = "PhD" if index in (0, 100, 150, 298) else "MSc"
                broker.publish("cl-p", Event([("degree", degree), ("n", index)]))
            logs = [broker.notifier.retained_log(sub_id) for sub_id in ("s-a", "s-b", "s-u")]
            assert all(log.start for log in logs) and logs[0].ordinals.typecode != "B"
            assert logs[0].set_status(logs[0].next_seq - 1, "pending")
            records = list(broker.notifier.durable_state())
            assert list(_durable_state_by_rows(broker.notifier)) == records
            outs = [record["rows"] for record in records if record["k"] == "outs"]
            assert any(None in rows for rows in outs)
            closes = [record["rows"] for record in records if record["k"] == "close"]
            assert {status for rows in closes for _, status in rows} == {"dead", "pending"}
            broker.checkpoint()
            written = (tmp_path / SNAPSHOT_NAME).read_bytes()
            monkeypatch.setattr(NotificationEngine, "durable_state", _durable_state_by_rows)
            broker.checkpoint()
            assert (tmp_path / SNAPSHOT_NAME).read_bytes() == written
        finally:
            broker.close()

    def test_compaction_and_recovery_hold_one_record_not_the_file(self, kb, tmp_path):
        """1,000 publications fanned out to 12 and then to 64
        subscriptions (12k and 64k logged deliveries, each row with its
        own notification number, so the rows live in the log's columns): the
        traced peak during checkpoint() and the transient during
        load_snapshot() + adopt are what one publication's record costs
        plus a cursor per log — under 1.5 KB more for each log added,
        while each log adds ~14 KB of rows to the file — far below the
        snapshot's size (the single-record format peaked at ~2.7x the
        file; a log record per subscription, at ~0.3x: 518 KB here)."""
        per_sub = 1000
        text = ("a derivation chain that renders to a few hundred characters " * 5).strip()

        def measure(subs: int, directory) -> tuple[int, int, int]:
            broker = Broker(kb, durability=directory)
            broker.register_subscriber("Fleet", tcp="fleet:1", client_id="cl-f")
            owners = {}
            for index in range(subs):
                owners[f"s{index}"] = broker.subscribe("cl-f", _sub("a", index, f"s{index}"))
            notifier = broker.notifier
            for n in range(1, per_sub + 1):  # each publication's outs, adopted with its close
                outs = {
                    "k": "outs", "eid": f"e{n}", "n": (n - 1) * subs + 1, "pairs": [["t", text]],
                    "via": [[], [[GENERAL, "t", 1, f"g{n}"]]],
                    "rows": [[f"s{index}", n, index % 2] for index in range(subs)],
                }  # fmt: skip
                notifier.adopt(outs, owners, {"k": "close", "rows": []})
            notifier.finish_replay(broker.registry)  # every row acked: nothing re-sent
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                broker.checkpoint()
                compact_peak = tracemalloc.get_traced_memory()[1] - baseline
                broker.close()
                del broker, notifier
                tracemalloc.reset_peak()
                recovered = recover(directory, kb)
                live, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            try:
                assert recovered.recovery.snapshot_loaded
                logged = sum(len(recovered.notifier.delivery_log(f"s{i}")) for i in range(subs))
                assert logged == subs * per_sub
                assert recovered.notifier.delivery_log("s1")[6].body == (
                    f"subscription s1 [(a = 1)] matched event e7 [(t, {text})]\n"
                    "derived event (t, g7) via:\n"
                    f"  1. [hierarchy] value '{text}' of 't' generalized to 'g7' (+1 level)"
                )
            finally:
                recovered.close()
            return compact_peak, peak - live, (directory / SNAPSHOT_NAME).stat().st_size

        small = measure(12, tmp_path / "small")
        large = measure(64, tmp_path / "large")
        assert large[2] > 2 * small[2]  # the file grew with the deliveries ...
        for name, before, after in zip(("compact", "recover"), small, large):
            # ... what writing and reading it costs grew by a cursor a log
            assert after - before < 1536 * (64 - 12), (name, small, large)
            assert after < large[2] / 3, (name, small, large)


    def test_recovery_from_a_journal_tail_holds_no_row_twice(self, kb, tmp_path):
        """400 publications fanned out to 24 subscriptions and nothing
        compacted: recovery adopts the tail's 9,600 journaled rows into
        the delivery logs it rebuilds, and its replay ledger points into
        them, so what recover() allocates and frees again (traced peak
        minus what stays live) is a few bytes a tail row, not a second
        copy of the rows (as an entry, an id string and a queue slot
        each it was ~100 B a row here)."""
        publications, subs = 400, 24
        durability = Durability(tmp_path, snapshot_every=0)
        with Broker(kb, durability=durability) as broker:
            broker.register_subscriber("Fleet", tcp="fleet:1", client_id="cl-f")
            broker.register_publisher("Press", client_id="cl-p")
            for index in range(subs):
                broker.subscribe("cl-f", _sub("university", "Toronto", f"s{index}"))
            for index in range(publications):
                event = Event([("school", "Toronto"), ("n", index)], event_id=f"e{index}")
                assert broker.publish("cl-p", event).delivered_count == subs
        rows = publications * subs
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            recovered = recover(tmp_path, kb, snapshot_every=0)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            assert not recovered.recovery.snapshot_loaded
            assert recovered.recovery.dedup_drops == rows
            assert sum(len(recovered.notifier.delivery_log(f"s{i}")) for i in range(subs)) == rows
            assert (peak - live) / rows < 48, (peak - live) / rows
        finally:
            recovered.close()


class TestSharedFanOutText:
    """A delivery-log row holds its ids and references; the text lives
    once per subscription, per publication and per distinct derivation,
    live and after either way of recovering."""

    SUBS, PUBLICATIONS = 8, 30

    @staticmethod
    def _strings(notifier, sub_ids) -> set[int]:
        """Identities of every ``str`` reachable from the delivery logs."""
        seen: set[int] = set()
        strings: set[int] = set()
        stack: list[object] = [
            column for sub_id in sub_ids for column in notifier.retained_log(sub_id).columns()
        ]
        while stack:
            item = stack.pop()
            if id(item) in seen:
                continue
            seen.add(id(item))
            if isinstance(item, str):
                strings.add(id(item))
            elif isinstance(item, (dict, list, tuple, PublicationText)):
                stack.extend(gc.get_referents(item))
        return strings

    def _fanned_out(self, kb, directory) -> tuple[Broker, int]:
        """Every publication reaches all ``SUBS`` subscriptions, half of
        them through a synonym rewrite alone, half through a
        generalization on top; returns the broker and the number of
        distinct (publication, derivation) pairs among its matches."""
        broker = Broker(kb, durability=directory)
        broker.register_subscriber("Alice", tcp="alice:9", client_id="cl-a")
        broker.register_subscriber("Bob", tcp="bob:9", client_id="cl-b")
        broker.register_publisher("Press", client_id="cl-p")
        for index in range(self.SUBS):
            attr, value = (("university", "Toronto"), ("degree", "doctorate"))[index % 2]
            broker.subscribe(("cl-a", "cl-b")[index % 2], _sub(attr, value, f"s{index}"))
        derivations = 0
        for index in range(self.PUBLICATIONS):
            pairs = [("school", "Toronto"), ("degree", "PhD"), ("n", index)]
            report = broker.publish("cl-p", Event(pairs, event_id=f"e{index}"))
            assert report.delivered_count == self.SUBS
            derivations += len({match.matched_via for match in report.matches})
        return broker, derivations

    def test_strings_follow_the_text_not_the_deliveries(self, kb, tmp_path):
        subs, publications = self.SUBS, self.PUBLICATIONS
        rows = subs * publications
        live_dir, journal_dir = tmp_path / "live", tmp_path / "wal"
        broker, derivations = self._fanned_out(kb, live_dir)
        assert derivations == 2 * publications
        # one rendered part per subscription, publication and derivation
        text_bound = subs + publications + derivations
        # the ids: an event id per publication, a subscription id per
        # subscription, two clients (a row's id and status are numbers)
        id_bound = publications + subs + 2
        assert text_bound < rows / 2

        def check(notifier):
            logged = sum(len(notifier.delivery_log(f"s{index}")) for index in range(subs))
            assert logged == rows
            sub_ids = [f"s{index}" for index in range(subs)]
            assert len(self._strings(notifier, sub_ids)) <= text_bound + id_bound

        try:
            check(broker.notifier)
            shutil.copytree(live_dir, journal_dir)
            broker.checkpoint()
        finally:
            broker.close()
        for directory, from_snapshot in ((live_dir, True), (journal_dir, False)):
            recovered = recover(directory, kb)
            try:
                assert recovered.recovery.snapshot_loaded is from_snapshot
                check(recovered.notifier)
            finally:
                recovered.close()

    def test_eviction_and_forget_release_a_publications_text(self):
        from repro.broker.clients import ClientRegistry
        from repro.core.provenance import SemanticMatch, Witness

        client = ClientRegistry().register("A", addresses=(("tcp", "a:1"),), client_id="cl-a")
        engine = NotificationEngine(history_limit=2)

        def publish(event_id: str) -> PublicationText:
            event = Event([("a", "1")], event_id=event_id)
            engine.fan_out(
                [
                    (client, SemanticMatch(_sub("a", "1", sub_id), event, Witness(), 0))
                    for sub_id in ("s-a", "s-b")
                ]
            )
            first, second = engine.delivery_log("s-a")[-1], engine.delivery_log("s-b")[-1]
            assert first.text is second.text and first.body == second.body.replace("s-b", "s-a")
            return first.text

        # the rows that name a text are the only thing that keeps it in
        # the engine's table: the window moving past the publication in
        # both logs releases it
        text = publish("e0")
        held = sys.getrefcount(text)
        publish("e1")
        assert text.refs == 2 and sys.getrefcount(text) == held
        publish("e2")  # history_limit=2: e0's row leaves each log
        assert text.refs == 0 and text.ordinal not in engine._texts
        assert sys.getrefcount(text) == held - 1  # the table's reference

        # and so does forgetting the subscriptions that hold the rows
        text = publish("e3")
        held = sys.getrefcount(text)
        engine.forget("s-a")
        assert text.refs == 1 and sys.getrefcount(text) == held
        engine.forget("s-b")
        assert text.refs == 0 and sys.getrefcount(text) == held - 1
        assert not engine._delivery_log and not engine._texts


class TestReplayFrom:
    def _delivered(self, kb, durable_dir=None):
        broker = Broker(kb, durability=durable_dir)
        broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
        broker.register_publisher("P", client_id="cl-p")
        broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
        broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
        broker.publish("cl-p", Event([("school", "Toronto")], event_id="e2"))
        return broker

    def test_replays_tail_from_sequence(self, kb):
        broker = self._delivered(kb)
        outcomes = broker.replay_from("s-a", 1)
        assert [o.notification.sequence for o in outcomes] == [1, 2]
        assert all(o.delivered for o in outcomes)
        assert broker.replay_from("s-a", 2)[0].notification.sequence == 2
        assert broker.replay_from("s-a", 3) == []
        # redelivery of settled entries never moves the frontier
        assert broker.notifier.delivery_frontiers() == {"s-a": 2}

    def test_replay_counts_when_durable(self, kb, tmp_path):
        broker = self._delivered(kb, tmp_path)
        broker.replay_from("s-a", 1)
        assert broker.durability.stats.replayed_deliveries == 2
        broker.close()

    def test_replay_for_removed_client_fails_closed(self, kb):
        broker = self._delivered(kb)
        # the client vanishes from the registry while its subscription
        # (and so its retained log) stays: redelivery fails without a
        # reachable client instead of raising
        broker.registry.remove("cl-a")
        outcomes = broker.replay_from("s-a", 1)
        assert outcomes and not any(o.delivered for o in outcomes)

    def test_unsubscribed_log_is_forgotten(self, kb):
        broker = self._delivered(kb)
        broker.remove_client("cl-a")  # unsubscribes s-a first
        assert broker.replay_from("s-a", 1) == []
        assert broker.notifier.delivery_frontiers() == {}


class TestBoundedHistories:
    def _client(self, registry, client_id="cl-a"):
        return registry.register("A", addresses=(("tcp", "a:1"),), client_id=client_id)

    def _match(self, sub_id, event_id):
        from repro.core.provenance import SemanticMatch, Witness

        event = Event([("a", "1")], event_id=event_id)
        return SemanticMatch(_sub("a", "1", sub_id), event, Witness(), 0)

    def test_log_eviction(self, kb):
        from repro.broker.clients import ClientRegistry

        registry = ClientRegistry()
        client = self._client(registry)
        engine = NotificationEngine(history_limit=2)
        for index in range(4):
            engine.notify(client, self._match("s-a", f"e{index}"))
        assert len(engine.delivery_log("s-a")) == 2
        # the oldest entries are evicted from the delivery log; a send's
        # outcome is not kept at all, so only the log's evictions count
        assert [e.sequence for e in engine.delivery_log("s-a")] == [3, 4]
        assert engine.stats.history_evictions == 2
        # replay_from can only reach the retained window
        assert [o.notification.sequence for o in engine.replay_from("s-a", 1, registry)] == [3, 4]

    def test_dead_letters_bounded_and_reported(self, kb):
        from repro.broker.clients import ClientRegistry

        registry = ClientRegistry()
        unreachable = registry.register(
            "U", addresses=(("carrier-pigeon", "roof"),), client_id="cl-u"
        )
        engine = NotificationEngine(history_limit=2)
        for index in range(3):
            engine.notify(unreachable, self._match("s-u", f"e{index}"))
        assert len(engine.dead_letters) == 2
        assert engine.snapshot()["dead_letters"] == 2
        assert engine.stats.history_evictions > 0

    def test_health_surfaces_dead_letters_and_evictions(self, kb):
        broker = Broker(kb)
        broker.register_subscriber("U", client_id="cl-u")
        # strip the loopback fallback so delivery genuinely fails
        broker.registry._clients["cl-u"] = broker.registry._clients["cl-u"].__class__(
            client_id="cl-u", name="U", kind=broker.registry._clients["cl-u"].kind,
            addresses=(("carrier-pigeon", "roof"),),
        )
        broker.register_publisher("P", client_id="cl-p")
        broker.subscribe("cl-u", _sub("university", "Toronto", "s-u"))
        broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
        health = broker.health()
        assert health["dead_letters"] == 1
        assert health["history_evictions"] == 0

    def test_history_limit_validated(self):
        with pytest.raises(DeliveryError):
            NotificationEngine(history_limit=0)


class TestEngineOwnedCounters:
    def test_notification_ids_are_engine_scoped(self, kb):
        """Two independent brokers both start at n1 — the counter lives
        on the engine, not in a module global."""
        ids = []
        for _ in range(2):
            broker = Broker(kb)
            broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
            broker.register_publisher("P", client_id="cl-p")
            broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
            report = broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
            ids.append(report.outcomes[0].notification.notification_id)
        assert ids == ["n1", "n1"]

    def test_counter_restored_from_snapshot(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            broker.checkpoint()
            next_id = broker.notifier._next_notification
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.notifier._next_notification == next_id
        finally:
            recovered.close()


_PAIRS = [["school", "Toronto"]]
#: compact steps, as a record spells them, that no witness holds
_BAD_STEPS = {
    "of an unknown kind": [9, "university", 0, "school"],
    "of the wrong arity": [SYNONYM, "university", 0],
    "with a value that does not decode": [GENERAL, "school", 1, {"__period__": "x"}],
    "with a value that is none": [GENERAL, "school", 1, {"x": 1}],
    "with a name that is no string": [SYNONYM, 7, 0, "school"],
    "on an attribute its content lacks": [GENERAL, "degree", 1, "degree"],
    "with a custom field of the wrong type": [CUSTOM, "", 0, [["s", "d", "a", "1", "r"]], None],
    "with content pairs of one element": [MAPPING, "", 0, "r", "", [["flag"]]],
}

#: CRC-valid journal records of kinds this broker writes, each in a form
#: it never writes, and what the refusal names (before the form check,
#: each made recover() escape with the untyped error its id names)
_MALFORMED = {
    "outs row of the wrong arity (ValueError)": ({
        "k": "outs", "eid": "e9", "pairs": _PAIRS, "via": [[]], "n": 9, "rows": [["s-a", 3]],
    }, "malformed 'rows'"),
    "outs rows not a list (TypeError)": ({
        "k": "outs", "eid": "e9", "pairs": _PAIRS, "via": [[]], "n": 9, "rows": 5,
    }, "malformed 'rows'"),
    "outs without its pairs (KeyError)": ({
        "k": "outs", "eid": "e9", "via": [[]], "n": 9, "rows": [["s-a", 3, 0]],
    }, "holds keys"),
    "via index past its list (IndexError)": ({
        "k": "outs", "eid": "e9", "pairs": _PAIRS, "via": [[]], "n": 9, "rows": [["s-a", 3, 1]],
    }, "names a derivation past its list"),
    "string sequence (TypeError)": ({
        "k": "outs", "eid": "e9", "pairs": _PAIRS, "via": [[]], "n": 9, "rows": [["s-a", "3", 0]],
    }, "malformed 'rows'"),
    "short acks row (ValueError)": ({"k": "acks", "rows": [["s-a", 3]]}, "malformed 'rows'"),
    "short close row (ValueError)": ({"k": "close", "rows": [[0]]}, "malformed 'rows'"),
    # the journal written ends with a close: nothing for another to close
    "close after no outs (TypeError)": ({"k": "close", "rows": [[0, "dead"]]}, "names a row"),
    "sub without preds (KeyError)": (
        {"k": "sub", "sid": "s-z", "cid": "cl-a", "mg": None, "oi": 9}, "holds keys",
    ),
    "pub pair of one element (ValueError)": ({
        "k": "pub", "cid": "cl-p", "eid": "e9", "pairs": [["school"]], "oi": 9,
    }, "malformed 'pairs'"),
    # a step a read would fail on, or render from what was never written
    **{
        f"outs step {name}": ({
            "k": "outs", "eid": "e9", "pairs": _PAIRS, "via": [[step]], "n": 9,
            "rows": [["s-a", 3, 0]],
        }, "does not decode")
        for name, step in _BAD_STEPS.items()
    },
}  # fmt: skip


class TestOneFormat:
    """Recovery reads only what this broker writes.  A journal record
    of any other form is refused before the broker is built, and the
    directory is left as it was; a delivery-log row that does not fit
    its log is refused too.  (A snapshot of another form is discarded:
    ``TestStreamedSnapshot``.)"""

    @staticmethod
    def _written(kb, directory) -> None:
        """A checkpointed history and a journal tail after it: s-a has
        two retained rows, one in the snapshot and one in the tail."""
        with Broker(kb, durability=directory) as broker:
            _populate(broker)
            broker.checkpoint()
            broker.publish("cl-p", Event([("school", "Toronto")], event_id="e3"))

    @pytest.mark.parametrize(
        "record, offender",
        [
            ({"k": "out", "sid": "s-a", "n": 3, "nid": "n9", "cid": "cl-a", "eid": "e9",
              "subject": "stored subject", "body": "stored body"}, "'out'"),
            ({"k": "ack", "sid": "s-a", "n": 3, "ok": True}, "'ack'"),
            ({"k": "outbox", "rows": []}, "'outbox'"),
            ({"k": "outs", "eid": "e9", "event": "e9 [(school, Toronto)]",
              "via": [" — exact syntactic match"],
              "rows": [["s-a", 3, "n9", "cl-a", _HEAD, 0]]}, "'n', 'pairs', 'rows', 'via']"),
            ({"k": "outs", "eid": "e9", "pairs": _PAIRS, "via": [[]], "n": 9,
              "rows": [["s-a", 3, "n9", "cl-a", _HEAD, 0]]}, "malformed 'rows'"),
            ({"k": "outs", "eid": "e9", "event": "e9 [(school, Toronto)]",
              "via": [" — exact syntactic match"], "n": 9, "rows": [["s-a", 3, 0]]},
             "'n', 'pairs', 'rows', 'via']"),
            ({"k": "config", "cfg": dict(_encode_config(SemanticConfig()), matching_backend="numpy")},
             "matching_backend"),
            ({"k": "config", "cfg": dict(_encode_config(SemanticConfig()), vector_width=8)},
             "vector_width"),
            ({"k": "config", "cfg": dict(_encode_config(SemanticConfig()), value_synonyms=True)},
             "value_synonyms"),
            ({"k": "config",
              "cfg": dict(_encode_config(SemanticConfig()), generalize_attributes=True)},
             "generalize_attributes"),
            *_MALFORMED.values(),
        ],
        ids=["out", "ack", "unknown kind", "format 3 outs", "format 3 outs rows", "format 4 outs",
             "retired config key", "unknown config key", "retired value switch",
             "retired attribute switch", *_MALFORMED],
    )  # fmt: skip
    def test_a_journal_record_never_written_is_refused(self, kb, tmp_path, record, offender):
        self._written(kb, tmp_path)
        journal = tmp_path / JOURNAL_NAME
        records, _, torn = _scan_records(journal.read_bytes())
        assert not torn
        foreign = dict(record, i=records[-1]["i"] + 1)
        # a torn tail after it: refusing must not truncate it either
        journal.write_bytes(
            journal.read_bytes() + _encode_record(foreign) + _encode_record({"k": "pub"})[:9]
        )
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        built = []

        def factory(kb, **kwargs):
            built.append(kwargs)
            return Broker(kb, **kwargs)

        with pytest.raises(StateFormatError) as refused:
            recover(tmp_path, kb, broker_factory=factory)
        assert offender in str(refused.value) and f"i={foreign['i']}" in str(refused.value)
        assert built == []
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_a_refused_journal_record_logs_one_warning(self, kb, tmp_path, caplog):
        """A journal whose ``config`` record still carries the retired
        semantic switches is refused, and says where and why in one
        warning first."""
        self._written(kb, tmp_path)
        journal = tmp_path / JOURNAL_NAME
        records, _, _ = _scan_records(journal.read_bytes())
        retired = dict(
            _encode_config(SemanticConfig()), value_synonyms=True, generalize_attributes=True
        )
        i = records[-1]["i"] + 1
        record = {"k": "config", "cfg": retired, "i": i}
        journal.write_bytes(journal.read_bytes() + _encode_record(record))
        with caplog.at_level(logging.WARNING, logger="repro.broker.durability"):
            with pytest.raises(StateFormatError):
                recover(tmp_path, kb)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING and record.name == "repro.broker.durability"
        assert record.getMessage() == (
            f"{journal}: journal record i={i} refused: "
            "carries config keys ['generalize_attributes', 'value_synonyms']"
        )

    @staticmethod
    def _rewrite(path, edit) -> None:
        records, _, torn = _scan_records(path.read_bytes())
        assert not torn
        edit(records)
        path.write_bytes(_frame(records))

    def test_a_row_that_does_not_fit_its_log_is_refused(self, kb, tmp_path):
        """A row's sequence continues its log: one past a gap is
        refused."""
        self._written(kb, tmp_path)

        def forge(records):  # [sub_id, sequence, via]
            (outs,) = [record for record in records if record["k"] == "outs"]
            assert outs["rows"][0][:2] == ["s-a", 2]
            outs["rows"][0][1] = 3

        self._rewrite(tmp_path / JOURNAL_NAME, forge)
        with pytest.raises(StateFormatError, match="not contiguous"):
            recover(tmp_path, kb)

    @pytest.mark.parametrize("where", ["snapshot", "journal"])
    def test_a_row_of_no_live_subscription_is_dropped(self, kb, tmp_path, where):
        """A row takes its client and text from its subscription; a row
        of an id no subscription holds at that point of the stream — as
        a tail left by a discarded snapshot has — is not adopted, and
        recovery starts."""
        self._written(kb, tmp_path)

        def forge(records):
            if where == "snapshot":
                (outs,) = [record for record in records if record["k"] == "outs"]
                (frontier,) = [record for record in records if record["k"] == "frontier"]
                outs["rows"][0][0] = frontier["sid"] = "s-x"
            else:
                (outs,) = [record for record in records if record["k"] == "outs"]
                outs["rows"][0][0] = "s-x"

        self._rewrite(tmp_path / (SNAPSHOT_NAME if where == "snapshot" else JOURNAL_NAME), forge)
        with recover(tmp_path, kb) as recovered:
            assert recovered.notifier.delivery_log("s-x") == []
            # s-a keeps the rows the forge left it: the tail's, or the snapshot's
            sequences = [entry.sequence for entry in recovered.notifier.delivery_log("s-a")]
            assert sequences == ([2] if where == "snapshot" else [1])

    @pytest.mark.parametrize("executor", ["single", "process"])
    def test_a_failed_recovery_releases_the_broker_it_built(self, kb, tmp_path, executor):
        """The factory takes what a broker may hold by the time a step
        fails — the journal handle, a forked worker fleet — and the
        refused journal row must not leave either behind."""
        self._written(kb, tmp_path)

        def forge(records):  # a sequence gap in the journal tail
            (outs,) = [record for record in records if record["k"] == "outs"]
            outs["rows"][0][1] = 3

        self._rewrite(tmp_path / JOURNAL_NAME, forge)
        built = []

        def factory(kb, **kwargs):
            if executor == "single":
                broker = Broker(kb, **kwargs)
                broker.durability._open()
            else:
                broker = ShardedBroker(kb, shards=2, executor="process", **kwargs)
                broker.engine._ensure_plane()
                assert multiprocessing.active_children()
            built.append(broker)
            return broker

        with pytest.raises(StateFormatError, match="not contiguous"):
            recover(tmp_path, kb, broker_factory=factory)
        (broker,) = built
        assert broker.durability._handle is None
        assert multiprocessing.active_children() == []


#: any JSON value, small
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 1 << 64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=4,
)


def _mutated(data, value):
    """*value* with one part somewhere inside replaced by arbitrary
    JSON or dropped from its container; a dict or list is descended
    into more often than not."""
    if isinstance(value, dict):
        keys = sorted(value)
    elif isinstance(value, list):
        keys = list(range(len(value)))
    else:
        keys = []
    if not keys or not data.draw(st.integers(0, 3)):
        return data.draw(_JSON)
    copy = dict(value) if isinstance(value, dict) else list(value)
    at = data.draw(st.sampled_from(keys))
    how = data.draw(st.sampled_from(["deeper", "replace", "drop"]))
    if how == "drop":
        del copy[at]
    else:
        copy[at] = _mutated(data, copy[at]) if how == "deeper" else data.draw(_JSON)
    return copy


class TestMalformedRecords:
    """Every record's form — its kind's keys, field types, row arity and
    references — is checked where the file is already read: a snapshot
    content record of another form discards the snapshot (a journal
    record of another form is refused: ``TestOneFormat``).  Nothing but
    a :class:`~repro.errors.ReproError` leaves ``recover()``."""

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("outs", {"rows": [["s-a", 1]]}), ("outs", {"rows": 5}), ("outs", {"n": None}),
            ("outs", {"rows": [["s-a", 1, 1]]}), ("outs", {"rows": [["s-a", "1", 0]]}),
            ("outs", {"rows": [["s-a", 0, 0]]}), ("outs", {"heads": []}),
            ("close", {"rows": [[0, "acked"]]}), ("close", {"rows": [[1, "dead"]]}),
            ("close", {"rows": [[0, "sent"]]}), ("close", {"rows": [[0]]}),
            ("frontier", {"seq": None}), ("frontier", {"seq": 2}), ("frontier", {"sid": "s-x"}),
            ("notifier", {"next_notification": 0}),
        ],
        ids=[
            "outs row of the wrong arity", "outs rows not a list", "outs n not a number",
            "via index past its list", "string sequence", "sequence 0", "an extra key",
            "close naming an acked row", "close naming a row past its outs",
            "close naming an unknown status", "close row of the wrong arity",
            "frontier not a number", "frontier past its stream's rows",
            "frontier of a stream with no rows", "id counter at 0",
        ],
    )  # fmt: skip
    def test_a_malformed_delivery_record_discards_the_snapshot(self, kb, tmp_path, kind, edit):
        TestOneFormat._written(kb, tmp_path)
        records, _, _ = _scan_records((tmp_path / SNAPSHOT_NAME).read_bytes())
        (at,) = [n for n, record in enumerate(records) if record["k"] == kind]
        records[at] = dict(records[at], **edit)
        (tmp_path / SNAPSHOT_NAME).write_bytes(_frame(records))
        with recover(tmp_path, kb) as recovered:
            assert recovered.recovery.snapshot_discarded

    @pytest.mark.parametrize("rows", [None, 5], ids=["outs without rows", "outs rows not a list"])
    def test_a_close_after_a_malformed_outs_discards_the_snapshot(self, kb, tmp_path, rows):
        """A ``close`` is read against the ``outs`` before it only when
        that ``outs`` is well formed: one without its rows, or with rows
        that are not a list, discards the snapshot, not the read."""
        TestOneFormat._written(kb, tmp_path)
        records, _, _ = _scan_records((tmp_path / SNAPSHOT_NAME).read_bytes())
        (at,) = [n for n, record in enumerate(records) if record["k"] == "outs"]
        assert records[at + 1]["k"] == "close"
        records[at] = {key: value for key, value in records[at].items() if key != "rows"}
        if rows is not None:
            records[at]["rows"] = rows
        (tmp_path / SNAPSHOT_NAME).write_bytes(_frame(records))
        with recover(tmp_path, kb) as recovered:
            assert recovered.recovery.snapshot_discarded

    def test_a_row_that_does_not_continue_its_stream_discards_the_snapshot(self, kb, tmp_path):
        """The snapshot's rows of one stream follow each other as the
        journal's did: a publication's ``outs`` and ``close`` written
        twice put ``s-a``'s sequence 1 after itself, and the pass that
        reads the file discards it (a damaged snapshot never refuses to
        start); recovery runs from the journal."""
        records, expected = TestStreamedSnapshot()._ghosted(kb, tmp_path)
        at = next(n for n, record in enumerate(records) if record["k"] == "outs")
        assert records[at]["rows"] == [["s-a", 1, 0]] and records[at + 1]["k"] == "close"
        records[at + 2 : at + 2] = records[at : at + 2]
        records[-1] = dict(records[-1], records=len(records) - 2)
        (tmp_path / SNAPSHOT_NAME).write_bytes(_frame(records))
        with recover(tmp_path, kb) as recovered:
            assert recovered.recovery.snapshot_discarded
            assert "cl-ghost" not in recovered.registry
            assert _observable(recovered) == expected

    @pytest.mark.parametrize(
        "edit",
        [
            *({"via": [[step]]} for step in _BAD_STEPS.values()),
            {"pairs": [["school"]]}, {"via": ["a rendered derivation"]},
            {"event": "e1 [(school, Toronto)]"},
        ],
        ids=[*(f"step {name}" for name in _BAD_STEPS), "pair of one element",
             "prose for a witness", "format 4 event"],
    )  # fmt: skip
    def test_a_damaged_outs_record_discards_the_snapshot(self, kb, tmp_path, edit):
        """A snapshot ``outs`` record a read could not render — or would
        render from what was never written — discards the whole
        snapshot, not just its rows; recovery runs from the journal."""
        TestOneFormat._written(kb, tmp_path)
        records, _, _ = _scan_records((tmp_path / SNAPSHOT_NAME).read_bytes())
        (at,) = [n for n, record in enumerate(records) if record["k"] == "outs"]
        records[at] = dict(records[at], **edit)
        (tmp_path / SNAPSHOT_NAME).write_bytes(_frame(records))
        with recover(tmp_path, kb) as recovered:
            assert recovered.recovery.snapshot_discarded
            assert not recovered.recovery.snapshot_loaded

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """The bytes of a journal that holds every journal kind, and of
        a snapshot that holds every content kind."""
        kb = build_jobs_knowledge_base()
        journal_dir = tmp_path_factory.mktemp("journal")
        with Broker(kb, durability=journal_dir) as broker:
            _populate(broker)
            broker.reconfigure(SemanticConfig(max_generality=2))
            broker.remove_client("cl-b")
        snapshot_dir = tmp_path_factory.mktemp("snapshot")
        TestOneFormat._written(kb, snapshot_dir)
        return kb, {
            name: {path.name: path.read_bytes() for path in directory.iterdir()}
            for name, directory in (("journal", journal_dir), ("snapshot", snapshot_dir))
        }

    @given(data=st.data())
    def test_a_mutated_record_escapes_only_as_a_repro_error(self, written, data):
        kb, sources = written
        where = data.draw(st.sampled_from(["journal", "snapshot"]))
        files = dict(sources[where])
        name = JOURNAL_NAME if where == "journal" else SNAPSHOT_NAME
        records, _, _ = _scan_records(files[name])
        # a snapshot's head and trailer stay: the record count is not
        # what is under test
        lo, hi = (0, len(records) - 1) if where == "journal" else (1, len(records) - 2)
        at = data.draw(st.integers(lo, hi))
        key = data.draw(st.sampled_from(sorted(records[at])))
        record = dict(records[at])
        if data.draw(st.booleans()):
            record[key] = _mutated(data, record[key])
        else:
            del record[key]
        records[at] = record
        files[name] = _frame(records)
        with tempfile.TemporaryDirectory() as scratch:
            for file_name, raw in files.items():
                (Path(scratch) / file_name).write_bytes(raw)
            try:
                recover(scratch, kb).close()
            except ReproError:
                pass


class TestShardedRecovery:
    def test_recover_into_sharded_broker(self, kb, tmp_path):
        with ShardedBroker(kb, shards=3, executor="serial", durability=tmp_path) as broker:
            _populate(broker)
            expected = _observable(broker)
        recovered = recover(
            tmp_path,
            kb,
            broker_factory=lambda kb, **kw: ShardedBroker(
                kb, shards=3, executor="serial", **kw
            ),
        )
        try:
            assert _observable(recovered) == expected
            # churn replayed through the normal path re-partitions
            sizes = recovered.engine.sharding_info()["subscriptions_per_shard"]
            assert sum(sizes) == len(expected["subs"])
            report = recovered.publish(
                "cl-p", Event([("school", "Toronto")], event_id="e9")
            )
            assert report.outcomes[0].notification.sequence == 2
        finally:
            recovered.close()
