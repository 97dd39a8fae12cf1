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
import multiprocessing
import shutil
import sys
import tracemalloc

import pytest

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
from repro.broker.sharding import ShardedBroker
from repro.broker.supervision import FaultPlan
from repro.core.config import SemanticConfig
from repro.errors import DeliveryError, DurabilityError, SimulatedCrash, StateFormatError
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.domains import build_jobs_knowledge_base


@pytest.fixture
def kb():
    return build_jobs_knowledge_base()


def _sub(attr: str, value: str, sub_id: str) -> Subscription:
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
            # replayed publishes regenerate both matches; both were
            # already acked, so both are dedup'd, none re-sent
            assert recovered.recovery.dedup_drops == 2
            assert recovered.recovery.replayed_deliveries == 0
        finally:
            recovered.close()

    def test_sequences_continue_after_recovery(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            nids = {o.notification.notification_id for o in broker.notifier.outcomes}
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
        ack) must be re-sent on recovery — at-least-once."""
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
        # drop the acks records so both deliveries look in-flight
        journal = tmp_path / JOURNAL_NAME
        records, _, _ = _scan_records(journal.read_bytes())
        kept = [r for r in records if r["k"] != "acks"]
        assert len(kept) == len(records) - 2
        journal.write_bytes(_frame(kept))
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.replayed_deliveries == 2
            assert recovered.recovery.dedup_drops == 0
            # s-b was re-sent too, then forgotten by the replayed unsubscribe
            assert recovered.notifier.delivery_frontiers() == {"s-a": 1}
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


class TestReplayedChurn:
    def test_replayed_remove_closes_the_connection_a_resend_opened(self, kb, tmp_path):
        """Recovery re-sends an unacked delivery, which opens a TCP
        connection; the replayed ``remove`` that follows closes it."""
        with Broker(kb, durability=tmp_path) as broker:
            broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
            broker.register_publisher("P", client_id="cl-p")
            broker.subscribe("cl-a", _sub("university", "Toronto", "s-a"))
            broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
            broker.remove_client("cl-a")
            assert broker.notifier.transports.get("tcp").connections == set()
        journal = tmp_path / JOURNAL_NAME
        records, _, _ = _scan_records(journal.read_bytes())
        journal.write_bytes(_frame(r for r in records if r["k"] != "acks"))
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.replayed_deliveries == 1
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

    def test_corrupt_snapshot_never_refuses_to_start(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
        (tmp_path / SNAPSHOT_NAME).write_bytes(b"not a snapshot")
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.snapshot_discarded is True
            # the journal alone still rebuilds everything (it was never
            # compacted, so no records were lost with the snapshot)
            assert _observable(recovered)["subs"] == ["s-a"]
        finally:
            recovered.close()

    def test_compacted_pending_delivery_resent_from_snapshot(self, kb, tmp_path):
        """A pending (unacked) delivery folded into a snapshot has no
        journal record left to replay — recovery must re-send it from
        the snapshot's stored rendered message."""
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            # forge in-flight state: mark s-a's delivery un-acked
            assert broker.notifier.retained_log("s-a").set_status(1, "pending")
            broker.notifier._frontier.pop("s-a")
            broker.checkpoint()
        recovered = recover(tmp_path, kb)
        try:
            assert recovered.recovery.replayed_deliveries == 1
            assert recovered.notifier.delivery_frontiers()["s-a"] == 1
        finally:
            recovered.close()


class TestStreamedSnapshot:
    """Snapshot format 3: a stream of small CRC-framed records between a
    head and a counting trailer, validated whole before any is applied,
    written and read one record at a time; delivery-log rows reference
    per-publication ``text`` records instead of inlining their text."""

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
        assert [record["k"] for record in records] == [
            "snapshot", "broker", "client", "client", "client", "sub", "notifier", "text", "log",
            "end",
        ]  # fmt: skip
        assert FORMAT_VERSION == 3
        assert records[0] == {"k": "snapshot", "format": FORMAT_VERSION, "last_seq": last_seq}
        assert records[-1] == {"k": "end", "records": len(records) - 2, "last_seq": last_seq}
        # s-b unsubscribed before the checkpoint: no log record for it,
        # and no text record for the publication only it was sent
        text, log = records[-3], records[-2]
        assert text == {
            "k": "text",
            "eid": "e1",
            "event": "e1 [(school, Toronto)]",
            "via": ["\nderived event (university, Toronto) via:\n"
                    "  1. [synonym] attribute 'school' rewritten to root 'university'"],
        }  # fmt: skip
        assert log == {
            "k": "log",
            "sid": "s-a",
            "next_seq": 2,
            "frontier": 1,
            "heads": ["subscription s-a [(university = Toronto)] matched event "],
            # [sequence, nid, client, head index, text number, derivation index, status]
            "entries": [[1, "n1", "cl-a", 0, 0, 0, "acked"]],
        }

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
        damaged["unknown format"] = _frame([dict(records[0], format=4)] + records[1:])
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

    @pytest.mark.parametrize("form", ["format 2", "unknown kind", "retired config key"])
    def test_a_snapshot_never_written_is_discarded(self, kb, tmp_path, form):
        """Intact, but not a form this broker writes: discarded whole
        like a damaged file, and recovery runs from the journal."""
        records, expected = self._ghosted(kb, tmp_path)
        if form == "format 2":
            records[0] = dict(records[0], format=2)
        elif form == "unknown kind":
            records.insert(-1, {"k": "outbox", "rows": []})
            records[-1] = dict(records[-1], records=len(records) - 2)
        else:
            config = dict(records[1]["config"], matching_backend="numpy")
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
        broker.notifier._frontier["s-a"] = 1
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
            statuses = {e[6] for r in written if r["k"] == "log" for e in r["entries"]}
            assert statuses == {"pending", "acked", "dead"}
            # recovery settles the pending send; do the same here
            last = broker.notifier.delivery_log("s-a")[-1].sequence
            assert broker.notifier.retained_log("s-a").set_status(last, "acked")
            broker.notifier._frontier["s-a"] = 2
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

    def test_compaction_and_recovery_hold_one_record_not_the_file(self, kb, tmp_path):
        """1,000 publications fanned out to 12 and then to 64
        subscriptions (12k and 64k logged deliveries, each row with its
        own ``n<N>`` id, so the rows live in the log's columns): the
        traced peak during checkpoint() and the transient during
        load_snapshot() + restore are what one record costs plus an
        index of the publications — the same at both sizes, far below
        the snapshot's size (the single-record format peaked at ~2.7x
        the file)."""
        per_sub = 1000
        text = "a derivation chain that renders to a few hundred characters " * 5

        def measure(subs: int, directory) -> tuple[int, int, int]:
            broker = Broker(kb, durability=directory)
            broker.register_subscriber("Fleet", tcp="fleet:1", client_id="cl-f")
            notifier = broker.notifier
            for n in range(1, per_sub + 1):
                notifier.restore(
                    {"k": "text", "eid": f"e{n}", "event": f"e{n} [{text}]",
                     "via": [" — exact syntactic match", f"\n{n} {text}"]}
                )  # fmt: skip
            for index in range(subs):
                notifier.restore(
                    {
                        "k": "log",
                        "sid": f"s{index}",
                        "next_seq": per_sub + 1,
                        "frontier": per_sub,
                        "heads": [f"subscription s{index} [(a = {index})] matched event "],
                        "entries": [
                            [n, f"n{index * per_sub + n}", "cl-f", 0, n - 1, index % 2, "acked"]
                            for n in range(1, per_sub + 1)
                        ],
                    }
                )
            notifier._restored_texts = []
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
                    f"subscription s1 [(a = 1)] matched event e7 [{text}]\n7 {text}"
                )
            finally:
                recovered.close()
            return compact_peak, peak - live, (directory / SNAPSHOT_NAME).stat().st_size

        small = measure(12, tmp_path / "small")
        large = measure(64, tmp_path / "large")
        assert large[2] > 2 * small[2]  # the file grew with the deliveries ...
        for name, before, after in zip(("compact", "recover"), small, large):
            # ... what writing and reading it costs did not
            assert after < 1.25 * before, (name, small, large)
            assert after < large[2] / 3, (name, small, large)


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
        from repro.core.provenance import DerivedEvent, SemanticMatch

        client = ClientRegistry().register("A", addresses=(("tcp", "a:1"),), client_id="cl-a")
        engine = NotificationEngine(history_limit=2)

        def publish(event_id: str) -> PublicationText:
            event = Event([("a", "1")], event_id=event_id)
            via = DerivedEvent.original(event)
            engine.fan_out(
                [
                    (client, SemanticMatch(_sub("a", "1", sub_id), event, via, 0))
                    for sub_id in ("s-a", "s-b")
                ]
            )
            first, second = engine.delivery_log("s-a")[-1], engine.delivery_log("s-b")[-1]
            assert first.text is second.text and first.body == second.body.replace("s-b", "s-a")
            return first.text

        # a row's reference is the only thing that keeps the text: the
        # window moving past the publication in both logs releases it
        text = publish("e0")
        held = sys.getrefcount(text)
        publish("e1")
        assert sys.getrefcount(text) == held
        publish("e2")  # history_limit=2: e0's row leaves each log
        assert sys.getrefcount(text) == held - 2

        # and so does forgetting the subscriptions that hold the rows
        text = publish("e3")
        held = sys.getrefcount(text)
        engine.forget("s-a")
        assert sys.getrefcount(text) == held - 1
        engine.forget("s-b")
        assert sys.getrefcount(text) == held - 2
        assert not engine._heads and not engine._delivery_log


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
        from repro.core.provenance import DerivedEvent, SemanticMatch

        event = Event([("a", "1")], event_id=event_id)
        return SemanticMatch(_sub("a", "1", sub_id), event, DerivedEvent.original(event), 0)

    def test_outcome_and_log_eviction(self, kb):
        from repro.broker.clients import ClientRegistry

        registry = ClientRegistry()
        client = self._client(registry)
        engine = NotificationEngine(history_limit=2)
        for index in range(4):
            engine.notify(client, self._match("s-a", f"e{index}"))
        assert len(engine.outcomes) == 2
        assert len(engine.delivery_log("s-a")) == 2
        # oldest entries evicted from outcomes AND the delivery log
        assert [e.sequence for e in engine.delivery_log("s-a")] == [3, 4]
        assert engine.stats.history_evictions == 4
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
            ({"k": "config", "cfg": dict(_encode_config(SemanticConfig()), matching_backend="numpy")},
             "matching_backend"),
            ({"k": "config", "cfg": dict(_encode_config(SemanticConfig()), vector_width=8)},
             "vector_width"),
        ],
        ids=["out", "ack", "unknown kind", "retired config key", "unknown config key"],
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

    @staticmethod
    def _rewrite(path, edit) -> None:
        records, _, torn = _scan_records(path.read_bytes())
        assert not torn
        edit(records)
        path.write_bytes(_frame(records))

    @pytest.mark.parametrize("where", ["snapshot", "journal"])
    @pytest.mark.parametrize("fault", ["id n01", "sequence gap"])
    def test_a_row_that_does_not_fit_its_log_is_refused(self, kb, tmp_path, where, fault):
        self._written(kb, tmp_path)
        if where == "snapshot":
            with recover(tmp_path, kb) as recovered:
                recovered.checkpoint()  # s-a's second row moves into the snapshot
            path = tmp_path / SNAPSHOT_NAME

            def second_row(records):  # [sequence, nid, ...]
                (log,) = [record for record in records if record["k"] == "log"]
                return log["entries"][1], 0
        else:
            path = tmp_path / JOURNAL_NAME

            def second_row(records):  # [sub_id, sequence, nid, ...]
                (outs,) = [record for record in records if record["k"] == "outs"]
                return outs["rows"][0], 1

        def forge(records):
            row, at = second_row(records)
            assert row[at] == 2
            if fault == "id n01":
                row[at + 1] = "n01"
            else:
                row[at] = 3

        self._rewrite(path, forge)
        with pytest.raises(StateFormatError, match="'n01'|not contiguous"):
            recover(tmp_path, kb)

    @pytest.mark.parametrize("executor", ["single", "process"])
    def test_a_failed_recovery_releases_the_broker_it_built(self, kb, tmp_path, executor):
        """The factory takes what a broker may hold by the time a step
        fails — the journal handle, a forked worker fleet — and the
        refused snapshot row must not leave either behind."""
        with Broker(kb, durability=tmp_path) as broker:
            _populate(broker)
            broker.checkpoint()

        def forge(records):
            (log,) = [record for record in records if record["k"] == "log"]
            log["entries"][0][1] = "n01"

        self._rewrite(tmp_path / SNAPSHOT_NAME, forge)
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

        with pytest.raises(StateFormatError, match="'n01'"):
            recover(tmp_path, kb, broker_factory=factory)
        (broker,) = built
        assert broker.durability._handle is None
        assert multiprocessing.active_children() == []


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
