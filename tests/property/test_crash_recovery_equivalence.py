"""Property: crash-restart recovery ≡ the uncrashed run (hard
invariant #7, the PR 9 acceptance criterion).

A durable broker journals every state-changing operation write-ahead
and outboxes/closes every publication's deliveries (one ``outs`` record
before the first send, one ``close`` record after the last, naming the
rows that did not ack).  The invariant: for a seeded trace of
client registrations, subscription churn, reconfiguration, and
publishes, crashing the journal at *any* append offset, recovering with
:func:`~repro.broker.durability.recover`, and resuming the trace from
``recovery.next_op_index`` must land in the same observable state as
the run that never crashed —

* the same clients and subscriptions,
* identical (sub_id, generality) match lists for a probe publication,
* identical per-subscription delivered-sequence frontiers, and
* every delivery sequence acked at most once across the whole journal
  (at-least-once sending, effectively-once settlement), and
* each stream's first sends, across the crashed run and the recovered
  broker, reaching a transport in sequence order (per-stream FIFO).

A torn final record must never prevent recovery — the crash fault
writes a half record precisely to pin that down.

Two legs: a deterministic sweep over *every* append offset of a fixed
trace (exhaustive, so no crash point can hide), and a hypothesis leg
that re-randomizes the knowledge base, the trace, and the crash offset
using the same generators as the interest-pruning invariant.  Then the
cases the offset axis cannot express by itself: what a half-written
``outs`` and a half-written ``close`` each mean, and a fan-out a dead
letter aborts part-way.  (Input in a form this broker never writes is
refused, not recovered: ``tests/unit/test_durability.py``.)
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Iterator

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.broker import Broker
from repro.broker.durability import (
    JOURNAL_NAME,
    Durability,
    _scan_records,
    recover,
)
from repro.broker.supervision import FaultPlan
from repro.broker.transports import TcpTransport, TransportRegistry
from repro.core.config import SemanticConfig
from repro.errors import DeliveryError, ReproError, SimulatedCrash
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase

from tests.property.test_interest_pruning_equivalence import (
    knowledge_bases,
    term_events,
    term_subscriptions,
)


# ---------------------------------------------------------------------------
# traces: one broker-level operation per journaled op record, explicit
# client/sub ids (the auto-id module counters differ across restarts)
# ---------------------------------------------------------------------------

def _build_ops(subs, evts) -> list[tuple]:
    ops: list[tuple] = [
        ("subscriber", "Ann", "cl-s0"),
        ("subscriber", "Ben", "cl-s1"),
        ("publisher", "Pia", "cl-p"),
    ]
    for index, sub in enumerate(subs):
        ops.append(
            (
                "sub",
                f"cl-s{index % 2}",
                Subscription(
                    sub.predicates,
                    sub_id=f"s{index}",
                    max_generality=sub.max_generality,
                ),
            )
        )
    for index, event in enumerate(evts):
        ops.append(("pub", "cl-p", event))
        if index == 0 and len(subs) > 1:
            ops.append(("unsub", "s1"))  # churn mid-stream
    ops.append(
        (
            "sub",
            "cl-s0",
            Subscription(
                subs[0].predicates,
                sub_id="r0",
                max_generality=subs[0].max_generality,
            ),
        )
    )
    ops.append(("config", SemanticConfig(max_generality=2)))
    ops.append(("pub", "cl-p", evts[-1]))
    return ops


def _apply(broker: Broker, ops, start: int = 0) -> None:
    for op in ops[start:]:
        kind = op[0]
        try:
            if kind == "subscriber":
                broker.register_subscriber(op[1], tcp=f"{op[2]}:1", client_id=op[2])
            elif kind == "publisher":
                broker.register_publisher(op[1], client_id=op[2])
            elif kind == "sub":
                broker.subscribe(op[1], op[2])
            elif kind == "unsub":
                broker.unsubscribe(op[1])
            elif kind == "pub":
                broker.publish(op[1], op[2])
            elif kind == "config":
                broker.reconfigure(op[1])
        except SimulatedCrash:
            raise
        except ReproError:
            # an operation the broker rejects live is rejected
            # identically on every leg (and skipped on journal replay)
            pass


def _observable(broker: Broker) -> dict:
    return {
        "clients": sorted(client.client_id for client in broker.registry.clients()),
        "subs": sorted(sub.sub_id for sub in broker.engine.subscriptions()),
        "frontiers": broker.notifier.delivery_frontiers(),
    }


def _probe(broker: Broker, event: Event) -> list[tuple[str, int]]:
    """(sub_id, generality) pairs of a probe publication — membership,
    generality, and reported order."""
    report = broker.publish("cl-p", event)
    return [(m.subscription.sub_id, m.generality) for m in report.matches]


def _run_clean(directory, kb, ops, probe, *, snapshot_every=0):
    """The uncrashed reference run; returns its observable state, its
    total journal appends over the trace (the crash-offset axis — the
    probe's own records come after it), and the probe's match list."""
    durability = Durability(directory, snapshot_every=snapshot_every)
    with Broker(kb, durability=durability) as broker:
        _apply(broker, ops)
        observable = _observable(broker)
        appends = durability.stats.journal_appends
        return observable, appends, _probe(broker, probe)


def _crash(directory, kb, ops, offset, *, snapshot_every=0, broker_factory=Broker) -> None:
    """Run the trace against a journal rigged to crash at append
    *offset* (past the trace's appends it never fires)."""
    durability = Durability(
        directory, snapshot_every=snapshot_every, fault_plan=FaultPlan.crash_at(offset)
    )
    broker = broker_factory(kb, durability=durability)
    try:
        _apply(broker, ops)
    except SimulatedCrash:
        pass
    finally:
        broker.close()


def _run_crashed(directory, kb, ops, offset, *, snapshot_every=0, broker_factory=Broker) -> Broker:
    """:func:`_crash`, then recover and resume the trace where the
    journal left off.  Both brokers are built by *broker_factory*.
    Returns the recovered broker (caller closes)."""
    _crash(directory, kb, ops, offset, snapshot_every=snapshot_every, broker_factory=broker_factory)
    recovered = recover(directory, kb, snapshot_every=snapshot_every, broker_factory=broker_factory)
    _apply(recovered, ops, start=recovered.recovery.next_op_index)
    return recovered


def _journal(directory) -> list[dict]:
    records, _, _ = _scan_records((Path(directory) / JOURNAL_NAME).read_bytes())
    return records


def _settlements(records) -> Iterator[tuple[dict, list[tuple[str, int, bool]]]]:
    """Each record with the ``(sub_id, sequence, ok)`` it settles: an
    ``acks`` record its rows; a ``close`` record every row of the
    ``outs`` straight before it — acked, or a dead letter where it lists
    the row ``dead``; a row it lists ``pending`` is not settled; any other
    record nothing."""
    previous = None
    for record in records:
        rows = []
        if record["k"] == "acks":
            rows = [tuple(row) for row in record["rows"]]
        elif record["k"] == "close":
            assert previous is not None and previous["k"] == "outs", "a close that follows no outs"
            listed = dict(record["rows"])
            rows = [
                (sid, n, at not in listed)
                for at, (sid, n, _) in enumerate(previous["rows"])
                if listed.get(at) != "pending"
            ]
        yield record, rows
        previous = record


def _ack_rows(records) -> list[tuple[str, int, bool]]:
    """Every ``(sub_id, sequence, ok)`` the journal settles, in order."""
    return [row for _, rows in _settlements(records) for row in rows]


def _assert_acked_at_most_once(directory) -> None:
    """Effectively-once settlement: no (sub, sequence) of one stream is
    successfully acked twice anywhere in the journal, by an ``acks``
    record or a ``close`` (valid without compaction, when the journal
    retains the full history).  An id subscribed again after an
    ``unsub`` starts a new stream at sequence 1, so a stream is the id
    and the number of its ``unsub`` records before the ack."""
    seen: set[tuple[str, int, int]] = set()
    ended: dict[str, int] = {}
    for record, rows in _settlements(_journal(directory)):
        if record["k"] == "unsub":
            ended[record["sid"]] = ended.get(record["sid"], 0) + 1
        for sid, n, ok in rows:
            if ok:
                key = (sid, ended.get(sid, 0), n)
                assert key not in seen, f"sequence acked twice: {key}"
                seen.add(key)


class _FirstSends(TcpTransport):
    """A TCP transport that notes, per subscription, the sequence of each
    row it is handed for the first time (a re-send of a row already sent
    is not noted)."""

    def __init__(self, firsts: dict[str, list[int]]) -> None:
        super().__init__()
        self.firsts = firsts

    def send(self, message):
        record = super().send(message)
        row = message.payload
        sent = self.firsts.setdefault(row.sub_id, [])
        if row.sequence not in sent:
            sent.append(row.sequence)
        return record


def _noting_first_sends(firsts: dict[str, list[int]]):
    """A broker factory whose brokers send over one :class:`_FirstSends`
    transport each, noting into *firsts*."""
    return lambda kb, **kwargs: Broker(
        kb, transports=TransportRegistry([_FirstSends(firsts)]), **kwargs
    )


def _assert_first_sends_in_order(firsts: dict[str, list[int]]) -> None:
    """Per-stream FIFO: across the crashed run and the recovered broker,
    each stream's rows first reach a transport in sequence order (the
    traces subscribe no id twice, so a subscription id is a stream)."""
    for sub_id, sequences in firsts.items():
        assert sequences == sorted(sequences), f"{sub_id} first sent out of order: {sequences}"


# ---------------------------------------------------------------------------
# deterministic leg: every crash offset of a fixed trace
# ---------------------------------------------------------------------------

def _fixed_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    taxonomy = kb.add_domain("d")
    taxonomy.add_chain("root", "mid", "leaf")
    kb.add_value_synonyms(["mid", "centre"], root="mid")
    return kb


def _fixed_trace():
    subs = [
        Subscription([Predicate.eq("u", "root")], sub_id="s0"),
        Subscription([Predicate.eq("u", "leaf")], sub_id="s1", max_generality=0),
    ]
    evts = [
        Event([("u", "leaf")], event_id="e0"),
        Event([("u", "centre")], event_id="e1"),
    ]
    return _build_ops(subs, evts), Event([("u", "mid")], event_id="probe")


def test_every_crash_offset_recovers_to_the_uncrashed_state(tmp_path):
    """The exhaustive sweep: crash at append 0, 1, …, N (the offset at
    N never fires — a plain restart), recover, resume, and compare
    state, probe matches, frontiers, and ack uniqueness every time."""
    kb = _fixed_kb()
    ops, probe = _fixed_trace()
    expected, total_appends, clean_probe = _run_clean(tmp_path / "clean", kb, ops, probe)
    assert total_appends > len(ops)  # outs/acks records are on the axis too

    for offset in range(total_appends + 1):
        work = tmp_path / f"crash{offset}"
        firsts: dict[str, list[int]] = {}
        recovered = _run_crashed(work, kb, ops, offset, broker_factory=_noting_first_sends(firsts))
        try:
            assert _observable(recovered) == expected, f"state diverged at offset {offset}"
            assert _probe(recovered, probe) == clean_probe, (
                f"probe matches diverged at offset {offset}"
            )
            if offset < total_appends:
                # the crash fired: a torn half-record was written and
                # recovery truncated it rather than refusing to start
                assert recovered.recovery.torn_tail_truncations <= 1
            _assert_acked_at_most_once(work)
            assert firsts, "nothing was sent"
            _assert_first_sends_in_order(firsts)
        finally:
            recovered.close()


def test_crash_sweep_with_aggressive_compaction(tmp_path):
    """The same sweep with a snapshot folded every two operations:
    crashes now land before, between, and after compactions, so
    recovery exercises the snapshot + journal-tail reconciliation at
    every point (ack uniqueness is out of scope — compaction discards
    journal history by design; per-stream FIFO is not)."""
    kb = _fixed_kb()
    ops, probe = _fixed_trace()
    expected, total_appends, clean_probe = _run_clean(
        tmp_path / "clean", kb, ops, probe, snapshot_every=2
    )

    for offset in range(total_appends + 1):
        firsts: dict[str, list[int]] = {}
        recovered = _run_crashed(
            tmp_path / f"crash{offset}", kb, ops, offset, snapshot_every=2,
            broker_factory=_noting_first_sends(firsts),
        )  # fmt: skip
        try:
            assert _observable(recovered) == expected, f"state diverged at offset {offset}"
            assert _probe(recovered, probe) == clean_probe
            _assert_first_sends_in_order(firsts)
        finally:
            recovered.close()


def test_a_crash_during_recovery_recovers_again(tmp_path, monkeypatch):
    """Recovery appends records of its own: the ``outs`` and ``close`` of
    the publication the crash cut, decided again, and an ``acks`` per
    row it re-sends.  For every offset of the first crash, on the fixed
    trace and the three-subscriber fan-out, a second crash at each of
    recovery's own appends is recovered in turn, and the trace resumed
    lands in the uncrashed state, with no sequence acked twice."""
    kb = _fixed_kb()
    append = Durability.append
    legs = 0
    for name, (ops, probe) in (("fixed", _fixed_trace()), ("fan-out", _fan_out_trace())):
        root = tmp_path / name
        expected, total_appends, clean_probe = _run_clean(root / "clean", kb, ops, probe)
        for offset in range(total_appends + 1):
            first = root / f"crash{offset}"
            _crash(first, kb, ops, offset)
            shutil.copytree(first, root / f"dry{offset}")
            with recover(root / f"dry{offset}", kb, snapshot_every=0) as once:
                appends = once.durability.stats.journal_appends
            for second in range(appends):
                work = root / f"crash{offset}-{second}"
                shutil.copytree(first, work)

                def crashing(self, payload, _at=second):
                    if self.fault_plan is None:  # the recovery's own store
                        self.fault_plan = FaultPlan.crash_at(_at)
                    return append(self, payload)

                with monkeypatch.context() as patch:
                    patch.setattr(Durability, "append", crashing)
                    with pytest.raises(SimulatedCrash):
                        recover(work, kb, snapshot_every=0)
                recovered = recover(work, kb, snapshot_every=0)
                try:
                    _apply(recovered, ops, start=recovered.recovery.next_op_index)
                    assert _observable(recovered) == expected, (name, offset, second)
                    assert _probe(recovered, probe) == clean_probe, (name, offset, second)
                    _assert_acked_at_most_once(work)
                finally:
                    recovered.close()
                legs += 1
    assert legs >= 8


def test_a_complete_publication_is_not_decided_again(tmp_path):
    """A publication whose ``outs`` the journal holds was decided: the
    rows say what it delivered, and recovery adopts them instead of
    matching again.  Here the knowledge base recovery is given learned
    ``crimson`` is-a ``red`` since: deciding again would notify ``s2``,
    which the run never did."""
    live_kb = KnowledgeBase()
    live_kb.add_domain("colour")
    with Broker(live_kb, durability=tmp_path) as broker:
        broker.register_subscriber("Ann", tcp="ann:1", client_id="cl-s1")
        broker.register_subscriber("Ben", tcp="ben:1", client_id="cl-s2")
        broker.register_publisher("Pia", client_id="cl-p")
        broker.subscribe("cl-s1", Subscription([Predicate.eq("colour", "crimson")], sub_id="s1"))
        broker.subscribe("cl-s2", Subscription([Predicate.eq("colour", "red")], sub_id="s2"))
        report = broker.publish("cl-p", Event([("colour", "crimson")], event_id="e1"))
        assert [m.subscription.sub_id for m in report.matches] == ["s1"]
        live = broker.notifier.delivery_frontiers()
    assert live == {"s1": 1}

    later_kb = KnowledgeBase()
    later_kb.add_domain("colour").add_chain("crimson", "red")
    with recover(tmp_path, later_kb) as recovered:
        assert recovered.notifier.delivery_frontiers() == live
        assert recovered.notifier.delivery_log("s2") == []
        assert recovered.notifier.stats.notifications == 0
        assert recovered.recovery.replayed_deliveries == 0
        assert recovered.recovery.dedup_drops == 1


# ---------------------------------------------------------------------------
# windowed leg: a delivery window smaller than one subscription's rows in
# the journal tail, and an id that ends and starts again inside it
# ---------------------------------------------------------------------------

#: the rows a subscription's delivery log keeps in this leg
_WINDOW = 2


def _windowed_broker(kb, **kwargs) -> Broker:
    """A broker whose notifier keeps ``_WINDOW`` rows a subscription,
    set before the first subscribe (live and when recover() builds it)."""
    broker = Broker(kb, **kwargs)
    broker.notifier.history_limit = _WINDOW
    return broker


def _windowed_trace():
    """Two subscriptions that every publication matches: three
    publications, then ``s1`` unsubscribes and subscribes again (a new
    stream under the same id, for the other client), then two more."""
    ops: list[tuple] = [
        ("subscriber", "Ann", "cl-s0"),
        ("subscriber", "Ben", "cl-s1"),
        ("publisher", "Pia", "cl-p"),
        ("sub", "cl-s0", Subscription([Predicate.eq("u", "mid")], sub_id="s0")),
        ("sub", "cl-s1", Subscription([Predicate.eq("u", "leaf")], sub_id="s1")),
    ]
    for index in range(5):
        if index == 3:
            ops.append(("unsub", "s1"))
            ops.append(("sub", "cl-s0", Subscription([Predicate.eq("u", "mid")], sub_id="s1")))
        ops.append(("pub", "cl-p", Event([("u", "root"), ("v", index)], event_id=f"e{index}")))
    return ops, Event([("u", "root")], event_id="probe")


def _logs(broker: Broker) -> dict:
    """Every live subscription's retained rows, whole."""
    return {
        sub.sub_id: [
            (e.sequence, e.notification_id, e.client_id, e.event_id, e.body, e.status)
            for e in broker.notifier.delivery_log(sub.sub_id)
        ]
        for sub in broker.engine.subscriptions()
    }


def test_a_window_smaller_than_the_tail_recovers_at_every_offset(tmp_path):
    """Hard invariant #7 when recovery's ledger outruns the window: ``s0``
    has five rows in the journal tail and keeps two, and ``s1`` ends and
    starts again inside it.  At every crash offset the recovered broker
    lands in the uncrashed state, its windowed delivery logs included."""
    kb = _fixed_kb()
    ops, probe = _windowed_trace()
    durability = Durability(tmp_path / "clean", snapshot_every=0)
    with _windowed_broker(kb, durability=durability) as broker:
        _apply(broker, ops)
        expected = _observable(broker), _logs(broker)
        total_appends = durability.stats.journal_appends
        clean_probe = _probe(broker, probe)
    outs = [row for r in _journal(tmp_path / "clean") if r["k"] == "outs" for row in r["rows"]]
    assert sum(row[0] == "s0" for row in outs) > 2 * _WINDOW
    assert [len(rows) for rows in expected[1].values()] == [_WINDOW, _WINDOW]

    for offset in range(total_appends + 1):
        work = tmp_path / f"crash{offset}"
        recovered = _run_crashed(work, kb, ops, offset, broker_factory=_windowed_broker)
        try:
            assert (_observable(recovered), _logs(recovered)) == expected, offset
            assert _probe(recovered, probe) == clean_probe, offset
            _assert_acked_at_most_once(work)
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# mid-batch cases: what a torn ``outs``, a torn ``close`` and an aborted
# fan-out each mean
# ---------------------------------------------------------------------------

def _fan_out_trace():
    """Three subscribers whose subscriptions all match the two
    publications: each publication is one ``outs`` of three rows."""
    ops: list[tuple] = [
        ("subscriber", "Ann", "cl-s0"),
        ("subscriber", "Ben", "cl-s1"),
        ("subscriber", "Cy", "cl-s2"),
        ("publisher", "Pia", "cl-p"),
    ]
    for index, term in enumerate(("root", "mid", "leaf")):
        ops.append(
            ("sub", f"cl-s{index}", Subscription([Predicate.eq("u", term)], sub_id=f"s{index}"))
        )
    # "root" is the chain's most specific term: it generalizes to both others
    ops.append(("pub", "cl-p", Event([("u", "root")], event_id="e0")))
    ops.append(("pub", "cl-p", Event([("u", "root"), ("v", 1)], event_id="e1")))
    return ops, Event([("u", "root")], event_id="probe")


def _crash_in_first(kind: str, tmp_path):
    """Run the fan-out trace clean, then again crashing at the append of
    the first record of *kind*; returns the clean run's observable
    state and journal, and the crashed broker (closed, its in-memory
    state still readable) with its directory."""
    kb = _fixed_kb()
    ops, probe = _fan_out_trace()
    expected, _, _ = _run_clean(tmp_path / "clean", kb, ops, probe)
    clean = _journal(tmp_path / "clean")
    # without compaction a record's position in the file is its append index
    offset = next(index for index, record in enumerate(clean) if record["k"] == kind)
    work = tmp_path / "crash"
    crashed = Broker(
        kb, durability=Durability(work, snapshot_every=0, fault_plan=FaultPlan.crash_at(offset))
    )
    with pytest.raises(SimulatedCrash):
        _apply(crashed, ops)
    crashed.close()
    return kb, ops, expected, clean, crashed, work


def test_half_written_outs_means_no_send_happened(tmp_path):
    """The ``outs`` record goes to the journal before the first send, so
    a torn one proves nothing left the broker: recovery delivers the
    replayed publication fresh, drawing the sequences and ids the
    uncrashed run drew."""
    kb, ops, expected, clean, crashed, work = _crash_in_first("outs", tmp_path)
    assert crashed.notifier.stats.notifications == 0
    recovered = recover(work, kb, snapshot_every=0)
    try:
        assert recovered.recovery.torn_tail_truncations == 1
        assert recovered.recovery.dedup_drops == 0
        assert recovered.recovery.replayed_deliveries == 3
        _apply(recovered, ops, start=recovered.recovery.next_op_index)
        assert _observable(recovered) == expected
        # record for record what the uncrashed run journaled
        assert _journal(work) == clean[: len(_journal(work))]
        _assert_acked_at_most_once(work)
    finally:
        recovered.close()


def test_half_written_close_resends_every_row_once(tmp_path):
    """``outs`` without a complete ``close``: every row of the
    publication is pending, is re-sent once and settled once (the
    subscribers dedup by ``(sub_id, sequence)``), and the frontiers end
    where the uncrashed run's did."""
    kb, ops, expected, clean, crashed, work = _crash_in_first("close", tmp_path)
    assert crashed.notifier.stats.notifications == 3  # all three went out before the crash
    recovered = recover(work, kb, snapshot_every=0)
    try:
        assert recovered.recovery.torn_tail_truncations == 1
        assert recovered.recovery.dedup_drops == 0
        assert recovered.recovery.replayed_deliveries == 3
        assert recovered.notifier.stats.notifications == 3
        _apply(recovered, ops, start=recovered.recovery.next_op_index)
        assert _observable(recovered) == expected
        # two publications of three rows (the clean run's probe came after)
        assert _ack_rows(_journal(work)) == _ack_rows(clean)[:6]
        _assert_acked_at_most_once(work)
    finally:
        recovered.close()


def test_dead_letter_abort_mid_fan_out_still_closes_what_it_settled(tmp_path):
    """``raise_on_dead_letter`` aborts the fan-out at the second of
    three rows: the ``close`` record is still written, naming the dead
    row and the one the abort never got to, so recovery drops the two
    settled rows and re-sends only the pending one."""
    kb = _fixed_kb()
    ops, _ = _fan_out_trace()
    broker = Broker(kb, durability=tmp_path)
    broker.notifier.raise_on_dead_letter = True
    _apply(broker, ops[:4])
    broker.remove_client("cl-s1")
    broker.register_subscriber("Ben", sms="+1", client_id="cl-s1")  # one transport, no fallback
    _apply(broker, ops[4:7])
    broker.notifier.transports.get("sms").fail_next(broker.notifier.max_attempts)
    with pytest.raises(DeliveryError):
        broker.publish("cl-p", Event([("u", "root")], event_id="e0"))
    records = _journal(tmp_path)
    (outs,) = [record for record in records if record["k"] == "outs"]
    assert [row[:2] for row in outs["rows"]] == [["s0", 1], ["s1", 1], ["s2", 1]]
    assert records[-1] == {"k": "close", "rows": [[1, "dead"], [2, "pending"]], "i": outs["i"] + 1}
    assert _ack_rows(records) == [("s0", 1, True), ("s1", 1, False)]
    assert [entry.status for entry in broker.notifier.delivery_log("s2")] == ["pending"]
    broker.close()

    recovered = recover(tmp_path, kb)
    try:
        assert recovered.recovery.dedup_drops == 2  # the acked row and the dead one
        assert recovered.recovery.replayed_deliveries == 1
        assert recovered.notifier.delivery_frontiers() == {"s0": 1, "s2": 1}
        assert [entry.status for entry in recovered.notifier.delivery_log("s1")] == ["dead"]
        assert _ack_rows(_journal(tmp_path))[2:] == [("s2", 1, True)]
        _assert_acked_at_most_once(tmp_path)
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# hypothesis leg: random knowledge bases, traces, and crash offsets
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=4),
    evts=st.lists(term_events(), min_size=1, max_size=3),
    offset=st.integers(min_value=0, max_value=80),
)
def test_random_crash_offset_recovers_to_the_uncrashed_state(kb, subs, evts, offset):
    """Random taxonomies/synonyms/rules, random subscription and event
    mixes, a random crash offset (offsets beyond the journal length
    degrade to a plain restart, which must also be equivalent)."""
    ops = _build_ops(subs, evts)
    probe = evts[0]
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        expected, _, clean_probe = _run_clean(root / "clean", kb, ops, probe)
        firsts: dict[str, list[int]] = {}
        recovered = _run_crashed(
            root / "crash", kb, ops, offset, broker_factory=_noting_first_sends(firsts)
        )
        try:
            assert _observable(recovered) == expected
            assert _probe(recovered, probe) == clean_probe
            _assert_acked_at_most_once(root / "crash")
            _assert_first_sends_in_order(firsts)
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# mega-ontology leg (nightly): crash offsets on a 100k-term world
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    os.environ.get("STOPSS_STRESS_LARGE") != "1",
    reason="100k-term world (nightly; set STOPSS_STRESS_LARGE=1 to run)",
)
def test_mega_world_crash_offsets_recover(tmp_path):
    """Crash-restart equivalence against a generated 110k-concept
    world: journal replay re-expands every subscription through the
    full-size taxonomy closures, so recovery must still land in the
    uncrashed state at early, middle, and no-crash offsets."""
    from repro.workload.worlds import build_world

    world = build_world("mega-100k")
    generator = world.generator(seed=88)
    ops = _build_ops(generator.subscriptions(5), generator.events(3))
    probe = generator.event()
    expected, total_appends, clean_probe = _run_clean(
        tmp_path / "clean", world.kb, ops, probe
    )
    for offset in sorted({0, total_appends // 2, total_appends}):
        work = tmp_path / f"crash{offset}"
        recovered = _run_crashed(work, world.kb, ops, offset)
        try:
            assert _observable(recovered) == expected, f"state diverged at {offset}"
            assert _probe(recovered, probe) == clean_probe, f"probe diverged at {offset}"
            _assert_acked_at_most_once(work)
        finally:
            recovered.close()
