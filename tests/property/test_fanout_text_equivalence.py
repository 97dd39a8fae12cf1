"""Property: the grouped fan-out says, byte for byte, what the
per-notification rendering it replaced said.

A publication's notifications are staged as one unit of work: the event
is rendered once, each distinct derivation once, each subscription once,
and a delivery-log row holds references to those parts.  The oracle is
the rendering every notification used to get for itself —
:meth:`Notification.subject` and :meth:`SemanticMatch.explain`, both
untouched — and the invariant is that every ``OutboundMessage`` handed
to a transport and every retained ``entry.subject`` / ``entry.body``
equals it:

* live, for every delivery of a trace;
* after ``checkpoint()`` + ``recover()`` (the snapshot's ``outs``
  records, each row's head rendered from its subscription's ``sub``
  record), and after a journal-only ``recover()`` (the journal's);
* through ``replay_from`` on each of those brokers, and in the
  ``durable_state()`` records each of them would snapshot;
* for deliveries a recovery re-sends from their stored parts.

Every retained text holds one stored form — one zlib blob per
publication of the event's pairs and its witnesses' compact steps — and
nothing rendered once its fan-out has ended, so each of those reads
renders from that form; a separate property holds the form lossless
for any string values, names and rule descriptions.

The traces (the job-finder cast and a generated ``mega-small`` world)
are driven so that every way of arriving at a row is covered: exact
syntactic matches, synonym-, hierarchy- and mapping-derived matches,
witnesses composed from a core event and free attributes' alternatives
(their chains are concatenated at match time, never integrated by the
pipeline), result-cache hits (the same content under a new event
id: the event part must be rendered again, the derivation may be
shared), a subscriber whose first transport is SMS
(``SmsTransport.render`` truncates subject + body), and a
``ShardedBroker(shards=2)`` whose matches carry derived events decoded
per shard.
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.broker.broker import Broker
from repro.broker.durability import (
    JOURNAL_NAME,
    _decode_subscription,
    _encode_record,
    _scan_records,
    recover,
)
from repro.broker.notifications import PublicationText, _pack, decode_text
from repro.broker.sharding import ShardedBroker, ShardedEngine
from repro.broker.transports import SmsTransport, TcpTransport, TransportRegistry
from repro.core.pipeline import SemanticPipeline
from repro.core.provenance import (
    CANON,
    GENERAL,
    MAPPING,
    SYNONYM,
    Witness,
    derivation_part,
    event_part,
    subscription_part,
)
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.model.values import Period
from repro.ontology.domains import build_jobs_knowledge_base
from repro.workload.jobfinder import JobFinderScenario, JobFinderSpec
from repro.workload.worlds import build_world


def _jobfinder_cast():
    kb = build_jobs_knowledge_base()
    scenario = JobFinderScenario(kb, JobFinderSpec(n_companies=12, n_candidates=10, seed=19))
    subs = [sub for company in scenario.companies for sub in company.subscriptions]
    # a subscription every resume satisfies as published: exact syntactic matches
    subs.append(Subscription([Predicate.ge("salary", 0)]))
    return kb, subs, [candidate.resume for candidate in scenario.candidates]


def _mega_small_cast():
    world = build_world("mega-small")
    generator = world.generator(seed=1903)
    return world.kb, generator.subscriptions(40), generator.events(8)


_CASTS = {"jobfinder": _jobfinder_cast, "mega-small": _mega_small_cast}
_BROKERS = {
    "single": Broker,
    "sharded-2": lambda kb, **kwargs: ShardedBroker(kb, shards=2, executor="serial", **kwargs),
}


class _Recording:
    """A transport that appends each :class:`DeliveryRecord` it returns
    to a list: how a test sees the sends recovery makes on its own."""

    def __init__(self, sent: list, **kwargs) -> None:
        super().__init__(**kwargs)
        self.sent = sent

    def send(self, message):
        record = super().send(message)
        self.sent.append(record)
        return record


class _RecordingSms(_Recording, SmsTransport):
    pass


class _RecordingTcp(_Recording, TcpTransport):
    pass


def _transports(sent: list | None = None) -> TransportRegistry:
    # no injected failures: which transport carried a message is then
    # the client's first preference, and the oracle knows what it renders
    if sent is not None:
        return TransportRegistry([_RecordingSms(sent, failure_rate=0.0), _RecordingTcp(sent)])
    return TransportRegistry([SmsTransport(failure_rate=0.0), TcpTransport()])


def _sent(record) -> tuple[str, str]:
    message = record.message
    return message.subject, message.body


def _on_the_wire(record, subject: str, body: str) -> tuple[str, str]:
    """What the transport that sent *record* is handed for a
    notification rendered as (*subject*, *body*)."""
    if record.message.transport == "sms":
        return subject, SmsTransport.render(subject, body)
    return subject, body


def _drive(broker, subs, events) -> tuple[dict, set]:
    """Run the trace; returns ``{(sub_id, sequence): (subject, body)}``
    rendered the old way, one notification at a time, and the derivation
    stages the matches went through (``"exact"`` for none, ``"composed"``
    for a value step on an attribute the engine's matcher is handed as
    free: the core never takes one, so only a witness composed from its
    alternatives holds it)."""
    engine = broker.engine
    engine = engine.engines[0] if isinstance(engine, ShardedEngine) else engine
    pipeline, factored = SemanticPipeline(broker.kb, engine.config), engine.matcher.accepts_factored
    broker.register_subscriber("Wire", tcp="wire:1", client_id="cl-tcp")
    broker.register_subscriber("Pager", sms="+1-555-0100", tcp="pager:1", client_id="cl-sms")
    broker.register_publisher("Feed", client_id="cl-p")
    for index, sub in enumerate(subs):
        broker.subscribe(
            ("cl-tcp", "cl-sms")[index % 2],
            Subscription(sub.predicates, sub_id=f"s{index}", max_generality=sub.max_generality),
        )
    expected: dict[tuple[str, int], tuple[str, str]] = {}
    stages: set[str] = set()
    for index, event in enumerate(events):
        free = pipeline.process_event(event, factored=factored).free
        seen = Event(event.items(), event_id=f"seen-{index}")  # a first sighting stores nothing
        again = Event(event.items(), event_id=f"again-{index}")  # a result-cache hit
        for publication in (seen, Event(event.items(), event_id=f"first-{index}"), again):
            report = broker.publish("cl-p", publication)
            assert len(report.outcomes) == len(report.matches)
            for outcome, match in zip(report.outcomes, report.matches):
                notification = outcome.notification
                assert outcome.delivered and notification.match is match
                subject, body = notification.subject(), match.explain()
                assert "".join(match.explain_parts()) == body
                assert _sent(outcome.record) == _on_the_wire(outcome.record, subject, body)
                expected[notification.sub_id, notification.sequence] = (subject, body)
                via = match.matched_via
                stages.update(step.stage for step in via.steps)
                if not match.is_semantic:
                    stages.add("exact")
                if any(step[0] in (CANON, GENERAL) and step[1] in free for step in match.via):
                    stages.add("composed")
    assert broker.dispatcher.result_cache_hits == len(events)
    return expected, stages


def _snapshot_text(broker) -> dict[tuple[str, int], tuple[str, str]]:
    """``{(sub_id, sequence): (subject, body)}`` as the broker's snapshot
    records spell them: the head rendered from the row's ``sub`` record,
    the event and the witness it indexes rendered from its ``outs``
    record."""
    heads: dict[str, str] = {}
    spelled = {}
    for record in broker._durable_state():
        if record["k"] == "sub":
            heads[record["sid"]] = subscription_part(_decode_subscription(record))
        elif record["k"] == "outs":
            event, witnesses = decode_text(record["eid"], record["pairs"], record["via"])
            for sub_id, sequence, via in filter(None, record["rows"]):
                subject = f"S-ToPSS: subscription {sub_id} matched event {record['eid']}"
                body = heads[sub_id] + event_part(event) + derivation_part(witnesses[via], event)
                spelled[sub_id, sequence] = (subject, body)
    return spelled


def _assert_retained_text(broker, expected) -> None:
    """Every retained row holds its text's stored form alone, nothing
    rendered, and reads as the oracle rendered it, and so does every
    snapshot record and every message ``replay_from`` sends from the
    rows."""
    sub_ids = sorted({sub_id for sub_id, _ in expected})
    notifier = broker.notifier
    texts = list(notifier._texts.values())  # the texts the retained rows name
    assert texts and all(type(text.blob) is bytes and text._shown is None for text in texts)
    retained = {
        (sub_id, entry.sequence): (entry.subject, entry.body)
        for sub_id in sub_ids
        for entry in notifier.delivery_log(sub_id)
    }
    assert retained == expected
    assert _snapshot_text(broker) == expected
    for sub_id in sub_ids:
        for outcome in broker.replay_from(sub_id, 1):
            key = (sub_id, outcome.notification.sequence)
            assert _sent(outcome.record) == _on_the_wire(outcome.record, *expected[key]), key


_TEXT = st.text(alphabet=st.characters(exclude_categories=()))


@given(value=_TEXT, general=_TEXT, rule=_TEXT, description=_TEXT)
@example("\x00", "a\x00b", "\n\nline\n", "")
@example("\U0001f600", "\ud83d\ude00", "\ud800", "\udfff tail")
@example("", "\uffff\U0010ffff", "", "")
def test_the_stored_form_renders_what_the_match_did(value, general, rule, description):
    """Any string a value, a generalization, a rule name or a rule
    description holds — control characters, lone surrogates — and a
    period (through the value codec) renders from a text's stored form
    as it does from the live event and witness."""
    event = Event([("school", value), ("n", 4.5), ("term", Period(1994, 1997))], event_id="e")
    witnesses = [
        Witness(),
        Witness([(SYNONYM, "university", 0, "school"), (GENERAL, "university", 2, general)]),
        Witness([(MAPPING, "", 0, rule, description, (("flag", True), ("term", Period(3, 4))))]),
    ]
    text = PublicationText("e", _pack(event.items(), witnesses), 1)
    assert text.event_part() == event_part(event)
    for index, witness in enumerate(witnesses):
        assert text.derivation_part(index) == derivation_part(witness, event)


@pytest.mark.parametrize("origin", ["live", "journal", "snapshot"])
@pytest.mark.parametrize("broker_kind", _BROKERS)
@pytest.mark.parametrize("cast", _CASTS)
def test_fan_out_text_equals_per_notification_rendering(cast, broker_kind, origin, tmp_path):
    kb, subs, events = _CASTS[cast]()
    factory = _BROKERS[broker_kind]
    live_dir, journal_dir, pending_dir = (tmp_path / name for name in ("live", "wal", "pending"))

    broker = factory(kb, durability=live_dir, transports=_transports())
    try:
        expected, stages = _drive(broker, subs, events)
        assert len(expected) > 4 * len(events), "a degenerate trace: hardly any fan-out"
        assert {"exact", "hierarchy"} <= stages
        if cast == "jobfinder":
            assert {"synonym", "mapping", "composed"} <= stages
        if origin == "live":
            _assert_retained_text(broker, expected)
            return
        shutil.copytree(live_dir, journal_dir)  # the journal alone, before any snapshot
        broker.checkpoint()
    finally:
        broker.close()

    def recovered_from(directory):
        return recover(directory, kb, broker_factory=factory, transports=_transports())

    if origin == "snapshot":
        # the snapshot: a publication's rows in its outs record, taking
        # their head from their subscription's sub record
        from_snapshot = recovered_from(live_dir)
        try:
            assert from_snapshot.recovery.snapshot_loaded
            assert from_snapshot.recovery.records_replayed == 0
            _assert_retained_text(from_snapshot, expected)
        finally:
            from_snapshot.close()
        return

    # the journal alone: one outs record per publication
    from_journal = recovered_from(journal_dir)
    try:
        assert not from_journal.recovery.snapshot_loaded
        assert from_journal.recovery.dedup_drops == len(expected)
        assert from_journal.recovery.replayed_deliveries == 0
        _assert_retained_text(from_journal, expected)
    finally:
        from_journal.close()

    # the journal without its last close record: that publication's rows
    # are re-sent by recovery, from the parts its outs record stored
    records, _, _ = _scan_records((journal_dir / JOURNAL_NAME).read_bytes())
    last = max(index for index, record in enumerate(records) if record["k"] == "close")
    assert records[last - 1]["k"] == "outs"
    unacked = {(sid, n) for sid, n, _ in records[last - 1]["rows"]}
    pending_dir.mkdir()
    (pending_dir / JOURNAL_NAME).write_bytes(
        b"".join(_encode_record(r) for r in records[:last] + records[last + 1 :])
    )
    sent: list = []
    resending = recover(pending_dir, kb, broker_factory=factory, transports=_transports(sent))
    try:
        assert resending.recovery.replayed_deliveries == len(unacked) == len(sent)
        # recovery's re-sends as its transports saw them, by row
        row_of = {
            entry.notification_id: (sub_id, entry.sequence)
            for sub_id in {sub_id for sub_id, _ in unacked}
            for entry in resending.notifier.delivery_log(sub_id)
        }
        resent = {row_of[record.message.notification_id]: record for record in sent}
        assert set(resent) == unacked
        for key, record in resent.items():
            assert _sent(record) == _on_the_wire(record, *expected[key]), key
        _assert_retained_text(resending, expected)
    finally:
        resending.close()
