"""A delivery's text is rendered when someone reads it, never on the
publish path, and it reads the same whatever the knowledge base learns
after the publication.

A publication keeps its event's pairs and its witnesses' compact steps
(:class:`~repro.broker.notifications.PublicationText`); the subject, the
body, the event part and each derivation are rendered from them on
read.  The probes below count calls to the renderers the notification
engine uses — :func:`~repro.core.provenance.event_part`,
:func:`~repro.core.provenance.derivation_part`,
:func:`~repro.core.provenance.subscription_part` and
:meth:`~repro.core.provenance.Witness.explain` — around a publish, and
around each way of reading what it sent.
"""

from __future__ import annotations

import pytest

from repro.broker import notifications
from repro.broker.broker import Broker
from repro.broker.durability import recover
from repro.broker.transports import SmsTransport, TcpTransport, TransportRegistry
from repro.core.provenance import Witness
from repro.model.events import Event
from repro.model.parser import parse_subscription
from repro.ontology.knowledge_base import KnowledgeBase

_RENDERERS = ("event_part", "derivation_part", "subscription_part")
#: every renderer a body read calls, sorted
_ALL = ["derivation_part", "event_part", "explain", "subscription_part"]


@pytest.fixture
def calls(monkeypatch) -> list[str]:
    """The name of each renderer call, in order."""
    made: list[str] = []

    def counting(name, render):
        def counted(*args):
            made.append(name)
            return render(*args)

        return counted

    for name in _RENDERERS:
        monkeypatch.setattr(notifications, name, counting(name, getattr(notifications, name)))
    monkeypatch.setattr(Witness, "explain", counting("explain", Witness.explain))
    return made


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_attribute_synonyms(["school"], root="university")
    jobs = kb.add_domain("jobs")
    jobs.add_chain("PhD", "graduate degree", "degree")
    return kb


def _broker(kb, tmp_path, durable: bool, transports=None) -> Broker:
    broker = Broker(
        kb,
        durability=tmp_path / "state" if durable else None,
        transports=transports or TransportRegistry([TcpTransport()]),
    )
    broker.register_publisher("Feed", client_id="cl-p")
    return broker


def _subscribe(broker, count: int, **address) -> None:
    for index in range(count):
        client_id = f"cl-{index}"
        broker.register_subscriber(f"S{index}", client_id=client_id, **address)
        text = "(university = Toronto) and (degree = degree)"
        broker.subscribe(client_id, parse_subscription(text, sub_id=f"s{index}"))


_EVENT = [("school", "Toronto"), ("degree", "PhD")]


@pytest.mark.parametrize("durable", [False, True], ids=["in-memory", "durable"])
def test_a_publish_renders_nothing_until_a_read(calls, tmp_path, durable):
    broker = _broker(_kb(), tmp_path, durable)
    try:
        _subscribe(broker, 3, tcp="wire:1")
        report = broker.publish("cl-p", Event(_EVENT, event_id="e1"))
        assert len(report.outcomes) == 3 and all(o.delivered for o in report.outcomes)
        assert calls == []

        reads = {
            "delivery_log": lambda: broker.notifier.delivery_log("s1")[0].body,
            "replay_from": lambda: broker.replay_from("s1", 1)[0].record.message.body,
            "message body": lambda: report.outcomes[1].record.message.body,
        }
        expected = report.matches[1].explain()
        for name, read in reads.items():
            calls.clear()
            assert read() == expected, name
            assert sorted(set(calls)) == _ALL, name
    finally:
        broker.close()


def test_a_fan_out_renders_each_part_it_reads_once(calls, tmp_path):
    """SMS sends read the body: five of them sharing one derivation
    render the event and the derivation once, the subscription once
    each."""
    transports = TransportRegistry([SmsTransport(failure_rate=0.0)])
    broker = _broker(_kb(), tmp_path, False, transports)
    try:
        _subscribe(broker, 5, sms="+1-555-0100")
        report = broker.publish("cl-p", Event(_EVENT, event_id="e1"))
        assert len({match.via for match in report.matches}) == 1
        assert sorted(calls) == [*_ALL[:3], *["subscription_part"] * 5]
        for outcome, match in zip(report.outcomes, report.matches):
            subject = outcome.notification.subject()
            assert outcome.record.message.body == SmsTransport.render(subject, match.explain())
    finally:
        broker.close()


@pytest.mark.parametrize("durable", [False, True], ids=["in-memory", "durable"])
def test_text_read_after_a_knowledge_base_write_is_what_it_was(tmp_path, durable):
    """A taxonomy write that shortens ``PhD``'s climb to ``degree``
    changes a fresh derivation of the same event; the retained rows,
    their snapshot and their recovery still read as sent."""
    kb = _kb()
    broker = _broker(kb, tmp_path, durable)
    try:
        _subscribe(broker, 2, tcp="wire:1")
        broker.publish("cl-p", Event(_EVENT, event_id="e1"))
        before = [entry.body for entry in broker.notifier.delivery_log("s0")]
        assert "(+2 levels)" in before[0]

        kb.taxonomy("jobs").add_chain("PhD", "degree")
        fresh = broker.publish("cl-p", Event(_EVENT, event_id="e2"))
        assert "(+1 level)" in fresh.matches[0].explain()

        assert [entry.body for entry in broker.notifier.delivery_log("s0")][:1] == before
        if durable:
            broker.checkpoint()
    finally:
        broker.close()
    if durable:
        with recover(tmp_path / "state", kb) as recovered:
            assert [e.body for e in recovered.notifier.delivery_log("s0")][:1] == before
