"""The value types retained match sets are built from are slotted.

A cached match set, a delivery outcome and a transport record are
graphs of these frozen dataclasses; with ``slots=True`` each instance
is its fields and no per-instance ``__dict__``.  The contract they keep
is the frozen dataclass's: assignment raises, equality and hashing
survive a pickle round trip (subscriptions cross the shard pipe that
way, operands and all), and the cached ``_generality`` stays out of
``repr`` and ``==``.  A predicate caches nothing: its ``key`` is built
on each read.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.broker.clients import Client, ClientKind
from repro.broker.notifications import DeliveryOutcome, Notification
from repro.broker.transports import DeliveryRecord, OutboundMessage, Text
from repro.core.provenance import GENERAL, DerivationStep, DerivedEvent, SemanticMatch, Witness
from repro.model.events import Event
from repro.model.predicates import Predicate, Range
from repro.model.subscriptions import Subscription
from repro.model.values import Period


def _instances() -> dict[str, object]:
    event = Event({"degree": "PhD", "period": Period(1999)}, event_id="e1")
    subscription = Subscription(
        [
            Predicate.eq("degree", "degree"),
            Predicate.between("graduation_year", 1990, 2000),
            Predicate.isin("university", ["Toronto", "Waterloo"]),
            Predicate.eq("period", Period(1994, 1997)),
        ],
        subscriber_id="c1",
        sub_id="s1",
        max_generality=2,
    )
    step = DerivationStep("hierarchy", "PhD -> degree", "degree", 1)
    derived = DerivedEvent.original(event).extend(Event({"degree": "degree"}), step)
    match = SemanticMatch(subscription, event, Witness([(GENERAL, "degree", 1, "degree")]), 1)
    client = Client("c1", "Initech", ClientKind.SUBSCRIBER, (("tcp", "h:1"),))
    notification = Notification("n1", client, match, "s1", 1)
    message = OutboundMessage("tcp", "h:1", Text("subject", "body"), "n1", message_id="m1")
    record = DeliveryRecord(message, "delivered", 1.5)
    return {
        "Predicate": subscription.predicates[0],
        "Range": Range(1990, 2000),
        "Period": Period(1994, 1997),
        "Subscription": subscription,
        "DerivationStep": step,
        "DerivedEvent": derived,
        "SemanticMatch": match,
        "Notification": notification,
        "DeliveryOutcome": DeliveryOutcome(notification, record, 1, True, "tcp"),
        "OutboundMessage": message,
        "DeliveryRecord": record,
    }


NAMES = sorted(_instances())


@pytest.mark.parametrize("name", NAMES)
def test_slotted_frozen_and_pickle_equal(name):
    value = _instances()[name]
    assert type(value).__name__ == name
    assert not hasattr(value, "__dict__")
    first = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value
    assert repr(copy) == repr(value)


def test_subscription_operands_survive_the_pipe():
    """Range, Period and IN operands keep their identity keys across a
    pickle round trip, so a shard evaluates and indexes them as the
    parent did."""
    subscription = _instances()["Subscription"]
    copy = pickle.loads(pickle.dumps(subscription))
    assert hash(copy) == hash(subscription)
    assert [pred.key for pred in copy] == [pred.key for pred in subscription]
    assert [hash(pred) for pred in copy] == [hash(pred) for pred in subscription]
    event = Event(
        {
            "degree": "degree",
            "graduation_year": 1995,
            "university": "Waterloo",
            "period": Period(1994, 1997),
        }
    )
    assert copy.matches(event) and subscription.matches(event)


def test_cached_fields_stay_out_of_repr_and_equality():
    predicate = Predicate.eq("x", 4)
    assert repr(predicate) == "Predicate(attribute='x', operator=<Operator.EQ: '='>, operand=4)"
    assert predicate == Predicate.eq("x", 4.0)  # equal keys, different operands
    assert predicate.key == Predicate.eq("x", 4.0).key and predicate.key is not predicate.key
    derived = _instances()["DerivedEvent"]
    assert "_generality" not in repr(derived)
    orphan = DerivedEvent(derived.event, derived.steps)
    assert orphan == derived and hash(orphan) == hash(derived)
    assert orphan.generality == derived.generality == 1
    cached = {
        (cls.__name__, field.name): (field.repr, field.compare, field.init)
        for cls in (Predicate, DerivedEvent)
        for field in dataclasses.fields(cls)
        if field.name.startswith("_")
    }
    assert cached == {("DerivedEvent", "_generality"): (False, False, False)}
