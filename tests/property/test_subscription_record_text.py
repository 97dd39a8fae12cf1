"""Property: a subscription's ``sub`` record renders the text its
delivery rows say, and holds the subscription it was made from.

A delivery row in the journal (``outs``) or the snapshot (``log``)
carries no client id and no subscription text: recovery renders the
text from the subscription's ``sub`` record
(:func:`~repro.core.provenance.subscription_part` of the decoded
subscription).  That is only sound if encoding a subscription loses
nothing its rendering shows — and recovery subscribes what it decodes,
so the decoded predicates must be the ones the broker held live.  The
record goes through the journal's framing (``_encode_record`` /
``_decode_line``), as recovery reads it.  Subscriptions are drawn over
every operator and every value type a predicate takes (``str``, a
``StrEnum`` member, ``int``, ``float``, ``bool``, ``Period``).
"""

from __future__ import annotations

from enum import StrEnum

from hypothesis import example, given, reject
from hypothesis import strategies as st

from repro.broker.durability import (
    _decode_line,
    _decode_subscription,
    _encode_record,
    _encode_subscription,
)
from repro.core.provenance import subscription_part
from repro.errors import ReproError
from repro.model.predicates import Operator, Predicate, Range
from repro.model.subscriptions import Subscription
from repro.model.values import Period

from .strategies import ATTRIBUTES

_Kind = StrEnum("Kind", {"RED": "red", "TORONTO": "Toronto", "DIGITS": "42", "EMPTY": ""})

_values = st.one_of(
    st.text(max_size=6),
    st.sampled_from(list(_Kind)),
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.builds(
        Period,
        st.integers(1900, 2100),
        st.one_of(st.none(), st.integers(1900, 2100)),
    ),
)


@st.composite
def _predicates(draw) -> Predicate:
    operator = draw(st.sampled_from(list(Operator)))
    attribute = draw(st.one_of(st.sampled_from(ATTRIBUTES), st.text(min_size=1, max_size=8)))
    try:
        if operator is Operator.EXISTS:
            operand = None
        elif operator is Operator.RANGE:
            operand = Range(draw(_values), draw(_values))
        elif operator is Operator.IN:
            operand = frozenset(draw(st.lists(_values, min_size=1, max_size=4)))
        else:
            operand = draw(_values)
        return Predicate(attribute, operator, operand)
    except ReproError:
        reject()


@st.composite
def _subscriptions(draw) -> Subscription:
    return Subscription(
        draw(st.lists(_predicates(), max_size=4)),
        sub_id=draw(st.text(min_size=1, max_size=6)),
        max_generality=draw(st.one_of(st.none(), st.integers(0, 5))),
    )


@given(_subscriptions(), st.text(max_size=6))
@example(Subscription([Predicate.isin("colour", [_Kind.RED, "blue", 3])], sub_id="s"), "cl")
@example(Subscription([Predicate.between("year", 1.5, 2)], sub_id="s"), "cl")
@example(Subscription([Predicate.eq("born", Period(1990, None))], sub_id="s"), "cl")
@example(
    Subscription([Predicate.eq("a", ""), Predicate.eq("a", _Kind.EMPTY)], sub_id="s"), "cl"
)
def test_a_sub_record_renders_the_rows_text(subscription, client_id):
    record = _decode_line(_encode_record(_encode_subscription(subscription, client_id)))
    assert record["cid"] == client_id
    decoded = _decode_subscription(record)
    assert subscription_part(decoded) == subscription_part(subscription)
    assert decoded.predicates == subscription.predicates
