"""Property: the counting matcher's one subscription table answers as a scan.

A counting matcher keeps one record per subscription — its insertion
sequence, its root form and its *shape* (the attributes it constrains,
shared between subscriptions) — and one list of users per predicate
key.  Those two structures replace a per-subscription size table, a
per-subscription attribute-count dict and per-key use counts, which is
sound only where their assumptions hold: a subscription uses a key
once (its predicates are de-duplicated by key, the root rewrite
included), a shape that counts predicates per attribute exists exactly
where an attribute carries two, and a zero-predicate subscription
matches everything.

This suite drives a counting engine and an engine over
``tests/third_party.py``'s :class:`ScanMatcher` (a linear scan, no
table of its own) through the same interleaved subscribe, unsubscribe
and re-subscribe of one ``sub_id`` over exactly those cases, and
requires the same matches, generalities and order after every step —
through the engine's batched path and the matcher's per-event
``match`` alike.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine import SToPSS
from repro.model.parser import parse_event, parse_subscription
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase

from tests.third_party import ScanMatcher


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    # two spellings of one attribute: a subscription naming both has
    # its two predicates collapsed into one key by the root rewrite
    kb.add_attribute_synonyms(["cost", "charge"], root="price")
    jobs = kb.add_domain("jobs")
    jobs.add_chain("PhD", "graduate degree", "degree")
    return kb


#: texts a subscription is drawn from ("" is the zero-predicate one)
_TEXTS = (
    "(price >= 3) and (price <= 9)",  # two predicates on one attribute
    "(cost >= 3) and (charge >= 3)",  # one key once rewritten to the root
    "(price >= 3) and (cost <= 9)",  # two on one attribute after the rewrite
    "(cost >= 3) and (degree = degree)",
    "(degree = PhD)",
    "(price = 5) and (degree = graduate degree)",
    "",
)

_EVENTS = tuple(
    parse_event(text)
    for text in (
        "(price, 5)",
        "(cost, 2)",
        "(charge, 10)(degree, PhD)",
        "(price, 9)(degree, graduate degree)",
        "(degree, PhD)",
        "(other, 1)",
    )
)

#: sub_ids the operations draw from: "x" is the one that churns most
_IDS = ("x", "x", "x", "y", "z")

operations = st.lists(
    st.one_of(
        st.tuples(st.just("sub"), st.sampled_from(_IDS), st.sampled_from(_TEXTS)),
        st.tuples(st.just("unsub"), st.sampled_from(_IDS)),
    ),
    min_size=1,
    max_size=12,
)


def _subscription(text: str, sub_id: str) -> Subscription:
    if not text:
        return Subscription((), sub_id=sub_id)
    return parse_subscription(text, sub_id=sub_id)


def _answers(engine: SToPSS) -> list:
    """Every event's (sub_id, generality) list through the batched
    path, and its matcher's per-event ids on the stored roots."""
    batched = [
        [(match.subscription.sub_id, match.generality) for match in engine.publish(event)]
        for event in _EVENTS
    ]
    per_event = [engine.matcher.match_ids(event) for event in _EVENTS]
    return [batched, per_event]


@given(ops=operations)
def test_counting_equals_a_scan_under_churn_of_one_sub_id(ops):
    kb = _kb()
    counting = SToPSS(kb, matcher="counting")
    scan = SToPSS(kb, matcher=ScanMatcher())
    for op in ops:
        sub_id = op[1]
        for engine in (counting, scan):
            if op[0] == "sub" and sub_id not in engine:
                engine.subscribe(_subscription(op[2], sub_id))
            elif op[0] == "unsub" and sub_id in engine:
                engine.unsubscribe(sub_id)
        assert _answers(counting) == _answers(scan), op
        assert [s.sub_id for s in counting.subscriptions()] == [
            s.sub_id for s in scan.subscriptions()
        ]
    for sub_id in set(_IDS):
        if sub_id in counting:
            counting.unsubscribe(sub_id)
    matcher = counting.matcher
    assert matcher._users == {} and matcher._shapes == {} and not matcher._universal


def test_the_rewrite_collapses_synonym_predicates_into_one_key():
    engine = SToPSS(_kb())
    root = engine.subscribe(_subscription("(cost >= 3) and (charge >= 3)", "x"))
    assert root.format() == "(price >= 3)"
    assert engine.original("x").format() == "(cost >= 3) and (charge >= 3)"
    record = engine.matcher._subscriptions["x"]
    assert record[2] == ("price",)
    assert [s.format() for s in engine.subscriptions()] == ["(cost >= 3) and (charge >= 3)"]
    assert [m.subscription.sub_id for m in engine.publish(parse_event("(charge, 4)"))] == ["x"]


def test_two_predicates_on_one_attribute_count_both():
    engine = SToPSS(_kb())
    engine.subscribe(_subscription("(price >= 3) and (price <= 9)", "band"))
    engine.subscribe(_subscription("(price >= 3)", "floor"))
    assert engine.matcher._subscriptions["band"][2] == {"price": 2}
    assert engine.matcher._subscriptions["floor"][2] == ("price",)

    def matched(text):
        return [m.subscription.sub_id for m in engine.publish(parse_event(text))]

    assert matched("(price, 5)") == ["band", "floor"]
    assert matched("(price, 10)") == ["floor"]
    assert matched("(price, 2)") == []


def test_subscriptions_with_one_shape_share_its_tuple():
    engine = SToPSS(_kb())
    engine.subscribe(_subscription("(price >= 3) and (degree = PhD)", "a"))
    engine.subscribe(_subscription("(cost >= 4) and (degree = degree)", "b"))
    table = engine.matcher._subscriptions
    assert table["a"][2] is table["b"][2]
    assert engine.matcher._shapes[("price", "degree")][1] == 2
    engine.unsubscribe("a")
    assert engine.matcher._shapes[("price", "degree")][1] == 1
    engine.unsubscribe("b")
    assert engine.matcher._shapes == {}
