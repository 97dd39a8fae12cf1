"""Property: batched matching is observably identical to serial.

``MatchingAlgorithm.match_batch`` (the engine's publish hot path) must
produce exactly the per-subscription ``(sub_id, generality)`` minima
that the per-derived-event ``match()`` loop produces — across random
knowledge bases (taxonomy shape and synonym sets drawn by Hypothesis),
stage configurations, tolerance settings, all registered matchers, and
a third-party matcher on the base class's serial fallback.
The serial fold runs against the *same* matcher instance, so the two
paths see identical subscription state.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.provenance import Witness
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase

from tests.third_party import MATCHERS, matcher_arg

_TERMS = [f"t{i}" for i in range(8)]
_ATTRS = ["u", "v", "w"]
_SYNONYM_ATTRS = {"u": ["u_alias"], "v": ["v_alias"]}

_CONFIGS = (
    SemanticConfig(),
    SemanticConfig(max_generality=0),
    SemanticConfig(max_generality=1),
    SemanticConfig.syntactic(),
    SemanticConfig.synonyms_only(),
    SemanticConfig.hierarchy_only(),
    SemanticConfig(enable_mappings=False, max_iterations=2),
)


@st.composite
def knowledge_bases(draw) -> KnowledgeBase:
    kb = KnowledgeBase()
    taxonomy = kb.add_domain("d")
    for term in _TERMS:
        taxonomy.add_concept(term)
    for index in range(1, len(_TERMS)):
        if draw(st.booleans()):
            parent = draw(st.integers(min_value=0, max_value=index - 1))
            taxonomy.add_isa(_TERMS[index], _TERMS[parent])
    for root, aliases in _SYNONYM_ATTRS.items():
        if draw(st.booleans()):
            kb.add_attribute_synonyms(aliases, root=root)
    return kb


def _term_or_scalar(draw):
    return draw(
        st.one_of(
            st.sampled_from(_TERMS),
            st.integers(min_value=0, max_value=5),
            st.booleans(),
        )
    )


def _conjuncts_on(draw, attr) -> list[Predicate]:
    """One attribute's conjuncts.  Mostly a single predicate; the other
    shapes are what a per-attribute matcher has to get right: two
    predicates one value must satisfy together (a band that may be
    empty, a bound with a hole, two terms to avoid — which only some
    ancestors of an event's value manage) and one predicate written
    twice (``Subscription`` keeps one, so it must count once)."""
    kind = draw(st.integers(min_value=0, max_value=6))
    if kind == 0:
        return [Predicate.eq(attr, _term_or_scalar(draw))]
    if kind == 1:
        return [Predicate.exists(attr)]
    if kind == 2:
        return [Predicate.ne(attr, _term_or_scalar(draw))]
    number = st.integers(min_value=0, max_value=5)
    if kind == 3:
        return [Predicate.gt(attr, draw(number)), Predicate.lt(attr, draw(number))]
    if kind == 4:
        return [Predicate.gt(attr, draw(number)), Predicate.ne(attr, draw(number))]
    term = st.sampled_from(_TERMS)
    if kind == 5:
        return [Predicate.ne(attr, draw(term)), Predicate.ne(attr, draw(term))]
    twice = Predicate.eq(attr, _term_or_scalar(draw))
    return [twice, twice]


@st.composite
def term_subscriptions(draw) -> Subscription:
    # zero attributes is the universal subscription
    attrs = draw(st.lists(st.sampled_from(_ATTRS), min_size=0, max_size=2, unique=True))
    predicates = [predicate for attr in attrs for predicate in _conjuncts_on(draw, attr)]
    max_generality = draw(st.sampled_from([None, None, 0, 1, 2]))
    return Subscription(predicates, max_generality=max_generality)


#: one spelling per root attribute, so the synonym rewrite never
#: collides two event attributes onto the same root
_ATTR_SPELLINGS = {"u": ["u", "u_alias"], "v": ["v", "v_alias"], "w": ["w"]}


@st.composite
def term_events(draw) -> Event:
    count = draw(st.integers(min_value=1, max_value=3))
    roots = draw(st.lists(st.sampled_from(_ATTRS), min_size=count, max_size=count, unique=True))
    pairs = []
    for root in roots:
        attr = draw(st.sampled_from(_ATTR_SPELLINGS[root]))
        pairs.append((attr, _term_or_scalar(draw)))
    return Event(pairs)


def _serial_best(engine: SToPSS, result) -> dict[str, int]:
    """The per-event match loop the batched path replaced."""
    best: dict[str, int] = {}
    for derived in result.derived:
        generality = derived.generality
        for subscription in engine.matcher.match(derived.event):
            known = best.get(subscription.sub_id)
            if known is None or generality < known:
                best[subscription.sub_id] = generality
    return best


@pytest.mark.parametrize("matcher_name", MATCHERS)
@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=0, max_size=6),
    events=st.lists(term_events(), min_size=1, max_size=3),
    config_index=st.integers(min_value=0, max_value=len(_CONFIGS) - 1),
)
def test_match_batch_equals_serial_match(matcher_name, kb, subs, events, config_index):
    config = _CONFIGS[config_index]
    engine = SToPSS(kb, matcher=matcher_arg(matcher_name), config=config)
    for subscription in subs:
        engine.subscribe(subscription)
    for event in events:
        result = engine.explain(event)
        serial = _serial_best(engine, result)
        batch = engine.matcher.match_batch(result)
        assert {sub_id: pair[0] for sub_id, pair in batch.items()} == serial
        # every matcher answers a witness, which realizes the generality
        for sub_id, (generality, witness) in batch.items():
            assert type(witness) is Witness and witness.generality == generality
        # and the full publish path agrees after tolerance filtering
        published = {(m.subscription.sub_id, m.generality) for m in engine.publish(event)}
        expected = set()
        originals = {s.sub_id: s for s in engine.subscriptions()}
        for sub_id, generality in serial.items():
            bound = originals[sub_id].max_generality
            if bound is not None and generality > bound:
                continue
            expected.add((sub_id, generality))
        assert published == expected

