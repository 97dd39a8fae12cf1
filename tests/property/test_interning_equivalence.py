"""Property: the concept-id stages ≡ the string reference.

The semantic stages run on the concept table's dense ids
(closure-array generalization, one dict probe per attribute root).
``SemanticConfig(interning=False)`` builds :mod:`repro.core.reference`'s
string-lookup stages instead; this suite pins the two together as a
hard invariant — identical match sets and identical reported
generalities across random knowledge bases and workloads, for both
matchers, with and without tolerance bounds, under every stage switch
the two paths read: value synonyms, attribute-name generalization (an
attribute that is a taxonomy concept, so renames run) and the
iteration cap, with a mapping rule composing with the hierarchy.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule

_TERMS = [f"t{i}" for i in range(8)]
#: spelling variants that must NOT leak across matcher identity; "U"
#: and "W" are term_key variants of the attribute-synonym spellings —
#: the string path never unifies values through attribute synonyms,
#: so the interned path must not either
_VARIANTS = ["t1", "T1", " t1 ", "t2", "free text", "zzz", "U", "W", "w"]
_ATTRS = ["u", "v"]
#: subscriptions may also name "broad", which the attribute "v" may
#: generalize to, and "x", which the mapping rule may write
_SUB_ATTRS = _ATTRS + ["broad", "x"]


@st.composite
def knowledge_bases(draw) -> KnowledgeBase:
    """Random taxonomy edges plus optional value/attribute synonyms, an
    attribute name that is a concept, and an equivalence rule."""
    kb = KnowledgeBase()
    taxonomy = kb.add_domain("d")
    for term in _TERMS:
        taxonomy.add_concept(term)
    for index in range(1, len(_TERMS)):
        if draw(st.booleans()):
            parent = draw(st.integers(min_value=0, max_value=index - 1))
            taxonomy.add_isa(_TERMS[index], _TERMS[parent])
    if draw(st.booleans()):
        kb.add_value_synonyms(["t2", "syn2"], root="t2")
    if draw(st.booleans()):
        kb.add_attribute_synonyms(["u", "w"], root="u")
    if draw(st.booleans()):
        kb.add_domain("names").add_chain("v", "broad")
    if draw(st.booleans()):
        trigger, output = draw(st.sampled_from(_TERMS)), draw(st.sampled_from(_TERMS))
        kb.add_rule(MappingRule.equivalence("r", {"u": trigger}, {"x": output}))
    return kb


@st.composite
def term_subscriptions(draw) -> Subscription:
    count = draw(st.integers(min_value=1, max_value=2))
    attrs = draw(
        st.lists(st.sampled_from(_SUB_ATTRS), min_size=count, max_size=count, unique=True)
    )
    bound = draw(st.sampled_from([None, None, 0, 1, 2]))
    # None: an EXISTS predicate, which matches a rename on its own
    operands = st.sampled_from(_TERMS + ["syn2", "zzz", "U", "W", None])
    predicates = []
    for attr in attrs:
        operand = draw(operands)
        predicates.append(
            Predicate.exists(attr) if operand is None else Predicate.eq(attr, operand)
        )
    return Subscription(predicates, max_generality=bound)


@st.composite
def term_events(draw) -> Event:
    count = draw(st.integers(min_value=1, max_value=2))
    attrs = draw(
        st.lists(st.sampled_from(_ATTRS + ["w"]), min_size=count, max_size=count, unique=True)
    )
    pairs = [(attr, draw(st.sampled_from(_TERMS + _VARIANTS + ["syn2"]))) for attr in attrs]
    # "u" and "w" may be declared attribute synonyms: conflicting values
    # under one root are a publish-time error on BOTH paths, which is
    # not the divergence this suite hunts — keep them agreeing.
    values = dict(pairs)
    if "u" in values and "w" in values:
        pairs = [(attr, values["u"] if attr == "w" else value) for attr, value in pairs]
    return Event(pairs)


def _published(engine, event) -> dict[str, int]:
    return {m.subscription.sub_id: m.generality for m in engine.publish(event)}


@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=6),
    evts=st.lists(term_events(), min_size=1, max_size=4),
    bound=st.sampled_from([None, 0, 1, 2, 3]),
    matcher=st.sampled_from(["counting", "naive"]),
    value_synonyms=st.booleans(),
    generalize_attributes=st.booleans(),
    iterations=st.sampled_from([1, 2, 4]),
)
def test_event_side_interned_equals_string(
    kb, subs, evts, bound, matcher, value_synonyms, generalize_attributes, iterations
):
    def build(interning):
        config = SemanticConfig(
            max_generality=bound,
            value_synonyms=value_synonyms,
            generalize_attributes=generalize_attributes,
            max_iterations=iterations,
            interning=interning,
        )
        return SToPSS(kb, matcher=matcher, config=config)

    interned, stringly = build(True), build(False)
    for index, sub in enumerate(subs):
        for engine in (interned, stringly):
            engine.subscribe(
                Subscription(
                    sub.predicates, sub_id=f"s{index}", max_generality=sub.max_generality
                )
            )
    for event in evts:
        fast = _published(interned, event)
        slow = _published(stringly, event)
        assert fast == slow, f"interning divergence on {event.format()}: {fast} != {slow}"


@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=6),
    evts=st.lists(term_events(), min_size=1, max_size=4),
)
def test_interned_path_survives_kb_growth(kb, subs, evts):
    """Mutating the knowledge base mid-stream rebuilds the table; the
    rebuilt id space must still agree with the string path."""
    interned = SToPSS(kb, config=SemanticConfig(interning=True))
    stringly = SToPSS(kb, config=SemanticConfig(interning=False))
    for index, sub in enumerate(subs):
        interned.subscribe(Subscription(sub.predicates, sub_id=f"s{index}"))
        stringly.subscribe(Subscription(sub.predicates, sub_id=f"s{index}"))
    half = len(evts) // 2
    for event in evts[:half]:
        assert _published(interned, event) == _published(stringly, event)
    kb.taxonomy("d").add_chain("fresh term", _TERMS[0])
    kb.add_value_synonyms(["fresh term", "fresh synonym"])
    for event in evts[half:]:
        fresh = Event(list(event.items()) + [("x", "fresh synonym")])
        assert _published(interned, fresh) == _published(stringly, fresh)
