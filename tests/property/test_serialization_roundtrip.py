"""Property: knowledge-base JSON persistence is lossless.

Random declarative knowledge bases round-trip through
``kb_to_dict``/``kb_from_dict`` with identical structure *and*
identical matching behaviour.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine import SToPSS
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule
from repro.ontology.serialization import kb_from_dict, kb_to_dict
from repro.ontology.taxonomy import Taxonomy

_TERMS = [f"k{i}" for i in range(8)]
_ATTRS = ["p", "q", "r"]


@st.composite
def declarative_kbs(draw) -> KnowledgeBase:
    kb = KnowledgeBase(draw(st.sampled_from(["kb-a", "kb-b"])))
    # attribute synonym groups over a disjoint namespace
    group_count = draw(st.integers(min_value=0, max_value=2))
    for group_index in range(group_count):
        members = [f"attr{group_index}_{j}" for j in range(draw(st.integers(2, 4)))]
        kb.add_attribute_synonyms(members, root=members[0])
    # value synonyms
    if draw(st.booleans()):
        kb.add_value_synonyms([_TERMS[0], _TERMS[0] + " alias"], root=_TERMS[0])
    # taxonomy
    taxonomy = kb.add_domain("d")
    for term in _TERMS:
        taxonomy.add_concept(term)
    for index in range(1, len(_TERMS)):
        # up to two parents, declared in either order: the round trip
        # must keep the declaration order, which the walks follow
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            parent = draw(st.integers(min_value=0, max_value=index - 1))
            taxonomy.add_isa(_TERMS[index], _TERMS[parent])
    # declarative rules
    for rule_index in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.integers(0, 2))
        src = draw(st.sampled_from(_ATTRS))
        dst = draw(st.sampled_from(_ATTRS))
        if kind == 0:
            kb.add_rule(MappingRule.computed(
                f"c{rule_index}", dst, f"{src} + {draw(st.integers(1, 9))}",
                requires=[src]))
        elif kind == 1:
            kb.add_rule(MappingRule.equivalence(
                f"c{rule_index}", {src: draw(st.sampled_from(_TERMS))},
                {dst: draw(st.sampled_from(_TERMS))}))
        else:
            kb.add_rule(MappingRule.equivalence(
                f"c{rule_index}",
                [Predicate.ge(src, draw(st.integers(0, 50)))],
                {dst: draw(st.integers(0, 9))}))
    return kb


@given(kb=declarative_kbs())
def test_structure_round_trips(kb):
    clone = kb_from_dict(kb_to_dict(kb))
    assert clone.name == kb.name
    assert set(clone.domains()) == set(kb.domains())
    original_taxonomy = kb.taxonomy("d")
    cloned_taxonomy = clone.taxonomy("d")
    assert sorted(cloned_taxonomy.terms()) == sorted(original_taxonomy.terms())
    assert list(cloned_taxonomy.isa_edges()) == list(original_taxonomy.isa_edges())
    for term in _TERMS:
        # in order: it decides which candidates survive truncation
        assert list(cloned_taxonomy.ancestors(term).items()) == list(
            original_taxonomy.ancestors(term).items()
        )
        assert list(clone.generalizations(term).items()) == list(kb.generalizations(term).items())
    assert {r.name for r in clone.rules()} == {r.name for r in kb.rules()}
    # synonym groups survive with roots intact
    assert sorted(map(sorted, clone.attribute_synonym_groups())) == sorted(
        map(sorted, kb.attribute_synonym_groups())
    )


def test_a_multi_parent_concept_keeps_its_parent_order():
    """The parents are declared against their sorted order: a sorted
    export would hand them back as "car, family vehicle"."""
    kb = KnowledgeBase("vehicles")
    kb.add_domain("vehicles").add_chain("wagon", "family vehicle", "vehicle")
    kb.taxonomy("vehicles").add_chain("wagon", "car", "motor vehicle")
    clone = kb_from_dict(kb_to_dict(kb))
    expected = [("family vehicle", 1), ("car", 1), ("vehicle", 2), ("motor vehicle", 2)]
    for taxonomy in (kb.taxonomy("vehicles"), clone.taxonomy("vehicles")):
        assert list(taxonomy.ancestors("wagon").items()) == expected
    assert list(clone.generalizations("wagon").items()) == expected
    # a standalone taxonomy merged from the clone keeps it too
    merged = Taxonomy("vehicles")
    merged.merge(clone.taxonomy("vehicles"))
    assert list(merged.ancestors("wagon").items()) == expected


@given(
    kb=declarative_kbs(),
    data=st.data(),
)
def test_matching_behaviour_round_trips(kb, data):
    clone = kb_from_dict(kb_to_dict(kb))
    subs = [
        Subscription(
            [
                Predicate.eq(
                    data.draw(st.sampled_from(_ATTRS)),
                    data.draw(st.sampled_from(_TERMS)),
                )
            ],
            sub_id=f"s{i}",
        )
        for i in range(data.draw(st.integers(1, 5)))
    ]
    events = [
        Event({
            data.draw(st.sampled_from(_ATTRS)): data.draw(
                st.one_of(st.sampled_from(_TERMS), st.integers(0, 60))
            )
        })
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    for knowledge in (kb, clone):
        engine = SToPSS(knowledge)
        for sub in subs:
            engine.subscribe(Subscription(sub.predicates, sub_id=sub.sub_id))
        outcome = [sorted(m.subscription.sub_id for m in engine.publish(event)) for event in events]
        if knowledge is kb:
            reference = outcome
        else:
            assert outcome == reference
