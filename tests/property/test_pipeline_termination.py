"""Properties of the Figure 1 fixpoint pipeline on random knowledge.

The hierarchy↔mapping loop "can be executed multiple times" (paper
§3.2); these tests pin down that it always terminates, repeats a
content only as a cheaper and longer chain, and honours its budgets — for arbitrary taxonomies and
rule sets, including rule outputs that feed other rules.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SemanticConfig
from repro.core.pipeline import SemanticPipeline
from repro.model.events import Event
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule

_TERMS = [f"c{i}" for i in range(8)]
_ATTRS = [f"a{i}" for i in range(5)]


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
    # chained equivalence rules: when ai = term, assert aj = term'
    rule_count = draw(st.integers(min_value=0, max_value=5))
    for rule_index in range(rule_count):
        src_attr = draw(st.sampled_from(_ATTRS))
        dst_attr = draw(st.sampled_from(_ATTRS))
        src_term = draw(st.sampled_from(_TERMS))
        dst_term = draw(st.sampled_from(_TERMS))
        kb.add_rule(
            MappingRule.equivalence(
                f"rule{rule_index}",
                {src_attr: src_term},
                {dst_attr: dst_term},
                domain="d",
            )
        )
    return kb


@st.composite
def domain_events(draw) -> Event:
    count = draw(st.integers(min_value=1, max_value=3))
    attrs = draw(st.lists(st.sampled_from(_ATTRS), min_size=count, max_size=count, unique=True))
    return Event([(attr, draw(st.sampled_from(_TERMS))) for attr in attrs])


@given(kb=knowledge_bases(), event=domain_events())
def test_pipeline_terminates_and_deduplicates(kb, event):
    pipeline = SemanticPipeline(kb, SemanticConfig())
    result = pipeline.process_event(event)
    # a content repeats only as a cheaper chain at a greater depth
    seen: dict = {}
    for derived in result.derived:
        for charge, depth in seen.get(derived.event.signature, ()):
            assert derived.generality < charge and derived.depth > depth, (
                "duplicate derived events"
            )
        seen.setdefault(derived.event.signature, []).append((derived.generality, derived.depth))
    assert result.iterations <= SemanticConfig().max_iterations


@given(kb=knowledge_bases(), event=domain_events(), bound=st.integers(min_value=0, max_value=3))
def test_generality_budget_is_hard(kb, event, bound):
    pipeline = SemanticPipeline(kb, SemanticConfig(max_generality=bound))
    result = pipeline.process_event(event)
    assert all(d.generality <= bound for d in result.derived)


@given(kb=knowledge_bases(), event=domain_events())
def test_derived_cap_is_hard(kb, event):
    pipeline = SemanticPipeline(kb, SemanticConfig(max_derived_events=5))
    result = pipeline.process_event(event)
    assert len(result.derived) <= 5


@given(kb=knowledge_bases(), event=domain_events())
def test_root_event_always_first(kb, event):
    pipeline = SemanticPipeline(kb, SemanticConfig())
    result = pipeline.process_event(event)
    assert result.derived[0].event.signature == event.signature


@given(kb=knowledge_bases(), event=domain_events())
def test_derivation_chains_are_sound(kb, event):
    """Every derived event's chain length matches its step count, and
    generality equals the sum of its steps' generalities."""
    pipeline = SemanticPipeline(kb, SemanticConfig())
    for derived in pipeline.process_event(event).derived:
        assert derived.depth == len(derived.steps)
        assert derived.generality == sum(s.generality for s in derived.steps)


@given(
    kb=knowledge_bases(),
    event=domain_events(),
    shortcuts=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=len(_TERMS) - 1),
            st.integers(min_value=0, max_value=len(_TERMS) - 2),
        ),
        max_size=6,
    ),
)
def test_carried_generality_is_the_chain_sum(kb, event, shortcuts):
    """``DerivedEvent.extend`` adds one step's generality to its
    parent's instead of re-summing the chain: every entry of a result —
    extended, written over a dearer fresh row, or the root — carries
    exactly the sum over its steps.  Extra edges from a term to any
    earlier one make multi-parent diamonds, so cheaper chains reach
    known content too."""
    taxonomy = kb.taxonomy("d")
    for child, parent in shortcuts:
        if parent < child:
            taxonomy.add_isa(_TERMS[child], _TERMS[parent])
    result = SemanticPipeline(kb, SemanticConfig()).process_event(event)
    for derived in result.derived:
        assert derived._generality == sum(step.generality for step in derived.steps)
        assert derived.generality == derived._generality
