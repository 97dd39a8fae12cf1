"""Property: the fixpoint's answer is the least charge within the cap.

Figure 1 runs the hierarchy and mapping stages "multiple times" (paper
§3.2), and a chain of them is charged the sum of its per-term distances
("I know what you mean").  So for each content the expansion derives,
the derivation table must hold the least charge over the chains of at
most ``max_iterations`` substitutions that stay within
``max_generality`` — whatever order the fixpoint happened to meet them
in.  The oracle below searches those chains layer by layer, with no
deduplication across layers: a state is a content together with the
mapping rules its chain fired (a rule never re-fires along a chain), and
each layer calls ``expand_alone`` of the built-in hierarchy and mapping
stages on every state of the one before, keeping the least charge per
state.

Knowledge bases are the factored suite's (interacting rules, a bridged
second taxonomy, REPLACE rules, a rule pair that undoes itself), plus an
optional REPLACE cycle ``{a: t_i} → {b: x}``, ``{b: x} → {a: t_j}``
through which a value reaches another at no charge but in two steps.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SemanticConfig
from repro.core.derivation import expand_alone
from repro.core.pipeline import SemanticPipeline
from repro.core.provenance import DerivedEvent
from repro.ontology.mappingdefs import MappingRule, OutputMode

from tests.property.test_factored_expansion_equivalence import _TERMS, events, knowledge_bases


@st.composite
def cyclic_knowledge_bases(draw):
    kb = draw(knowledge_bases())
    if draw(st.booleans()):
        out, back = draw(st.sampled_from(_TERMS)), draw(st.sampled_from(_TERMS))
        replace = OutputMode.REPLACE
        kb.add_rule(MappingRule.equivalence("r-out", {"a": out}, {"b": "x"}, mode=replace))
        kb.add_rule(MappingRule.equivalence("r-in", {"b": "x"}, {"a": back}, mode=replace))
    return kb


def _least_charges(pipeline: SemanticPipeline, event, bound, iterations) -> dict:
    """Content signature -> the least charge over the chains of at most
    *iterations* substitutions from the synonym root, within *bound*."""
    root, _ = pipeline.synonyms.rename_event(event)
    layer = {(root.signature, frozenset()): DerivedEvent.original(root)}
    least = {root.signature: 0}
    for _ in range(iterations):
        following: dict = {}
        for derived in layer.values():
            remaining = None if bound is None else bound - derived.generality
            for stage in (pipeline.hierarchy, pipeline.mappings):
                for candidate in expand_alone(stage, derived, remaining):
                    if bound is not None and candidate.generality > bound:
                        continue
                    fired = frozenset(step.rule for step in candidate.steps if step.rule)
                    state = (candidate.event.signature, fired)
                    known = following.get(state)
                    if known is None or candidate.generality < known.generality:
                        following[state] = candidate
        for (signature, _), derived in following.items():
            if signature not in least or derived.generality < least[signature]:
                least[signature] = derived.generality
        layer = following
    return least


@given(
    kb=cyclic_knowledge_bases(),
    event=events(),
    bound=st.sampled_from([None, None, 0, 1, 2, 3]),
    iterations=st.sampled_from([1, 2, 3, 4]),
    interning=st.booleans(),
)
def test_each_content_costs_its_least_charge_within_the_cap(
    kb, event, bound, iterations, interning
):
    config = SemanticConfig(max_generality=bound, max_iterations=iterations, interning=interning)
    pipeline = SemanticPipeline(kb, config)
    result = pipeline.process_event(event)
    if result.truncated:
        return  # what survives max_derived_events depends on expansion order
    table: dict = {}
    for derived in result.derived:
        signature = derived.event.signature
        table[signature] = min(table.get(signature, derived.generality), derived.generality)
    assert table == _least_charges(pipeline, event, bound, iterations), (
        f"{event.format()}: bound={bound}, max_iterations={iterations}"
    )
