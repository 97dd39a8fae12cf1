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

A second, declarative leg states the same for a free attribute's
alternatives (the pair alone, run through the hierarchy fixpoint) from
the knowledge base's string lookups only — ``canonical_term`` at charge
0, ``generalizations`` at their distance — with no stage and no concept
table: each value the chains of at most ``max_iterations`` steps reach
within the budget is an alternative at its least charge, and at the
least depth that charge is reached at.
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

# ``max_generality`` values the declarative leg draws
_BUDGETS = [None, 0, 1, 3]


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


def _declared_alternatives(kb, value: str, bound, iterations) -> dict:
    """Value -> (least charge, least depth at that charge) over the
    chains of at most *iterations* single steps from *value* within
    *bound*: a step is the value's ``canonical_term`` (charge 0) or one
    of its ``generalizations`` (charge its distance)."""
    best = {value: (0, 0)}
    layer = {value: 0}  # value -> least charge at this depth
    for depth in range(1, iterations + 1):
        following: dict = {}
        for term, charge in layer.items():
            remaining = None if bound is None else bound - charge
            steps = []
            canonical = kb.canonical_term(term)
            if canonical is not None and canonical != term:
                steps.append((canonical, 0))
            if remaining is None or remaining > 0:
                steps.extend(kb.generalizations(term, max_levels=remaining).items())
            for reached, distance in steps:
                total = charge + distance
                if total < following.get(reached, total + 1):
                    following[reached] = total
        for reached, charge in following.items():
            if charge < best.get(reached, (charge + 1,))[0]:
                best[reached] = (charge, depth)
        layer = following
    return best


@given(
    kb=knowledge_bases(),
    event=events(),
    bound=st.sampled_from(_BUDGETS),
    iterations=st.sampled_from([1, 2, 4]),
    interning=st.booleans(),
)
def test_free_alternatives_are_the_declared_least_charges(kb, event, bound, iterations, interning):
    config = SemanticConfig(max_generality=bound, max_iterations=iterations, interning=interning)
    pipeline = SemanticPipeline(kb, config)
    root, _ = pipeline.synonyms.rename_event(event)
    free = pipeline._free_attributes(root)
    for attribute, value in root.items():
        if attribute not in free or not isinstance(value, str):
            continue
        alternatives = pipeline._derive_alternatives(attribute, value, None)
        if not alternatives:
            continue  # truncated: what survives depends on expansion order
        derived: dict = {}
        for alternative in alternatives:
            known = derived.get(alternative.value)
            if known is None or (alternative.charge, alternative.depth) < known:
                derived[alternative.value] = (alternative.charge, alternative.depth)
        assert derived == _declared_alternatives(kb, value, bound, iterations), (
            f"({attribute}, {value}): bound={bound}, max_iterations={iterations}"
        )
