"""Property: the engine's tolerance rule is the paper's rule.

On equality-on-term workloads over random taxonomy trees the match set
can be written down without expanding anything.  A subscription
matches a publication iff, for every predicate, the event's value is
the subscribed term or has the term among ``taxonomy.ancestors(value)``
(paper rule R1).  The match's generality is the sum of those minimum
distances, and the match is admitted iff that sum is within both the
system-wide ``max_generality`` and the subscription's own bound: one
budget per derivation chain, whichever attribute climbed.

:func:`_oracle` computes exactly that, with no pipeline, no matcher and
no cap, and the engine must report the same ``{sub_id: generality}``
without truncating.  Fixed cases follow the property, each run on
every registered matcher and on a third-party scan matcher: the
jobfinder generalizations, the charge a match carries per taxonomy
level, how the system and subscription bounds combine, and the readable
budget counterexamples.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.model.events import Event
from repro.model.parser import parse_event, parse_subscription
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.domains import build_jobs_knowledge_base
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule, OutputMode

from tests.third_party import MATCHERS, ScanMatcher, matcher_arg

_TERMS = [f"t{i}" for i in range(10)]
_ATTRS = ["u", "v"]


@st.composite
def taxonomies(draw) -> KnowledgeBase:
    kb = KnowledgeBase()
    taxonomy = kb.add_domain("d")
    for term in _TERMS:
        taxonomy.add_concept(term)
    for index in range(1, len(_TERMS)):
        if draw(st.booleans()):
            parent = draw(st.integers(min_value=0, max_value=index - 1))
            taxonomy.add_isa(_TERMS[index], _TERMS[parent])
    return kb


@st.composite
def term_subscriptions(draw) -> Subscription:
    count = draw(st.integers(min_value=1, max_value=2))
    attrs = draw(st.lists(st.sampled_from(_ATTRS), min_size=count, max_size=count, unique=True))
    return Subscription(
        [Predicate.eq(attr, draw(st.sampled_from(_TERMS))) for attr in attrs],
        max_generality=draw(st.sampled_from([None, None, 0, 1, 2])),
    )


@st.composite
def term_events(draw) -> Event:
    count = draw(st.integers(min_value=1, max_value=2))
    attrs = draw(st.lists(st.sampled_from(_ATTRS), min_size=count, max_size=count, unique=True))
    return Event([(attr, draw(st.sampled_from(_TERMS))) for attr in attrs])


def _oracle(kb, subscriptions, event, bound) -> dict[str, int]:
    """``{sub_id: generality}`` by the paper's rule, read straight off
    the taxonomy."""
    ancestors = kb.taxonomy("d").ancestors
    expected = {}
    for subscription in subscriptions:
        total = 0
        for predicate in subscription.predicates:
            value = event.get(predicate.attribute)
            if value is None:
                break
            distance = 0 if value == predicate.operand else ancestors(value).get(predicate.operand)
            if distance is None:
                break
            total += distance
        else:
            limits = (bound, subscription.max_generality)
            if all(limit is None or total <= limit for limit in limits):
                expected[subscription.sub_id] = total
    return expected


def _published(engine, event) -> dict[str, int]:
    """``{sub_id: reported generality}`` for one publication."""
    return {m.subscription.sub_id: m.generality for m in engine.publish(event)}


@given(
    kb=taxonomies(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=8),
    evts=st.lists(term_events(), min_size=1, max_size=5),
    bound=st.sampled_from([None, 0, 1, 2, 3]),
    matcher=st.sampled_from(MATCHERS),
)
def test_engine_matches_the_declarative_rule(kb, subs, evts, bound, matcher):
    engine = SToPSS(kb, matcher=matcher_arg(matcher), config=SemanticConfig(max_generality=bound))
    subscriptions = [
        Subscription(sub.predicates, sub_id=f"e{index}", max_generality=sub.max_generality)
        for index, sub in enumerate(subs)
    ]
    for subscription in subscriptions:
        engine.subscribe(subscription)
    for event in evts:
        got = _published(engine, event)
        assert not engine.last_truncated
        expected = _oracle(kb, subscriptions, event, bound)
        assert got == expected, f"tolerance divergence on {event.format()}: {got} != {expected}"


# -- fixed cases ------------------------------------------------------------------

_MATCHERS = pytest.mark.parametrize("matcher", MATCHERS)


@pytest.mark.parametrize(
    "sub_text,event_text,expected",
    [
        ("(degree = graduate degree)", "(degree, PhD)", True),
        ("(degree = degree)", "(degree, MSc)", True),
        ("(degree = PhD)", "(degree, graduate degree)", False),  # rule R2
        ("(position = developer)", "(position, java developer)", True),
        ("(skill = software development)", "(skill, COBOL programming)", True),
        ("(university = Canadian university)", "(school, Toronto)", True),
        ("(degree = MSc)", "(degree, PhD)", False),
    ],
)
@_MATCHERS
def test_jobfinder_generalizations(sub_text, event_text, expected, matcher):
    engine = SToPSS(build_jobs_knowledge_base(), matcher=matcher_arg(matcher))
    engine.subscribe(parse_subscription(sub_text, sub_id="s"))
    assert bool(engine.publish(parse_event(event_text))) is expected


def _two_chains() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("x1", "x0")
    kb.taxonomy("d").add_chain("y1", "y0")
    return kb


@_MATCHERS
def test_multi_attribute_climbs_sum_into_one_budget(matcher):
    # each attribute sits one level below its subscribed term: the
    # chain costs 2, so a budget of 1 must refuse it
    kb = _two_chains()
    event = parse_event("(u, x1)(v, y1)")
    for bound, expected in ((0, False), (1, False), (2, True)):
        config = SemanticConfig(max_generality=bound)
        engine = SToPSS(kb, matcher=matcher_arg(matcher), config=config)
        engine.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="s"))
        assert bool(engine.publish(event)) is expected
    engine = SToPSS(kb, matcher=matcher_arg(matcher))
    engine.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="s"))
    for event_text, generality in (
        ("(u, x1)(v, y1)", 2),
        ("(u, x0)(v, y1)", 1),
        ("(u, x0)(v, y0)", 0),
    ):
        (match,) = engine.publish(parse_event(event_text))
        assert match.generality == generality


@_MATCHERS
def test_per_subscription_bound_is_charged_against_the_chain(matcher):
    engine = SToPSS(_two_chains(), matcher=matcher_arg(matcher))
    engine.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="tight", max_generality=1))
    engine.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="open"))
    matches = engine.publish(parse_event("(u, x1)(v, y1)"))
    assert [m.subscription.sub_id for m in matches] == ["open"]


@_MATCHERS
def test_a_mapping_that_lands_on_the_term_is_the_cheaper_chain(matcher):
    """The raw event climbs 2 (a2 -> A) + 1 (b1 -> B); the rule rewrites
    ``u`` onto ``A`` outright, so the derived form costs 0 + 1 and a
    budget of 2 still admits the match, at generality 1."""
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("a2", "a1", "A")
    kb.taxonomy("d").add_chain("b1", "B")
    kb.add_rule(
        MappingRule.equivalence(
            "lift-u", when={"u": "a2"}, then={"u": "A"}, mode=OutputMode.REPLACE
        )
    )
    for bound in (2, None):
        config = SemanticConfig(max_generality=bound)
        engine = SToPSS(kb, matcher=matcher_arg(matcher), config=config)
        engine.subscribe(parse_subscription("(u = A) and (v = B)", sub_id="s"))
        assert _published(engine, parse_event("(u, a2)(v, b1)")) == {"s": 1}


# -- charges, bounds and the non-hierarchy stages -----------------------------------


@pytest.mark.parametrize(
    "value,generality",
    [("degree", 0), ("graduate degree", 1), ("doctorate", 2), ("PhD", 3)],
)
@_MATCHERS
def test_each_taxonomy_level_charges_one(value, generality, matcher):
    engine = SToPSS(build_jobs_knowledge_base(), matcher=matcher_arg(matcher))
    engine.subscribe(parse_subscription("(degree = degree)", sub_id="s"))
    assert _published(engine, parse_event(f"(degree, {value})")) == {"s": generality}


def test_a_value_synonym_of_the_term_charges_zero():
    engine = SToPSS(build_jobs_knowledge_base())
    engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s"))
    assert _published(engine, parse_event("(degree, doctor of philosophy)")) == {"s": 0}


def test_a_descendant_synonym_is_charged_at_the_descendant_depth():
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("car", "vehicle")
    kb.add_value_synonyms(["car", "automobile"], root="car")
    engine = SToPSS(kb)
    engine.subscribe(parse_subscription("(v = vehicle)", sub_id="s"))
    assert _published(engine, parse_event("(v, automobile)")) == {"s": 1}


def test_a_cross_domain_chain_sums_its_levels():
    # x is below y in domain a, y is below z in domain b: the composed
    # chain x -> y -> z costs 2
    kb = KnowledgeBase()
    kb.add_domain("a").add_chain("x", "y")
    kb.add_domain("b").add_chain("y", "z")
    for bound, expected in ((None, {"x": 2, "y": 1}), (1, {"y": 1})):
        engine = SToPSS(kb, config=SemanticConfig(max_generality=bound))
        engine.subscribe(parse_subscription("(v = z)", sub_id="s"))
        got = {value: _published(engine, parse_event(f"(v, {value})")) for value in ("x", "y")}
        assert {value: found["s"] for value, found in got.items() if found} == expected


@pytest.mark.parametrize(
    "system,own",
    [(1, None), (None, 1), (1, 3), (3, 1)],
    ids=["system-bound", "own-bound", "system-tighter", "own-tighter"],
)
def test_the_tighter_of_the_two_bounds_decides(system, own):
    engine = SToPSS(build_jobs_knowledge_base(), config=SemanticConfig(max_generality=system))
    engine.subscribe(parse_subscription("(degree = degree)", sub_id="s", max_generality=own))
    assert _published(engine, parse_event("(degree, graduate degree)")) == {"s": 1}
    assert _published(engine, parse_event("(degree, doctorate)")) == {}


def test_non_taxonomy_predicates_are_not_generalized():
    engine = SToPSS(build_jobs_knowledge_base())
    engine.subscribe(parse_subscription("(professional_experience >= 4)", sub_id="s"))
    assert _published(engine, parse_event("(professional_experience, 5)")) == {"s": 0}
    assert _published(engine, parse_event("(professional_experience, 3)")) == {}


def test_mapping_functions_run_beside_the_hierarchy():
    engine = SToPSS(build_jobs_knowledge_base())
    engine.subscribe(parse_subscription("(professional_experience >= 4)", sub_id="s"))
    assert _published(engine, parse_event("(graduation_year, 1990)")) == {"s": 0}
    assert _published(engine, parse_event("(graduation_year, 2001)")) == {}


def test_attribute_synonyms_run_beside_the_hierarchy():
    engine = SToPSS(build_jobs_knowledge_base())
    engine.subscribe(parse_subscription("(university = Toronto)", sub_id="s"))
    assert _published(engine, parse_event("(school, Toronto)")) == {"s": 0}


def test_a_concept_added_after_subscribe_is_matched_at_once():
    """Events are generalized at publish time, so a taxonomy edit after
    the subscription arrived needs no refresh of anything."""
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("sedan", "car")
    engine = SToPSS(kb)
    engine.subscribe(parse_subscription("(v = car)", sub_id="s"))
    assert _published(engine, parse_event("(v, sedan)")) == {"s": 1}
    kb.taxonomy("d").add_isa("coupe", "car")
    assert _published(engine, parse_event("(v, coupe)")) == {"s": 1}


def test_unsubscribe_leaves_no_match_behind():
    engine = SToPSS(_two_chains())
    engine.subscribe(parse_subscription("(u = x0)", sub_id="s"))
    assert _published(engine, parse_event("(u, x1)")) == {"s": 1}
    engine.unsubscribe("s")
    assert _published(engine, parse_event("(u, x1)")) == {}


def test_a_matcher_with_only_a_scan_gets_the_same_budget():
    engine = SToPSS(_two_chains(), matcher=ScanMatcher())
    engine.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="tight", max_generality=1))
    engine.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="open"))
    assert _published(engine, parse_event("(u, x1)(v, y1)")) == {"open": 2}
    assert _published(engine, parse_event("(u, x0)(v, y1)")) == {"tight": 1, "open": 1}
