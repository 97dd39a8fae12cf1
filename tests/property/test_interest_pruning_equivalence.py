"""Property: demand-driven (interest-pruned) expansion ≡ exhaustive.

The PR 4 tentpole makes the semantic expansion demand-driven: a live
:class:`~repro.core.interest.InterestIndex` over the stored root
subscriptions lets the built-in stages skip constructing derived events
no live predicate can reach.  ``SemanticConfig(interest_pruning=False)``
keeps the exhaustive expansion as the reference; this suite pins the
two together as a hard invariant — identical match sets and identical
reported generalities across random knowledge bases (taxonomies, value
and attribute synonyms, equivalence/REPLACE/computed mapping rules) and
workloads, for both indexed matchers, and across subscription churn
mid-stream.  Only the interned stages prune: ``interning=False`` selects
the string-path stages as the exhaustive reference, so an un-interned
pair would compare two exhaustive engines.

The one documented divergence is ``max_derived_events`` truncation: an
exhaustive run that hits the cap loses derivations a pruned run keeps
(covered by unit tests in ``tests/unit/test_core_pipeline.py``).  The
generated workloads here stay far below the default cap.
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
from repro.ontology.mappingdefs import MappingRule, OutputMode

_TERMS = [f"t{i}" for i in range(8)]
#: event-value pool: taxonomy terms, spelling variants, synonyms, free
#: text, and rule-guard triggers
_VARIANTS = ["t1", "T1", "t2", "syn2", "free text", "zzz"]
_ATTRS = ["u", "v"]


@st.composite
def knowledge_bases(draw) -> KnowledgeBase:
    """Random taxonomy edges, synonyms, and mapping rules."""
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
        # attribute-NAME taxonomy: a rename frees its old name, which
        # can unblock a sibling's rename onto it — the region where the
        # pruning exemptions (renames, REPLACE rules) are load-bearing
        taxonomy.add_chain("au", "av", "aw")
        if draw(st.booleans()):
            # REPLACE with an unconstrained output: irrelevant by the
            # rule fixpoint, yet its dropped input pair frees "av"
            kb.add_rule(
                MappingRule.equivalence(
                    "r-free",
                    {"av": "t1"},
                    {"zz_out": draw(st.sampled_from(_TERMS))},
                    mode=OutputMode.REPLACE,
                )
            )
    # mapping rules exercise the rule-relevance fixpoint: an
    # equivalence whose output feeds predicates on the other attribute,
    # a REPLACE rewrite, a computed rule over a numeric attribute, and
    # a chain (r-chain's output is r-link's required input).
    if draw(st.booleans()):
        kb.add_rule(
            MappingRule.equivalence(
                "r-equiv", {"u": "t3"}, {"v": draw(st.sampled_from(_TERMS))}
            )
        )
    if draw(st.booleans()):
        kb.add_rule(
            MappingRule.equivalence(
                "r-replace",
                {"v": "t1"},
                {"v": draw(st.sampled_from(_TERMS))},
                mode=OutputMode.REPLACE,
            )
        )
    if draw(st.booleans()):
        kb.add_rule(MappingRule.computed("r-num", "m", "n + 1"))
    if draw(st.booleans()):
        kb.add_rule(MappingRule.equivalence("r-chain", {"u": "t4"}, {"mid": "t5"}))
        kb.add_rule(
            MappingRule.equivalence("r-link", {"mid": "t5"}, {"v": "t6"})
        )
    return kb


@st.composite
def term_subscriptions(draw) -> Subscription:
    count = draw(st.integers(min_value=1, max_value=2))
    attrs = draw(
        st.lists(
            st.sampled_from(_ATTRS + ["m", "mid", "av", "aw"]),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    bound = draw(st.sampled_from([None, None, 0, 1, 2]))
    predicates = []
    for attr in attrs:
        if attr == "m":
            predicates.append(Predicate.ge("m", draw(st.integers(0, 4))))
        else:
            predicates.append(
                Predicate.eq(attr, draw(st.sampled_from(_TERMS + ["syn2", "zzz"])))
            )
    return Subscription(predicates, max_generality=bound)


@st.composite
def term_events(draw) -> Event:
    count = draw(st.integers(min_value=1, max_value=2))
    attrs = draw(
        st.lists(
            st.sampled_from(_ATTRS + ["w", "n", "au", "av"]),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    pairs = []
    for attr in attrs:
        if attr == "n":
            pairs.append((attr, draw(st.integers(0, 3))))
        else:
            pairs.append((attr, draw(st.sampled_from(_TERMS + _VARIANTS))))
    # "u" and "w" may be declared attribute synonyms: conflicting values
    # under one root are a publish-time error on BOTH paths — keep them
    # agreeing (same rule as the interning equivalence suite).
    values = dict(pairs)
    if "u" in values and "w" in values:
        pairs = [(attr, values["u"] if attr == "w" else value) for attr, value in pairs]
    return Event(pairs)


def _published(engine, event) -> dict[str, int]:
    return {m.subscription.sub_id: m.generality for m in engine.publish(event)}


def _pair(engine_factory, kb, bound, matcher):
    def build(pruning):
        return engine_factory(
            kb,
            matcher=matcher,
            config=SemanticConfig(max_generality=bound, interest_pruning=pruning),
        )

    return build(True), build(False)


@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=6),
    evts=st.lists(term_events(), min_size=1, max_size=4),
    bound=st.sampled_from([None, 0, 1, 2, 3]),
    matcher=st.sampled_from(["counting", "naive"]),
)
def test_event_side_pruned_equals_exhaustive(kb, subs, evts, bound, matcher):
    pruned, exhaustive = _pair(SToPSS, kb, bound, matcher)
    for index, sub in enumerate(subs):
        for engine in (pruned, exhaustive):
            engine.subscribe(
                Subscription(
                    sub.predicates, sub_id=f"s{index}", max_generality=sub.max_generality
                )
            )
    for event in evts:
        fast = _published(pruned, event)
        slow = _published(exhaustive, event)
        assert fast == slow, f"pruning divergence on {event.format()}: {fast} != {slow}"


@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=2, max_size=6),
    evts=st.lists(term_events(), min_size=2, max_size=4),
    matcher=st.sampled_from(["counting", "naive"]),
)
def test_pruning_tracks_subscription_churn(kb, subs, evts, matcher):
    """Interleaved subscribe → publish → unsubscribe → publish →
    re-subscribe: the incremental interest refresh must keep the pruned
    engine's matches identical to the exhaustive engine's at every
    step (no stale accepted set, no stale expansion cache)."""
    pruned, exhaustive = _pair(SToPSS, kb, None, matcher)
    engines = (pruned, exhaustive)
    for index, sub in enumerate(subs):
        for engine in engines:
            engine.subscribe(Subscription(sub.predicates, sub_id=f"s{index}"))
    for event in evts:
        assert _published(pruned, event) == _published(exhaustive, event)
    # drop half the subscriptions (the interest refcounts must decay)
    for index in range(0, len(subs), 2):
        for engine in engines:
            engine.unsubscribe(f"s{index}")
    for event in evts:
        assert _published(pruned, event) == _published(exhaustive, event)
    # re-subscribe under fresh ids (repeat publications must see them
    # despite the expansion/result caches)
    for index in range(0, len(subs), 2):
        for engine in engines:
            engine.subscribe(Subscription(subs[index].predicates, sub_id=f"r{index}"))
    for event in evts:
        assert _published(pruned, event) == _published(exhaustive, event)


@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=4),
    evts=st.lists(term_events(), min_size=1, max_size=3),
)
def test_unknown_reads_rule_disables_pruning(kb, subs, evts):
    """A function rule without a declared read set makes pruning
    unsound, so the index must disable itself — and stay equivalent."""
    kb.add_rule(
        MappingRule.function(
            "opaque",
            ["u"],
            lambda event, context: (("v", "t7"),) if event.get("u") == "t1" else None,
        )
    )
    pruned, exhaustive = _pair(SToPSS, kb, None, "counting")
    for index, sub in enumerate(subs):
        for engine in (pruned, exhaustive):
            engine.subscribe(Subscription(sub.predicates, sub_id=f"s{index}"))
    assert pruned.interest is not None
    assert pruned.interest.stats()["disabled"]
    for event in evts:
        assert _published(pruned, event) == _published(exhaustive, event)
        assert pruned.interest_info()["candidates_pruned"] == 0
