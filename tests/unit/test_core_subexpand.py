"""Unit tests for the subscription-side expansion alternative."""

from __future__ import annotations

import pytest

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.subexpand import (
    SubscriptionExpandingEngine,
    expand_subscription,
    expand_subscription_charged,
)
from repro.model.parser import parse_event, parse_subscription
from repro.model.predicates import Operator
from repro.model.values import canonical_value_key
from repro.ontology.domains import build_jobs_knowledge_base
from repro.ontology.knowledge_base import KnowledgeBase


@pytest.fixture
def kb() -> KnowledgeBase:
    return build_jobs_knowledge_base()


class TestExpandSubscription:
    def test_eq_on_taxonomy_term_becomes_in(self, kb):
        sub = parse_subscription("(degree = graduate degree)", sub_id="s")
        expanded = expand_subscription(sub, kb)
        (pred,) = expanded.predicates
        assert pred.operator is Operator.IN
        assert {"graduate degree", "PhD", "MSc", "doctorate"} <= set(pred.operand)

    def test_identity_preserved(self, kb):
        sub = parse_subscription("(degree = PhD)", sub_id="keep-id")
        expanded = expand_subscription(sub, kb)
        assert expanded.sub_id == "keep-id"

    def test_non_taxonomy_predicates_untouched(self, kb):
        sub = parse_subscription(
            "(professional_experience >= 4) and (name = Unknown Person)", sub_id="s"
        )
        assert expand_subscription(sub, kb) is sub

    def test_bound_limits_descendants(self, kb):
        sub = parse_subscription("(degree = degree)", sub_id="s")
        bounded = expand_subscription(sub, kb, max_generality=1)
        (pred,) = bounded.predicates
        assert "graduate degree" in pred.operand  # distance 1
        assert "PhD" not in pred.operand          # distance 3

    def test_per_subscription_bound_wins(self, kb):
        sub = parse_subscription("(degree = degree)", sub_id="s", max_generality=1)
        expanded = expand_subscription(sub, kb, max_generality=None)
        (pred,) = expanded.predicates
        assert "PhD" not in pred.operand

    def test_value_synonyms_included(self, kb):
        sub = parse_subscription("(degree = PhD)", sub_id="s")
        expanded = expand_subscription(sub, kb)
        (pred,) = expanded.predicates
        assert pred.operator is Operator.IN
        assert "doctor of philosophy" in pred.operand


class TestChargedExpansion:
    """The charge map: every admitted spelling carries its minimum
    descent depth, the currency of the unified chain budget."""

    def test_depths_match_taxonomy_distance(self, kb):
        sub = parse_subscription("(degree = degree)", sub_id="s")
        expansion = expand_subscription_charged(sub, kb)
        charges = expansion.charges["degree"]
        assert charges[canonical_value_key("degree")] == 0
        assert charges[canonical_value_key("graduate degree")] == 1
        assert charges[canonical_value_key("doctorate")] == 2
        assert charges[canonical_value_key("PhD")] == 3

    def test_equivalents_charge_zero(self, kb):
        sub = parse_subscription("(degree = PhD)", sub_id="s")
        expansion = expand_subscription_charged(sub, kb)
        charges = expansion.charges["degree"]
        assert charges[canonical_value_key("PhD")] == 0
        assert charges[canonical_value_key("doctor of philosophy")] == 0

    def test_descendant_synonym_spellings_charged_at_descendant_depth(self):
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("car", "vehicle")
        kb.add_value_synonyms(["car", "automobile"], root="car")
        sub = parse_subscription("(v = vehicle)", sub_id="s")
        expansion = expand_subscription_charged(sub, kb)
        charges = expansion.charges["v"]
        assert charges[canonical_value_key("car")] == 1
        assert charges[canonical_value_key("automobile")] == 1

    def test_cross_domain_chain_sums_depths(self):
        # x is below y in domain A; y is below z in domain B: the
        # composed chain x -> y -> z must be admitted at depth 2, the
        # same total the event-side fixpoint charges.
        kb = KnowledgeBase()
        kb.add_domain("a").add_chain("x", "y")
        kb.add_domain("b").add_chain("y", "z")
        sub = parse_subscription("(v = z)", sub_id="s")
        expansion = expand_subscription_charged(sub, kb)
        charges = expansion.charges["v"]
        assert charges[canonical_value_key("y")] == 1
        assert charges[canonical_value_key("x")] == 2
        bounded = expand_subscription_charged(sub, kb, max_generality=1)
        (pred,) = bounded.subscription.predicates
        assert "y" in pred.operand and "x" not in pred.operand

    def test_effective_bound_is_the_tighter_of_the_two(self, kb):
        loose_sub = parse_subscription("(degree = degree)", sub_id="s", max_generality=3)
        expansion = expand_subscription_charged(loose_sub, kb, max_generality=1)
        assert expansion.bound == 1
        (pred,) = expansion.subscription.predicates
        assert "PhD" not in pred.operand  # distance 3 > effective bound 1

    def test_unchanged_subscription_has_no_charges(self, kb):
        sub = parse_subscription("(name = Unknown Person)", sub_id="s")
        expansion = expand_subscription_charged(sub, kb)
        assert not expansion.changed
        assert expansion.subscription is sub


class TestUnifiedToleranceSemantics:
    """Both engines charge one whole-chain budget per match (the
    semantics the duality property test pins down; these are the
    readable counterexamples that used to diverge)."""

    @staticmethod
    def _kb() -> KnowledgeBase:
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("x1", "x0")
        kb.taxonomy("d").add_chain("y1", "y0")
        return kb

    def test_multi_attribute_descent_sums_into_one_budget(self):
        # each attribute sits 1 level below its subscribed term; the
        # old per-predicate bound admitted this under max_generality=1,
        # the event-side engine (chain total 2) did not.
        kb = self._kb()
        sub = parse_subscription("(u = x0) and (v = y0)", sub_id="s")
        event = parse_event("(u, x1)(v, y1)")
        for bound, expected in ((0, False), (1, False), (2, True)):
            event_side = SToPSS(kb, config=SemanticConfig(max_generality=bound))
            sub_side = SubscriptionExpandingEngine(kb, config=SemanticConfig(max_generality=bound))
            event_side.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="s"))
            sub_side.subscribe(sub)
            assert bool(event_side.publish(event)) is expected
            assert bool(sub_side.publish(event)) is expected

    def test_subscription_side_reports_true_generality(self):
        kb = self._kb()
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="s"))
        (match,) = engine.publish(parse_event("(u, x1)(v, y1)"))
        assert match.generality == 2
        (match,) = engine.publish(parse_event("(u, x0)(v, y1)"))
        assert match.generality == 1
        (match,) = engine.publish(parse_event("(u, x0)(v, y0)"))
        assert match.generality == 0

    def test_per_subscription_bound_charged_against_chain(self):
        kb = self._kb()
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(
            parse_subscription(
                "(u = x0) and (v = y0)", sub_id="tight", max_generality=1
            )
        )
        engine.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="open"))
        matches = engine.publish(parse_event("(u, x1)(v, y1)"))
        assert [m.subscription.sub_id for m in matches] == ["open"]

    def test_mapping_derived_form_wins_when_cheaper_in_total(self):
        """The matcher's batch reduction must pick the derivation with
        the lowest *total* charge (event-side generality + descendant
        charge), not the lowest event-side generality: a mapping that
        rewrites a charged attribute onto the subscribed term makes the
        derived form cheaper than the raw event."""
        from repro.ontology.mappingdefs import MappingRule, OutputMode

        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("a2", "a1", "A")
        kb.taxonomy("d").add_chain("b1", "B")
        kb.add_rule(
            MappingRule.equivalence(
                "lift-u", when={"u": "a2"}, then={"u": "A"}, mode=OutputMode.REPLACE
            )
        )
        event = parse_event("(u, a2)(v, b1)")

        def engines(bound):
            config = SemanticConfig(max_generality=bound)
            event_side = SToPSS(kb, config=config)
            sub_side = SubscriptionExpandingEngine(kb, config=config)
            for engine in (event_side, sub_side):
                engine.subscribe(parse_subscription("(u = A) and (v = B)", sub_id="s"))
            return event_side, sub_side

        # raw event charges 2 (a2->A) + 1 (b1->B) = 3; the mapping-derived
        # form charges 0 + 1 = 1, so a budget of 2 must still admit it...
        event_side, sub_side = engines(bound=2)
        a = {(m.subscription.sub_id, m.generality) for m in event_side.publish(event)}
        b = {(m.subscription.sub_id, m.generality) for m in sub_side.publish(event)}
        assert a == b == {("s", 1)}
        # ...and with no bound both engines still report the cheap total.
        event_side, sub_side = engines(bound=None)
        a = {(m.subscription.sub_id, m.generality) for m in event_side.publish(event)}
        b = {(m.subscription.sub_id, m.generality) for m in sub_side.publish(event)}
        assert a == b == {("s", 1)}

    def test_bypassing_matcher_still_gets_charged_generality(self):
        """A matcher whose _match_batch override ignores the batch
        scorer must still report charged generalities — match_batch
        re-scores the chosen witness centrally."""
        from repro.matching.counting import CountingMatcher

        class BypassingMatcher(CountingMatcher):
            name = "bypassing"

            def _match_batch(self, result):
                best = {}
                for derived in result.derived:
                    for sub in self.match(derived.event):
                        # raw chain generality, never self._batch_score
                        best.setdefault(sub.sub_id, (derived.generality, derived))
                return best

        kb = self._kb()
        engine = SubscriptionExpandingEngine(kb, matcher=BypassingMatcher())
        engine.subscribe(parse_subscription("(u = x0) and (v = y0)", sub_id="s"))
        (match,) = engine.publish(parse_event("(u, x1)(v, y1)"))
        assert match.generality == 2

    def test_unsubscribe_drops_charge_state(self):
        kb = self._kb()
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(parse_subscription("(u = x0)", sub_id="s"))
        assert engine.stats()["expanded_subscriptions"] == 1
        engine.unsubscribe("s")
        assert engine.stats()["expanded_subscriptions"] == 0
        # staleness bookkeeping is dropped too: a later KB edit must
        # not resurrect the removed id in the stale list.
        kb.taxonomy("d").add_isa("x2", "x1")
        assert engine.stale_subscriptions() == []


class TestEngineEquivalence:
    """On equality-over-terms workloads, subscription-side expansion and
    the event-side hierarchy stage produce the same matches."""

    CASES = [
        ("(degree = graduate degree)", "(degree, PhD)", True),
        ("(degree = degree)", "(degree, MSc)", True),
        ("(degree = PhD)", "(degree, graduate degree)", False),  # rule R2
        ("(position = developer)", "(position, java developer)", True),
        ("(skill = software development)", "(skill, COBOL programming)", True),
        ("(university = Canadian university)", "(school, Toronto)", True),
        ("(degree = MSc)", "(degree, PhD)", False),
    ]

    @pytest.mark.parametrize("sub_text,event_text,expected", CASES)
    def test_agreement_with_event_side_engine(self, kb, sub_text, event_text, expected):
        event_side = SToPSS(kb)
        sub_side = SubscriptionExpandingEngine(kb)
        event_side.subscribe(parse_subscription(sub_text, sub_id="a"))
        sub_side.subscribe(parse_subscription(sub_text, sub_id="b"))
        event = parse_event(event_text)
        assert bool(event_side.publish(event)) is expected
        assert bool(sub_side.publish(event)) is expected

    def test_mapping_functions_still_run(self, kb):
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(parse_subscription("(professional_experience >= 4)", sub_id="s"))
        matches = engine.publish(parse_event("(graduation_year, 1990)"))
        assert len(matches) == 1

    def test_synonyms_still_run(self, kb):
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(parse_subscription("(university = Toronto)", sub_id="s"))
        assert len(engine.publish(parse_event("(school, Toronto)"))) == 1

    def test_no_per_event_hierarchy_expansion(self, kb):
        engine = SubscriptionExpandingEngine(kb)
        result = engine.explain(parse_event("(degree, PhD)"))
        # mapping-derived events may exist, but no hierarchy steps
        assert all(
            step.stage != "hierarchy"
            for derived in result.derived
            for step in derived.steps
        )


class TestStaleness:
    def test_new_concepts_invisible_until_refresh(self):
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("sedan", "car")
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(parse_subscription("(v = car)", sub_id="s"))
        assert len(engine.publish(parse_event("(v, sedan)"))) == 1
        # taxonomy evolves after subscribe
        kb.taxonomy("d").add_isa("coupe", "car")
        assert engine.publish(parse_event("(v, coupe)")) == []
        assert engine.stale_subscriptions() == ["s"]
        assert engine.refresh() == 1
        assert len(engine.publish(parse_event("(v, coupe)"))) == 1
        assert engine.stale_subscriptions() == []

    def test_event_side_engine_has_no_staleness(self):
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("sedan", "car")
        engine = SToPSS(kb)
        engine.subscribe(parse_subscription("(v = car)", sub_id="s"))
        kb.taxonomy("d").add_isa("coupe", "car")
        assert len(engine.publish(parse_event("(v, coupe)"))) == 1

    def test_refresh_bumps_semantic_epoch(self):
        """A refresh must bump the epoch — the version counter the
        matcher memo and the dispatcher's result cache key on — so no
        match derived alongside a stale descendant set can be served."""
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("sedan", "car")
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(parse_subscription("(v = car)", sub_id="s"))
        engine.publish(parse_event("(v, sedan)"))
        epoch_before = engine.stats()["semantic_epoch"]
        kb.taxonomy("d").add_isa("coupe", "car")
        assert engine.refresh() == 1
        assert engine.stats()["semantic_epoch"] == epoch_before + 1
        assert len(engine.publish(parse_event("(v, coupe)"))) == 1

    def test_refresh_without_stale_subscriptions_keeps_caches(self):
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("sedan", "car")
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(parse_subscription("(v = car)", sub_id="s"))
        engine.publish(parse_event("(v, sedan)"))
        epoch_before = engine.stats()["semantic_epoch"]
        assert engine.refresh() == 0
        assert engine.stats()["semantic_epoch"] == epoch_before
