"""Unit tests for the S-ToPSS engine.

The ``engine`` fixture runs every case on both shipped matchers: the
semantic stages sit in front of an unmodified matcher, so what the
engine reports may not depend on which one is underneath — the counting
matcher takes a factored expansion, the naive one the exhaustive
product."""

from __future__ import annotations

import pytest

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.errors import UnknownSubscriptionError
from repro.matching import CountingMatcher, matcher_names
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule

from tests.third_party import MATCHERS, matcher_arg


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_attribute_synonyms(["school"], root="university")
    kb.add_domain("jobs").add_chain("PhD", "graduate degree", "degree")
    kb.add_rule(
        MappingRule.computed(
            "exp", "professional_experience", "present_year - graduation_year"
        )
    )
    return kb


@pytest.fixture(params=matcher_names())
def engine(request) -> SToPSS:
    return SToPSS(_kb(), matcher=request.param, config=SemanticConfig(present_year=2003))


class TestSubscriptionLifecycle:
    def test_subscribe_returns_root_form(self, engine):
        sub = parse_subscription("(school = Toronto)", sub_id="s1")
        root = engine.subscribe(sub)
        assert root.attributes() == ("university",)
        assert len(engine) == 1 and "s1" in engine

    def test_original_reported_back(self, engine):
        sub = parse_subscription("(school = Toronto)", sub_id="s1")
        engine.subscribe(sub)
        assert next(iter(engine.subscriptions())) is sub

    def test_unsubscribe(self, engine):
        engine.subscribe(parse_subscription("(a = 1)", sub_id="s1"))
        removed = engine.unsubscribe("s1")
        assert removed.sub_id == "s1"
        assert len(engine) == 0
        with pytest.raises(UnknownSubscriptionError):
            engine.unsubscribe("s1")

    def test_insertion_order_preserved(self, engine):
        for sub_id in ("z", "a", "m"):
            engine.subscribe(parse_subscription("(k = 1)", sub_id=sub_id))
        assert [s.sub_id for s in engine.subscriptions()] == ["z", "a", "m"]


class TestPublish:
    def test_syntactic_match_reported_as_original(self, engine):
        engine.subscribe(parse_subscription("(university = Toronto)", sub_id="s1"))
        matches = engine.publish(parse_event("(university, Toronto)"))
        assert len(matches) == 1
        assert not matches[0].is_semantic
        assert matches[0].generality == 0

    def test_synonym_match(self, engine):
        engine.subscribe(parse_subscription("(university = Toronto)", sub_id="s1"))
        matches = engine.publish(parse_event("(school, Toronto)"))
        assert len(matches) == 1
        assert matches[0].is_semantic

    def test_hierarchy_match_generality(self, engine):
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="general"))
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert matches[0].generality == 2

    def test_least_general_derivation_wins(self, engine):
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="exact"))
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert matches[0].generality == 0 and not matches[0].is_semantic

    def test_each_subscription_reported_once(self, engine):
        engine.subscribe(parse_subscription("(degree exists)", sub_id="any"))
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [m.subscription.sub_id for m in matches] == ["any"]

    def test_match_order_is_subscription_order(self, engine):
        for sub_id in ("s3", "s1", "s2"):
            engine.subscribe(parse_subscription("(degree exists)", sub_id=sub_id))
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [m.subscription.sub_id for m in matches] == ["s3", "s1", "s2"]

    def test_mapping_match(self, engine):
        engine.subscribe(parse_subscription("(professional_experience >= 4)", sub_id="exp"))
        matches = engine.publish(parse_event("(graduation_year, 1993)"))
        assert len(matches) == 1
        assert matches[0].matched_via.steps[-1].rule == "exp"

    def test_publications_counted(self, engine):
        engine.publish(parse_event("(a, 1)"))
        engine.publish(parse_event("(a, 2)"))
        assert engine.publications == 2


class TestTolerance:
    def test_per_subscription_bound_filters(self, engine):
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="strict", max_generality=1))
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="loose"))
        matches = engine.publish(parse_event("(degree, PhD)"))  # distance 2
        assert [m.subscription.sub_id for m in matches] == ["loose"]

    def test_bound_equal_to_distance_passes(self, engine):
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s", max_generality=2))
        assert len(engine.publish(parse_event("(degree, PhD)"))) == 1

    def test_zero_bound_still_allows_synonym_and_mapping(self, engine):
        engine.subscribe(
            parse_subscription("(university = Toronto)", sub_id="syn", max_generality=0)
        )
        engine.subscribe(
            parse_subscription(
                "(professional_experience >= 4)", sub_id="map", max_generality=0
            )
        )
        matches = engine.publish(parse_event("(school, Toronto)(graduation_year, 1990)"))
        assert {m.subscription.sub_id for m in matches} == {"syn", "map"}


class TestModes:
    def test_mode_property(self, engine):
        assert engine.mode == "semantic"
        engine.reconfigure(SemanticConfig.syntactic())
        assert engine.mode == "syntactic"

    def test_reconfigure_rebuilds_root_forms(self, engine):
        engine.subscribe(parse_subscription("(school = Toronto)", sub_id="s1"))
        event = parse_event("(university, Toronto)")
        assert len(engine.publish(event)) == 1  # root form matches
        engine.reconfigure(SemanticConfig.syntactic())
        assert len(engine.publish(event)) == 0  # raw 'school' no longer rewritten
        engine.reconfigure(SemanticConfig())
        assert len(engine.publish(event)) == 1  # and back

    def test_syntactic_mode_is_plain_matching(self, engine):
        engine.reconfigure(SemanticConfig.syntactic())
        engine.subscribe(parse_subscription("(degree = graduate degree)", sub_id="g"))
        assert engine.publish(parse_event("(degree, PhD)")) == []
        assert len(engine.publish(parse_event("(degree, graduate degree)"))) == 1


class TestMatcherPlugability:
    @pytest.mark.parametrize("name", MATCHERS)
    def test_all_matchers_give_same_semantics(self, name):
        engine = SToPSS(_kb(), matcher=matcher_arg(name), config=SemanticConfig(present_year=2003))
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s"))
        assert len(engine.publish(parse_event("(degree, PhD)"))) == 1

    @pytest.mark.parametrize("name", MATCHERS)
    def test_reconfigure_keeps_named_matcher(self, name):
        """Whatever its name, the matcher is reset in place on
        reconfigure — never swapped — and then matches exactly like an
        engine built fresh under the new configuration."""
        subscriptions = ("(school = Toronto)", "(degree = degree)", "(degree = PhD)")
        events = ("(school, Toronto)", "(degree, PhD)(university, York)")

        def loaded(config: SemanticConfig) -> SToPSS:
            engine = SToPSS(_kb(), matcher=matcher_arg(name), config=config)
            for index, text in enumerate(subscriptions):
                engine.subscribe(parse_subscription(text, sub_id=f"s{index}"))
            return engine

        def observed(engine: SToPSS) -> list[list[tuple[str, int]]]:
            return [
                [(m.subscription.sub_id, m.generality) for m in engine.publish(parse_event(text))]
                for text in events
            ]

        engine = loaded(SemanticConfig(present_year=2003))
        matcher = engine.matcher
        for config in (SemanticConfig.syntactic(), SemanticConfig(max_generality=1)):
            engine.reconfigure(config)
            assert engine.matcher is matcher
            assert engine.matcher.name == name
            assert observed(engine) == observed(loaded(config))

    def test_matcher_instance_accepted(self):
        matcher = CountingMatcher()
        engine = SToPSS(_kb(), matcher=matcher)
        assert engine.matcher is matcher


class TestReporting:
    def test_explain_returns_pipeline_result(self, engine):
        result = engine.explain(parse_event("(degree, PhD)"))
        assert len(result.derived) >= 3

    def test_stats_shape(self, engine):
        engine.subscribe(parse_subscription("(degree exists)", sub_id="s"))
        engine.publish(parse_event("(degree, PhD)"))
        stats = engine.stats()
        assert stats["mode"] == "semantic"
        assert stats["subscriptions"] == 1
        assert stats["publications"] == 1
        assert "matcher_stats" in stats and "stage_stats" in stats


class TestInterestPruning:
    def test_stats_surface_pruning_counters(self, engine):
        engine.subscribe(parse_subscription("(degree = graduate_degree)", sub_id="s"))
        engine.publish(parse_event("(degree, PhD)"))
        interest = engine.stats()["interest"]
        assert interest["enabled"]
        assert interest["prune_checks"] > 0
        assert interest["candidates_pruned"] > 0
        assert interest["interest_index_size"] > 0
        assert 0.0 < interest["prune_hit_rate"] <= 1.0
        assert interest["index"]["relevant_rules"] == 0  # "exp" output unconstrained

    def test_pruning_collapses_derived_histogram(self):
        from repro.model.predicates import Predicate
        from repro.model.subscriptions import Subscription

        pruned = SToPSS(_kb(), config=SemanticConfig(present_year=2003))
        exhaustive = SToPSS(
            _kb(), config=SemanticConfig(present_year=2003, interest_pruning=False)
        )
        for engine in (pruned, exhaustive):
            engine.subscribe(
                Subscription([Predicate.eq("degree", "graduate degree")], sub_id="s")
            )
        event = parse_event("(degree, PhD)(graduation_year, 1993)")
        pruned_ids = [m.subscription.sub_id for m in pruned.publish(event)]
        exhaustive_ids = [m.subscription.sub_id for m in exhaustive.publish(event)]
        assert pruned_ids == exhaustive_ids == ["s"]
        assert pruned.counters.get("publish.derived_events") < exhaustive.counters.get(
            "publish.derived_events"
        )

    def test_disabled_config_reports_disabled(self):
        engine = SToPSS(_kb(), config=SemanticConfig(interest_pruning=False))
        assert engine.interest is None
        interest = engine.stats()["interest"]
        assert not interest["enabled"]
        assert interest["candidates_pruned"] == 0

    def test_syntactic_mode_has_no_index(self):
        engine = SToPSS(_kb(), config=SemanticConfig.syntactic())
        assert engine.interest is None

    def test_unsafe_extra_stage_disables_pruning(self):
        from repro.core.interfaces import SemanticStage

        class OpaqueStage(SemanticStage):
            name = "opaque"

        engine = SToPSS(_kb(), extra_stages=(OpaqueStage(),))
        assert engine.interest is None
        safe = OpaqueStage()
        safe.interest_safe = True
        assert SToPSS(_kb(), extra_stages=(safe,)).interest is not None

    def test_rename_freeing_a_name_is_never_pruned(self):
        """An attribute rename also frees its old name: av->aw carries a
        value no predicate wants, but the freed 'av' unblocks au->av —
        pruning the rename would silently lose the match (review bug,
        now an explicit exemption in the soundness model)."""
        from repro.model.events import Event
        from repro.model.predicates import Predicate
        from repro.model.subscriptions import Subscription

        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("au", "av", "aw")
        event = Event({"au": "t7", "av": "t6"})
        expected = None
        for pruning in (True, False):
            engine = SToPSS(kb, config=SemanticConfig(interest_pruning=pruning))
            engine.subscribe(Subscription([Predicate.eq("av", "t7")], sub_id="s"))
            got = {(m.subscription.sub_id, m.generality) for m in engine.publish(event)}
            expected = got if expected is None else expected
            assert got == expected == {("s", 2)}

    def test_replace_rule_freeing_a_name_is_never_skipped(self):
        """A REPLACE rule with an unconstrained output is irrelevant by
        the rule fixpoint, yet dropping its input pair frees 'av' for
        the au->av rename — it must always run (review bug)."""
        from repro.model.events import Event
        from repro.model.predicates import Predicate
        from repro.model.subscriptions import Subscription
        from repro.ontology.mappingdefs import OutputMode

        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("au", "av")
        kb.add_rule(
            MappingRule.equivalence(
                "r-replace", {"av": "t1"}, {"q": "x"}, mode=OutputMode.REPLACE
            )
        )
        event = Event({"au": "t7", "av": "t1"})
        for pruning in (True, False):
            engine = SToPSS(kb, config=SemanticConfig(interest_pruning=pruning))
            engine.subscribe(Subscription([Predicate.eq("av", "t7")], sub_id="s"))
            got = {(m.subscription.sub_id, m.generality) for m in engine.publish(event)}
            assert got == {("s", 1)}

    def test_replace_rule_guard_keeps_value_climb_admitted(self):
        """A REPLACE rule must be relevant in the rule fixpoint even
        when its outputs reach nothing, so its enumerable guards feed
        the accepted sets: here the t2->t1 climb exists only to fire
        the rule, whose dropped 'av' pair unblocks the au->av rename
        (review bug: the climb was pruned, losing the match)."""
        from repro.model.events import Event
        from repro.model.predicates import Predicate
        from repro.model.subscriptions import Subscription
        from repro.ontology.mappingdefs import OutputMode

        kb = KnowledgeBase()
        domain = kb.add_domain("d")
        domain.add_chain("au", "av")
        domain.add_chain("t2", "t1")
        kb.add_rule(
            MappingRule.equivalence(
                "r", {"av": "t1"}, {"q": "x"}, mode=OutputMode.REPLACE
            )
        )
        event = Event({"au": "t7", "av": "t2"})
        for pruning in (True, False):
            engine = SToPSS(kb, config=SemanticConfig(interest_pruning=pruning))
            engine.subscribe(Subscription([Predicate.eq("av", "t7")], sub_id="s"))
            got = {(m.subscription.sub_id, m.generality) for m in engine.publish(event)}
            assert got == {("s", 2)}

    def test_self_disabled_index_costs_nothing(self):
        """A mapping rule with an unknown read set disables pruning —
        and the engine must then behave like interest_pruning=False:
        no prune checks on the hot path and enabled=False in stats (the
        index object stays, so dropping the rule later re-enables it)."""
        kb = _kb()
        kb.add_rule(
            MappingRule.function(
                "opaque", ["degree"], lambda event, context: None
            )
        )
        engine = SToPSS(kb, config=SemanticConfig(present_year=2003))
        assert engine.interest is not None and not engine.interest.active
        engine.subscribe(parse_subscription("(degree = graduate_degree)", sub_id="s"))
        event = parse_event("(degree, PhD)")
        engine.publish(event)
        engine.subscribe(parse_subscription("(degree = doctorate)", sub_id="s2"))
        engine.publish(event)
        interest = engine.stats()["interest"]
        assert not interest["enabled"]
        assert interest["prune_checks"] == 0
        assert interest["candidates_pruned"] == 0
        assert "opaque" in interest["index"]["disabled"]

    def test_reconfigure_rebuilds_index(self, engine):
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s"))
        assert engine.interest is not None
        engine.reconfigure(SemanticConfig.syntactic())
        assert engine.interest is None
        engine.reconfigure(SemanticConfig(present_year=2003))
        assert engine.interest is not None
        # the rebuilt index knows the re-inserted root subscription
        assert engine.interest.value_interesting("degree", "PhD", None)
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [m.subscription.sub_id for m in matches] == ["s"]

    def test_kb_growth_refreshes_index_mid_stream(self, engine):
        from repro.model.predicates import Predicate
        from repro.model.subscriptions import Subscription

        engine.subscribe(
            Subscription([Predicate.eq("degree", "ladder top")], sub_id="s")
        )
        assert engine.publish(parse_event("(degree, PhD)")) == []
        engine.kb.taxonomy("jobs").add_chain("degree", "ladder top")
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [m.subscription.sub_id for m in matches] == ["s"]
