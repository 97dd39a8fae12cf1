"""Unit tests for the interned concept-id layer (ConceptTable)."""

from __future__ import annotations

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.subexpand import SubscriptionExpandingEngine, _descend
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.model.values import canonical_value_key
from repro.ontology.knowledge_base import KnowledgeBase


def build_kb() -> KnowledgeBase:
    kb = KnowledgeBase("t")
    vehicles = kb.add_domain("vehicles")
    vehicles.add_chain("sedan", "car", "vehicle")
    vehicles.add_chain("coupe", "car")
    kb.add_value_synonyms(["car", "automobile", "auto"], root="car")
    kb.add_attribute_synonyms(["school", "university"], root="university")
    return kb


class TestIdentity:
    def test_terms_get_dense_ids(self):
        table = build_kb().concept_table()
        ids = {table.term_id_of_value(t) for t in ("sedan", "car", "vehicle", "coupe")}
        assert None not in ids
        assert len(ids) == 4
        assert all(0 <= tid < len(table) for tid in ids)

    def test_spelling_variants_share_a_term_id(self):
        table = build_kb().concept_table()
        assert table.term_id_of_value("SEDAN") == table.term_id_of_value("sedan")
        # value synonyms are distinct terms (distance-0 equivalents),
        # not the same term id
        assert table.term_id_of_value("auto") != table.term_id_of_value("car")

    def test_unknown_term_is_uninterned(self):
        table = build_kb().concept_table()
        assert table.term_id_of_value("hovercraft") is None

    def test_canonical_spelling_matches_kb(self):
        kb = build_kb()
        table = kb.concept_table()
        for term in ("auto", "sedan", "car"):
            tid = table.term_id_of_value(term)
            assert table.canonical_spelling(tid) == kb.canonical_term(term)

    def test_ancestor_closure_matches_kb_generalizations(self):
        kb = build_kb()
        table = kb.concept_table()
        for term in ("sedan", "coupe", "auto", "vehicle"):
            tid = table.term_id_of_value(term)
            closure = {table.spelling(sid): d for sid, d in table.ancestors(tid)}
            assert closure == kb.generalizations(term)


class TestValueKeyFallback:
    def test_known_spellings_intern_to_ints(self):
        table = build_kb().concept_table()
        assert isinstance(table.value_key("sedan"), int)

    def test_case_variant_spellings_do_not_collide(self):
        """Matching identity is exact-spelling: "Sedan" must not inherit
        "sedan"'s id or a subscription on one would match the other."""
        table = build_kb().concept_table()
        assert table.value_key("Sedan") == canonical_value_key("Sedan")
        assert table.value_key("Sedan") != table.value_key("sedan")

    def test_uninterned_values_fall_back_to_canonical_key(self):
        table = build_kb().concept_table()
        for value in ("free text", 4, 4.0, True):
            assert table.value_key(value) == canonical_value_key(value)
        # the numeric canonical collapse survives the fallback
        assert table.value_key(4) == table.value_key(4.0)


class TestWireBoundary:
    """Which spelling ids may cross to a worker process as bare ints:
    the construction-time ones, never the lazily interned."""

    def test_construction_spellings_are_wire_safe(self):
        table = build_kb().concept_table()
        sid = table.wire_sid("sedan")
        assert sid is not None and table.spelling(sid) == "sedan"
        # deterministic across independently built equal-content tables
        assert build_kb().concept_table().wire_sid("sedan") == sid

    def test_unknown_and_lazy_spellings_are_not(self):
        table = build_kb().concept_table()
        assert table.wire_sid("free text") is None
        lazy_sid = table._intern_spelling("late arrival")
        assert table.value_key("late arrival") == lazy_sid  # interned...
        assert table.wire_sid("late arrival") is None  # ...but not wire-safe


class TestRebuild:
    def test_table_is_cached_until_version_moves(self):
        kb = build_kb()
        first = kb.concept_table()
        assert kb.concept_table() is first

    def test_rebuild_on_version_bump(self):
        kb = build_kb()
        first = kb.concept_table()
        assert first.term_id_of_value("truck") is None
        kb.taxonomy("vehicles").add_chain("truck", "vehicle")
        second = kb.concept_table()
        assert second is not first
        assert second.version == kb.version
        tid = second.term_id_of_value("truck")
        closure = {second.spelling(sid): d for sid, d in second.ancestors(tid)}
        assert closure == {"vehicle": 1}

    def test_engine_sees_new_knowledge_through_rebuild(self):
        kb = build_kb()
        engine = SToPSS(kb)
        engine.subscribe(Subscription([Predicate.eq("kind", "vehicle")], sub_id="s1"))
        assert engine.publish(Event([("kind", "truck")])) == []
        kb.taxonomy("vehicles").add_chain("truck", "vehicle")
        matches = engine.publish(Event([("kind", "truck")]))
        assert [m.subscription.sub_id for m in matches] == ["s1"]
        assert matches[0].generality == 1


class TestDescentClosure:
    def test_attribute_synonym_spellings_never_expand_subscriptions(self):
        """Regression: "SCHOOL" is a term_key variant of the attribute
        synonym spelling "school".  The string path's descent seeds
        (value_equivalents) never consult attribute synonyms, so the
        interned path must treat the operand as unknown too — not
        rewrite the EQ into an IN over {school, SCHOOL}."""
        from repro.core.subexpand import expand_subscription_charged

        kb = build_kb()
        sub = Subscription([Predicate.eq("topic", "SCHOOL")], sub_id="x")
        interned = expand_subscription_charged(sub, kb, interned=True)
        stringly = expand_subscription_charged(sub, kb, interned=False)
        assert not interned.changed and not stringly.changed
        assert interned.subscription.predicates == stringly.subscription.predicates
        assert kb.concept_table().descent_map("SCHOOL", None) == _descend(kb, "SCHOOL", None)
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(Subscription([Predicate.eq("topic", "SCHOOL")], sub_id="s1"))
        assert engine.publish(Event([("topic", "school")])) == []

    def test_descent_map_matches_string_bfs(self):
        kb = build_kb()
        table = kb.concept_table()
        for term in ("vehicle", "car", "auto", "sedan", "unknown term"):
            for bound in (None, 0, 1, 2, 3):
                assert table.descent_map(term, bound) == _descend(kb, term, bound), (
                    f"descent divergence for {term!r} bound={bound}"
                )

    def test_refresh_reexpands_through_fresh_table(self):
        kb = build_kb()
        engine = SubscriptionExpandingEngine(kb)
        engine.subscribe(Subscription([Predicate.eq("kind", "vehicle")], sub_id="s1"))
        assert engine.publish(Event([("kind", "truck")])) == []
        kb.taxonomy("vehicles").add_chain("truck", "vehicle")
        assert engine.stale_subscriptions() == ["s1"]
        assert engine.refresh() == 1
        matches = engine.publish(Event([("kind", "truck")]))
        assert [m.subscription.sub_id for m in matches] == ["s1"]
        assert matches[0].generality == 1


class TestEngineEpoch:
    def test_epoch_bump_drops_caches_but_not_table(self):
        kb = build_kb()
        engine = SToPSS(kb)
        table = kb.concept_table()
        engine.bump_semantic_epoch("test")
        # the table snapshot is version-keyed, not epoch-keyed
        assert kb.concept_table() is table
        # ...while every semantic cache keys on the pair that just moved
        assert engine.semantic_version == (kb.version, 1)

    def test_interning_off_is_the_string_path(self):
        kb = build_kb()
        engine = SToPSS(kb, config=SemanticConfig(interning=False))
        engine.subscribe(Subscription([Predicate.eq("kind", "vehicle")], sub_id="s1"))
        matches = engine.publish(Event([("kind", "sedan")]))
        assert [m.subscription.sub_id for m in matches] == ["s1"]
        assert matches[0].generality == 2

    def test_reconfigure_toggles_interning(self):
        kb = build_kb()
        engine = SToPSS(kb)
        engine.subscribe(Subscription([Predicate.eq("kind", "vehicle")], sub_id="s1"))
        before = [m.generality for m in engine.publish(Event([("kind", "sedan")]))]
        engine.reconfigure(SemanticConfig(interning=False))
        after = [m.generality for m in engine.publish(Event([("kind", "sedan")]))]
        assert before == after == [2]
        engine.reconfigure(SemanticConfig(interning=True))
        assert [m.generality for m in engine.publish(Event([("kind", "sedan")]))] == [2]
