"""Unit tests for the interned concept-id layer (ConceptTable)."""

from __future__ import annotations

import contextlib
import gc
import logging
import weakref

import pytest

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.errors import (
    DuplicateConceptError,
    InvalidAttributeError,
    InvalidValueError,
    TaxonomyCycleError,
)
from repro.model.attributes import normalize_attribute
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.model.values import canonical_value_key
from repro.ontology.concept_table import descent_closure, pairs
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule


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

    def test_a_key_that_is_not_its_own_key_is_normalized(self):
        kb = KnowledgeBase("t")
        kb.add_domain("d").add_chain("_x", "top")  # "_x" has the key " x"
        kb.add_domain("e").add_chain("_", "top")  # "_" has the key " "
        table = kb.concept_table()
        x = table.term_id_of_value("_x")
        assert x is not None and table.term_id_of_key(" x") == x
        # as the string path has it: " x" normalizes to "x", no term
        assert table.term_id_of_value(" x") is None
        with pytest.raises(InvalidValueError):
            table.term_id_of_value(" ")
        kb.add_domain("d").add_chain("x", "top")
        assert kb.concept_table() is table
        assert table.term_id_of_value(" x") == table.term_id_of_value("x") not in (None, x)

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
            closure = [(table.spelling(sid), d) for sid, d in pairs(table.ancestors(tid))]
            # in order: it decides which candidates survive truncation
            assert closure == list(kb.generalizations(term).items())


    def test_ancestors_walk_the_equivalents_in_sorted_spelling_order(self):
        """Two synonyms in one domain with parents of their own: the
        walks start from "automobile" before "car", as the string path's
        sorted seeds do, whichever the term was asked for."""
        kb = KnowledgeBase("t")
        vehicles = kb.add_domain("vehicles")
        vehicles.add_chain("car", "vehicle")
        vehicles.add_chain("automobile", "machine")
        kb.add_value_synonyms(["car", "automobile"], root="car")
        table = kb.concept_table()
        for term in ("car", "automobile"):
            closure = [
                (table.spelling(sid), d)
                for sid, d in pairs(table.ancestors(table.term_id_of_value(term)))
            ]
            assert closure == [("machine", 1), ("vehicle", 1)]
            assert closure == list(kb.generalizations(term).items())


class TestAttributeForm:
    def test_a_spelling_that_is_no_attribute_has_no_form(self):
        kb = build_kb()
        kb.add_domain("degrees").add_chain("Ph.D.", "graduate degree")
        table = kb.concept_table()
        assert table.attribute_form(table.value_key("Ph.D.")) is None
        assert table.attribute_form(table.value_key("graduate degree")) == "graduate_degree"
        with pytest.raises(InvalidAttributeError):
            normalize_attribute("Ph.D.")  # the typed error the form stands for

    def test_an_unrelated_error_propagates(self, monkeypatch):
        table = build_kb().concept_table()
        sid = table.value_key("car")

        def broken(name):
            raise RuntimeError("not an attribute error")

        monkeypatch.setattr("repro.ontology.concept_table.normalize_attribute", broken)
        with pytest.raises(RuntimeError, match="not an attribute error"):
            table.attribute_form(sid)
        monkeypatch.undo()
        assert table.attribute_form(sid) == "car"  # nothing was memoized


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


def _new_domain(kb):
    kb.add_domain("boats").add_chain("dinghy", "boat")


def _spelled_differently() -> KnowledgeBase:
    """Part of :func:`build_kb`'s taxonomy, in other spellings."""
    other = KnowledgeBase("other")
    other.add_domain("vehicles").add_chain("SEDAN", "Car", "Vehicle")
    return other


def _merged_kb(kb):
    other = KnowledgeBase("other")
    other.add_domain("vehicles").add_chain("moped", "vehicle")
    other.add_value_synonyms(["moped", "scooter"])
    other.add_attribute_synonyms(["colour", "color"])
    kb.merge(other)


#: one of every kind of write a knowledge base accepts
WRITES = {
    "add_concept": lambda kb: kb.taxonomy("vehicles").add_concept("tram"),
    "add_isa": lambda kb: kb.taxonomy("vehicles").add_isa("coupe", "vehicle"),
    "add_chain": lambda kb: kb.taxonomy("vehicles").add_chain("pickup", "truck", "vehicle"),
    "new value group": lambda kb: kb.add_value_synonyms(["truck", "lorry"]),
    "extend value group": lambda kb: kb.add_value_synonyms(["car", "motorcar"]),
    "merge value groups": lambda kb: (
        kb.add_value_synonyms(["wagon", "estate"]),
        kb.add_value_synonyms(["estate", "auto"]),
    ),
    "add_attribute_synonyms": lambda kb: kb.add_attribute_synonyms(["college", "school"]),
    "add_rule": lambda kb: kb.add_rule(
        MappingRule.equivalence("sedans-are-family-cars", {"kind": "sedan"}, {"use": "family"})
    ),
    "add_domain": _new_domain,
    "merge": _merged_kb,
}


def _ids(table) -> dict[str, int | None]:
    return {s: table.term_id_of_value(s) for s in ("sedan", "car", "auto", "vehicle", "tram")}


class TestFollowsTheKnowledgeBase:
    def test_the_table_is_one_object_for_the_knowledge_bases_life(self):
        kb = KnowledgeBase("t")
        first = kb.concept_table()
        assert len(first) == 0 and first.version == kb.version == 0
        kb.merge(build_kb())
        for write in WRITES.values():
            write(kb)
            assert kb.concept_table() is first and first.version == kb.version

    @pytest.mark.parametrize("kind", [kind for kind in WRITES if kind != "add_rule"])
    def test_every_kind_of_write_drops_the_memos_and_keeps_the_ids(self, kind):
        kb = build_kb()
        table = kb.concept_table()
        ids = {s: table.value_key(s) for s in ("sedan", "car", "auto", "vehicle")}
        table.ancestors(table.term_id_of_value("sedan"))
        table.descent(table.term_id_of_value("car"))
        WRITES[kind](kb)
        assert table.version != kb.version
        assert kb.concept_table() is table and table.version == kb.version
        stats = table.stats()
        assert stats["closures_dropped"] == 2
        assert stats["up_closures"] == stats["down_closures"] == 0
        # ids are for the life of the knowledge base
        assert {s: table.value_key(s) for s in ids} == ids

    def test_a_mapping_rule_moves_the_version_and_drops_nothing(self):
        kb = build_kb()
        table = kb.concept_table()
        table.ancestors(table.term_id_of_value("sedan"))
        WRITES["add_rule"](kb)
        assert kb.concept_table().version == kb.version
        stats = table.stats()
        assert stats["closures_dropped"] == 0 and stats["up_closures"] == 1
        # ... and the next term write still drops them
        WRITES["add_concept"](kb)
        kb.concept_table()
        assert table.stats()["closures_dropped"] == 1

    @pytest.mark.parametrize(
        "write",
        [
            lambda kb: kb.taxonomy("vehicles").add_concept("SEDAN"),
            lambda kb: kb.taxonomy("vehicles").add_isa("SEDAN", "Car"),
            lambda kb: kb.taxonomy("vehicles").add_isa("SEDAN", "sedan"),
            lambda kb: kb.taxonomy("vehicles").add_isa("Vehicle", "SEDAN"),
            lambda kb: kb.merge(_spelled_differently()),
        ],
        ids=["re-register", "existing edge", "self-loop", "cycle", "merge"],
    )
    def test_a_write_that_registers_nothing_teaches_no_spelling(self, write):
        """A no-op or rejected write leaves the version alone, so it
        must leave the spellings alone too: a matcher keyed on them is
        re-keyed only when the version moves."""
        kb = build_kb()
        engine = SToPSS(kb)
        engine.subscribe(Subscription([Predicate.eq("kind", "SEDAN")], sub_id="s1"))
        event = Event([("kind", "SEDAN")])
        assert [m.subscription.sub_id for m in engine.publish(event)] == ["s1"]
        table = kb.concept_table()
        version, spellings = kb.version, table.spelling_count
        with contextlib.suppress(DuplicateConceptError, TaxonomyCycleError):
            write(kb)
        assert kb.version == version and table.spelling_count == spellings
        assert table.value_key("SEDAN") == canonical_value_key("SEDAN")
        assert [m.subscription.sub_id for m in engine.publish(event)] == ["s1"]

    def test_ids_are_the_order_the_writes_named_the_terms(self):
        """Reads between the writes change nothing: a knowledge base
        read after every write holds the ids one read only at the end
        holds."""
        live, batch = build_kb(), build_kb()
        live.concept_table().ancestors(0)
        for write in WRITES.values():
            write(live)
            assert live.concept_table().descent_map("vehicle", None)
            write(batch)
        table, reference = live.concept_table(), batch.concept_table()
        assert len(table) == len(reference) and table.spelling_count == reference.spelling_count
        n = len(table)
        for sid in range(n - table.spelling_count, n):
            assert table.spelling(sid) == reference.spelling(sid)
        assert [table.term_display(tid) for tid in range(n)] == [
            reference.term_display(tid) for tid in range(n)
        ]
        assert _ids(table) == _ids(reference) and None not in _ids(table).values()

    def test_a_write_is_seen_by_the_next_read(self):
        kb = build_kb()
        table = kb.concept_table()
        assert table.term_id_of_value("truck") is None
        sedan = table.term_id_of_value("sedan")
        assert table.ancestors(sedan)  # a memoized closure the write must drop
        terms, spellings = len(table), table.spelling_count
        kb.taxonomy("vehicles").add_chain("truck", "vehicle")
        # interned by the write itself, before anyone reads the table
        assert (len(table), table.spelling_count) == (terms + 1, spellings + 1)
        assert table.stats()["up_closures"] == 1
        assert kb.concept_table() is table and table.version == kb.version
        stats = table.stats()
        assert stats["closures_dropped"] == 1 and stats["up_closures"] == 0
        tid = table.term_id_of_value("truck")
        closure = [(table.spelling(sid), d) for sid, d in pairs(table.ancestors(tid))]
        assert closure == [("vehicle", 1)]

    def test_a_memo_drop_logs_its_version_move(self, caplog):
        kb = build_kb()
        table = kb.concept_table()
        table.ancestors(table.term_id_of_value("sedan"))
        table.descent(table.term_id_of_value("vehicle"))
        with caplog.at_level(logging.DEBUG, logger="repro.ontology.concept_table"):
            kb.concept_table()  # the version has not moved: nothing to drop
            kb.taxonomy("vehicles").add_chain("truck", "vehicle")
            kb.add_value_synonyms(["truck", "lorry"])
            kb.concept_table()
            kb.concept_table()
        assert [record.getMessage() for record in caplog.records] == [
            "t v9 -> v12: dropped 2 closures"
        ]

    def test_an_attribute_synonym_that_becomes_a_value_is_displayed_as_one(self):
        kb = build_kb()
        table = kb.concept_table()
        tid = table.term_id_of_value("school")
        assert table.canonical_spelling(tid) is None  # an attribute only
        kb.taxonomy("vehicles").add_chain("School", "vehicle")
        table = kb.concept_table()
        assert table.term_id_of_value("School") == tid
        assert table.term_display(tid) == "school"  # the store's first spelling
        # ... but the value substrate reports its own
        assert table.canonical_spelling(tid) == "School"
        assert as_spellings(table, table.descent(tid)) == {"School": 0}
        assert table.descent_map("School", None) == {"School": 0}
        assert table.descent_map("vehicle", None)["School"] == 1

    def test_a_dropped_knowledge_base_frees_its_table(self):
        """Nothing the table holds holds it back: with the cycle
        collector off, dropping the knowledge base frees the table."""
        kb = build_kb()
        table = kb.concept_table()
        table.ancestors(table.term_id_of_value("sedan"))
        table.descent(table.term_id_of_value("car"))
        watched = weakref.ref(table)
        del table
        enabled = gc.isenabled()
        gc.disable()
        try:
            del kb
            assert watched() is None
        finally:
            if enabled:
                gc.enable()

    def test_engine_sees_new_knowledge_through_rebuild(self):
        kb = build_kb()
        engine = SToPSS(kb)
        engine.subscribe(Subscription([Predicate.eq("kind", "vehicle")], sub_id="s1"))
        assert engine.publish(Event([("kind", "truck")])) == []
        kb.taxonomy("vehicles").add_chain("truck", "vehicle")
        matches = engine.publish(Event([("kind", "truck")]))
        assert [m.subscription.sub_id for m in matches] == ["s1"]
        assert matches[0].generality == 1


def as_spellings(table, closure) -> dict[str, int]:
    return {table.spelling(sid): depth for sid, depth in pairs(closure)}


class TestDescentClosure:
    def test_descent_map_matches_string_bfs(self):
        kb = build_kb()
        table = kb.concept_table()
        # "SCHOOL" is a term_key variant of the attribute synonym
        # spelling "school": the string path's seeds (value_equivalents)
        # never consult attribute synonyms, so the interned path must
        # treat it as unknown too
        assert table.descent_map("SCHOOL", None) == {"SCHOOL": 0}
        for term in ("vehicle", "car", "auto", "sedan", "SCHOOL", "unknown term"):
            for bound in (None, 0, 1, 2, 3):
                assert table.descent_map(term, bound) == descent_closure(kb, term, bound), (
                    f"descent divergence for {term!r} bound={bound}"
                )


class TestEngineEpoch:
    def test_epoch_bump_drops_caches_but_not_table(self):
        kb = build_kb()
        engine = SToPSS(kb)
        table = kb.concept_table()
        engine.bump_semantic_epoch("test")
        # the table follows the knowledge base's version, not the epoch
        assert kb.concept_table() is table
        # ...while every semantic cache keys on the pair that just moved
        assert engine.semantic_version == (kb.version, 1)

    def test_interning_off_is_the_string_path(self):
        kb = build_kb()
        engine = SToPSS(kb, config=SemanticConfig(interning=False))
        # the string stages are the exhaustive reference: nothing prunes
        assert engine.interest is None
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
