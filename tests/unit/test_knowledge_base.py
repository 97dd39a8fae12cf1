"""Unit tests for repro.ontology.knowledge_base."""

from __future__ import annotations

import pytest

from repro.errors import UnknownDomainError
from repro.model.events import Event
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingContext, MappingRule


@pytest.fixture
def kb() -> KnowledgeBase:
    kb = KnowledgeBase("test")
    kb.add_attribute_synonyms(["school", "college"], root="university")
    kb.add_value_synonyms(["car", "automobile", "auto"], root="car")
    vehicles = kb.add_domain("vehicles")
    vehicles.add_chain("sedan", "car", "motor vehicle", "vehicle")
    jobs = kb.add_domain("jobs")
    jobs.add_chain("PhD", "graduate degree", "degree")
    kb.add_rule(
        MappingRule.computed(
            "exp", "professional_experience", "present_year - graduation_year"
        )
    )
    return kb


class TestDomains:
    def test_add_domain_idempotent(self, kb):
        assert kb.add_domain("vehicles") is kb.taxonomy("vehicles")

    def test_unknown_domain(self, kb):
        with pytest.raises(UnknownDomainError):
            kb.taxonomy("nope")

    def test_domains_listing(self, kb):
        assert set(kb.domains()) == {"vehicles", "jobs"}


class TestAttributeSynonyms:
    def test_root_attribute(self, kb):
        assert kb.root_attribute("school") == "university"
        assert kb.root_attribute("College") == "university"
        assert kb.root_attribute("university") == "university"
        assert kb.root_attribute("unknown_attr") == "unknown_attr"

    def test_rename_map_only_changed(self, kb):
        renames = kb.attribute_rename_map(["school", "university", "degree"])
        assert renames == {"school": "university"}

    def test_synonyms_of(self, kb):
        assert kb.attribute_synonyms_of("school") == frozenset({"university", "school", "college"})
        assert kb.attribute_synonyms_of("nothing") == frozenset()

    def test_groups(self, kb):
        assert any("school" in g for g in kb.attribute_synonym_groups())


class TestValueKnowledge:
    def test_value_root(self, kb):
        assert kb.value_root("automobile") == "car"
        assert kb.value_root("unknown") is None

    def test_value_equivalents_include_taxonomy_spelling(self, kb):
        assert "car" in kb.value_equivalents("auto")

    def test_generalizations_resolve_synonyms(self, kb):
        gens = kb.generalizations("automobile")
        assert gens == {"motor vehicle": 1, "vehicle": 2}

    def test_generalizations_exclude_self_and_synonyms(self, kb):
        gens = kb.generalizations("auto")
        assert "car" not in gens and "auto" not in gens

    def test_generalizations_domain_scoped(self, kb):
        assert kb.generalizations("PhD", domain="vehicles") == {}
        assert kb.generalizations("PhD", domain="jobs") == {
            "graduate degree": 1,
            "degree": 2,
        }

    def test_generalizations_bounded(self, kb):
        assert kb.generalizations("sedan", max_levels=1) == {"car": 1}

    def test_is_generalization_of(self, kb):
        assert kb.is_generalization_of("vehicle", "sedan")
        assert not kb.is_generalization_of("sedan", "vehicle")
        assert not kb.is_generalization_of("car", "automobile")  # synonyms, not general

    def test_generalization_distance(self, kb):
        assert kb.generalization_distance("sedan", "vehicle") == 3
        assert kb.generalization_distance("car", "automobile") == 0
        assert kb.generalization_distance("sedan", "PhD") is None

    def test_canonical_term(self, kb):
        assert kb.canonical_term("AUTO") == "car"
        assert kb.canonical_term("SEDAN") == "sedan"
        assert kb.canonical_term("mystery") is None

    def test_knows_term(self, kb):
        assert kb.knows_term("sedan")
        assert kb.knows_term("sedan", domain="vehicles")
        assert not kb.knows_term("sedan", domain="jobs")
        assert not kb.knows_term("sedan", domain="missing")
        assert not kb.knows_term(42)  # type: ignore[arg-type]

    def test_merged_distances_take_minimum(self):
        kb = KnowledgeBase()
        kb.add_domain("a").add_chain("x", "mid", "top")
        kb.add_domain("b").add_chain("x", "top")
        assert kb.generalizations("x")["top"] == 1


class TestRules:

    def test_candidate_rules(self, kb):
        assert [r.name for r in kb.candidate_rules(Event({"graduation_year": 1990}))] == ["exp"]
        assert kb.candidate_rules(Event({"other": 1})) == []

    def test_candidate_requires_all_triggers(self, kb):
        kb.add_rule(MappingRule.computed("span", "span", "a - b", requires=["a", "b"]))
        assert [r.name for r in kb.candidate_rules(Event({"a": 1}))] == []
        assert "span" in [r.name for r in kb.candidate_rules(Event({"a": 1, "b": 2}))]

    def test_duplicate_rule_name_rejected(self, kb):
        with pytest.raises(ValueError):
            kb.add_rule(MappingRule.computed("exp", "out", "graduation_year + 0"))

    def test_candidate_rules_deduplicated(self, kb):
        kb.add_rule(MappingRule.computed("two-trigger", "out", "a + b", requires=["a", "b"]))
        names = [r.name for r in kb.candidate_rules(Event({"a": 1, "b": 2}))]
        assert names.count("two-trigger") == 1


class TestMaintenance:
    def test_merge(self, kb):
        other = KnowledgeBase("other")
        other.add_attribute_synonyms(["position", "title"], root="position")
        other.add_domain("vehicles").add_chain("limo", "car")
        other.add_rule(MappingRule.computed("age", "age", "present_year - year"))
        kb.merge(other)
        assert kb.root_attribute("title") == "position"
        assert kb.generalization_distance("limo", "vehicle") == 3
        assert len(kb.rules()) == 2

    def test_merge_keeps_each_concepts_declared_parent_order(self):
        """The order of a concept's parents decides the order of its
        generalizations, and so which candidates survive
        ``max_derived_events``: a merge re-declares them as the source
        did, not sorted."""
        source = KnowledgeBase("source")
        vehicles = source.add_domain("vehicles")
        vehicles.add_isa("wagon", "family vehicle")
        vehicles.add_isa("wagon", "car")
        vehicles.add_chain("car", "vehicle")
        merged = KnowledgeBase("merged")
        merged.merge(source)
        expected = {"family vehicle": 1, "car": 1, "vehicle": 2}
        assert list(source.generalizations("wagon").items()) == list(expected.items())
        assert list(merged.generalizations("wagon").items()) == list(expected.items())
        assert list(merged.taxonomy("vehicles").isa_edges()) == list(vehicles.isa_edges())

    def test_version_monotonic(self, kb):
        v0 = kb.version
        kb.add_value_synonyms(["truck", "lorry"])
        assert kb.version > v0

    def test_stats_shape(self, kb):
        stats = kb.stats()
        assert stats["mapping_rules"] == 1
        assert "vehicles" in stats["domains"]


class TestDirectConstruction:
    """Domain modules and world builders assemble a knowledge base by
    calling its methods directly; the same calls build every kind of
    knowledge the matcher consults."""

    def test_every_kind_of_knowledge(self):
        kb = KnowledgeBase("demo")
        kb.add_attribute_synonyms(["university", "school", "college"])
        kb.add_value_synonyms(["car", "automobile"], root="car")
        jobs = kb.add_domain("jobs")
        jobs.add_chain("PhD", "doctorate", "graduate degree", "degree")
        jobs.add_isa("MSc", "graduate degree")
        jobs.add_concept("lonely concept", "a gloss")
        kb.add_rule(
            MappingRule.computed(
                "exp", "professional_experience", "present_year - graduation_year",
                domain="jobs",
            )
        )
        kb.add_rule(
            MappingRule.equivalence(
                "cobol", {"skill": "COBOL"}, {"position": "mainframe developer"},
                domain="jobs",
            )
        )
        kb.add_domain("vehicles").add_chain("sedan", "car", "vehicle")
        kb.add_attribute_synonyms(["make", "brand"])
        assert kb.root_attribute("school") == "university"
        assert kb.root_attribute("brand") == "make"
        assert kb.generalization_distance("PhD", "degree") == 3
        assert kb.generalization_distance("MSc", "graduate degree") == 1
        assert kb.generalization_distance("automobile", "vehicle") == 1
        assert [r.domain for r in kb.rules()] == ["jobs", "jobs"]
        assert kb.taxonomy("jobs").concept("lonely concept").description == "a gloss"

    def test_domains_keep_their_own_hierarchies(self):
        kb = KnowledgeBase()
        kb.add_domain("a").add_chain("x", "y")
        kb.add_domain("b").add_chain("p", "q")
        assert set(kb.domains()) == {"a", "b"}
        assert kb.knows_term("x", domain="a") and not kb.knows_term("x", domain="b")
        assert kb.is_generalization_of("q", "p", domain="b")
        assert not kb.is_generalization_of("y", "x", domain="b")

    def test_value_synonyms_are_not_domain_scoped(self):
        kb = KnowledgeBase()
        kb.add_domain("v")
        kb.add_value_synonyms(["car", "auto"])
        assert kb.value_root("auto") == "car"

    def test_added_rule_object_applies(self):
        kb = KnowledgeBase()
        kb.add_rule(MappingRule.computed("r", "out", "x + 1", requires=["x"]))
        derived = kb.rules()[0].apply(Event({"x": 1}), MappingContext())
        assert derived["out"] == 2

    def test_merge_into_an_empty_base(self):
        base = KnowledgeBase()
        base.add_domain("a").add_chain("x", "y")
        kb = KnowledgeBase("big")
        kb.merge(base)
        assert kb.generalization_distance("x", "y") == 1
        assert kb.domains() == ("a",)

    def test_add_domain_alone_registers_the_domain(self):
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("a", "b")
        assert kb.domains() == ("d",)
        assert kb.taxonomy("d").parents("a") == ("b",)
