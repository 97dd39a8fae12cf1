"""Unit tests for the built-in domain ontologies."""

from __future__ import annotations

import pytest

from repro.model.events import Event
from repro.ontology.domains import (
    bridge_rules,
    build_demo_knowledge_base,
    build_electronics_knowledge_base,
    build_jobs_knowledge_base,
    build_vehicles_knowledge_base,
)
from repro.ontology.mappingdefs import MappingContext
from repro.model.values import Period

CTX = MappingContext(present_year=2003)


class TestJobsDomain:
    @pytest.fixture(scope="class")
    def kb(self):
        return build_jobs_knowledge_base()

    def test_paper_attribute_synonyms(self, kb):
        assert kb.root_attribute("school") == "university"
        assert kb.root_attribute("college") == "university"
        assert kb.root_attribute("job_title") == "position"

    def test_work_experience_is_not_a_synonym(self, kb):
        # The paper bridges work_experience/professional_experience via a
        # mapping function, not a synonym (the value types differ).
        assert kb.root_attribute("work_experience") == "work_experience"

    def test_degree_hierarchy(self, kb):
        assert kb.is_generalization_of("graduate degree", "PhD")
        assert kb.generalization_distance("PhD", "degree") == 3
        assert not kb.is_generalization_of("PhD", "graduate degree")

    def test_university_geography(self, kb):
        assert kb.is_generalization_of("Canadian university", "Toronto")
        assert not kb.is_generalization_of("Canadian university", "MIT")

    def test_paper_mapping_function(self, kb):
        exp = next(r for r in kb.rules() if "professional-experience" in r.name)
        derived = exp.apply(Event({"graduation_year": 1993}), CTX)
        assert derived["professional_experience"] == 10

    def test_cobol_mainframe_correlation(self, kb):
        rule = next(r for r in kb.rules() if r.name == "cobol-implies-mainframe-developer")
        derived = rule.apply(Event({"skill": "COBOL programming"}), CTX)
        assert derived["position"] == "mainframe developer"

    def test_total_employment_rule(self, kb):
        rule = next(r for r in kb.rules() if r.name == "total-employment-from-periods")
        event = Event({
            "period1": Period(1994, 1997),
            "period2": Period(1999, None),
        })
        derived = rule.apply(event, CTX)
        assert derived["employment_years"] == 3 + 4

    def test_total_employment_is_open_ended(self, kb):
        """The periodN scan has no upper job count (the read set is the
        ``period*`` prefix family): a resume listing a tenth-plus job
        still contributes its duration."""
        rule = next(r for r in kb.rules() if r.name == "total-employment-from-periods")
        assert "period*" in rule.reads
        pairs = {f"period{i}": Period(1990 + i, 1991 + i) for i in range(1, 13)}
        derived = rule.apply(Event(pairs), CTX)
        assert derived["employment_years"] == 12

    def test_salary_bands_partition(self, kb):
        bands = [r for r in kb.rules() if r.name.startswith("salary-band")]
        cases = (
            (40000, "junior band"),
            (80000, "intermediate band"),
            (120000, "senior band"),
        )
        for salary, expected in cases:
            fired = [r.apply(Event({"salary": salary}), CTX) for r in bands]
            values = {d["salary_band"] for d in fired if d is not None}
            assert values == {expected}

    def test_paper_resume_values_are_known(self, kb):
        for term in ("Toronto", "PhD"):
            assert kb.knows_term(term, domain="jobs")

    def test_value_synonyms(self, kb):
        assert kb.value_root("UofT") == "Toronto"
        assert kb.value_root("doctor of philosophy") == "PhD"


class TestVehiclesDomain:
    @pytest.fixture(scope="class")
    def kb(self):
        return build_vehicles_knowledge_base()

    def test_intro_example_synonyms(self, kb):
        # Paper §1: "car" / "vehicles" / "automobiles".
        assert kb.value_root("automobile") == "car"
        assert kb.value_root("auto") == "car"
        assert kb.is_generalization_of("vehicle", "car")

    def test_multi_parent_station_wagon(self, kb):
        taxonomy = kb.taxonomy("vehicles")
        assert set(taxonomy.parents("station wagon")) == {"car", "family vehicle"}

    def test_age_rule(self, kb):
        rule = next(r for r in kb.rules() if r.name == "vehicle-age")
        assert rule.apply(Event({"year": 1998}), CTX)["age"] == 5

    def test_price_bands(self, kb):
        rule = next(r for r in kb.rules() if r.name == "budget-price-band")
        assert rule.apply(Event({"price": 8000}), CTX)["price_band"] == "budget"
        assert rule.apply(Event({"price": 20000}), CTX) is None

    def test_body_style_vocabulary(self, kb):
        assert kb.knows_term("sedan", domain="vehicles")
        assert not kb.knows_term("spaceship", domain="vehicles")


class TestElectronicsDomain:
    @pytest.fixture(scope="class")
    def kb(self):
        return build_electronics_knowledge_base()

    def test_hierarchy(self, kb):
        assert kb.generalization_distance("gaming laptop", "electronics") == 4
        assert kb.is_generalization_of("computer", "mainframe")

    def test_total_storage_rule(self, kb):
        rule = next(r for r in kb.rules() if r.name == "total-storage")
        assert rule.apply(Event({"ssd": 512, "hdd": 1024}), CTX)["total_storage"] == 1536

    def test_device_vocabulary(self, kb):
        assert kb.knows_term("laptop", domain="electronics")
        assert not kb.knows_term("toaster", domain="electronics")


class TestDemoKnowledgeBase:
    def test_all_domains_present(self):
        kb = build_demo_knowledge_base()
        assert set(kb.domains()) == {"jobs", "vehicles", "electronics"}

    def test_bridge_rules_installed(self):
        kb = build_demo_knowledge_base()
        names = {r.name for r in kb.rules()}
        assert {r.name for r in bridge_rules()} <= names

    def test_bridge_fires_across_domains(self):
        kb = build_demo_knowledge_base()
        rule = next(r for r in kb.rules() if r.name == "bridge-mainframe-position-to-hardware")
        derived = rule.apply(Event({"position": "mainframe developer"}), CTX)
        assert derived["device"] == "mainframe"
        # and the electronics taxonomy can generalize the bridged value
        assert kb.is_generalization_of("computer", "mainframe")

    def test_taxonomies_validate(self):
        kb = build_demo_knowledge_base()
        for domain in kb.domains():
            assert kb.taxonomy(domain).validate() == []
