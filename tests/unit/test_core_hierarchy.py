"""Unit tests for the concept-hierarchy stage (paper §3.1 stage 2), on
the concept-id stage and on the string reference alike."""

from __future__ import annotations

import pytest

from repro.core.hierarchy import HierarchyStage
from repro.core.provenance import DerivedEvent
from repro.core.reference import ReferenceHierarchyStage
from repro.model.events import Event
from repro.ontology.knowledge_base import KnowledgeBase

pytestmark = pytest.mark.parametrize(
    "stage_class", [HierarchyStage, ReferenceHierarchyStage], ids=["ids", "reference"]
)


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    jobs = kb.add_domain("jobs")
    jobs.add_chain("PhD", "doctorate", "graduate degree", "degree")
    kb.add_value_synonyms(["PhD", "doctor of philosophy"], root="PhD")
    return kb


def _expand(stage: HierarchyStage, event: Event, budget=None):
    return list(stage.expand(DerivedEvent.original(event), generality_budget=budget))


class TestValueGeneralization:
    def test_single_substitution_per_derived_event(self, stage_class):
        stage = stage_class(_kb())
        derived = _expand(stage, Event({"degree": "PhD", "city": "Toronto"}))
        values = {d.event["degree"] for d in derived}
        assert values == {"doctorate", "graduate degree", "degree"}
        for d in derived:
            assert d.event["city"] == "Toronto"  # untouched pair

    def test_distances_recorded(self, stage_class):
        stage = stage_class(_kb())
        derived = _expand(stage, Event({"degree": "PhD"}))
        by_value = {d.event["degree"]: d.generality for d in derived}
        assert by_value == {"doctorate": 1, "graduate degree": 2, "degree": 3}

    def test_budget_bounds_climb(self, stage_class):
        stage = stage_class(_kb())
        derived = _expand(stage, Event({"degree": "PhD"}), budget=1)
        assert {d.event["degree"] for d in derived} == {"doctorate"}

    def test_budget_zero_blocks_generalization(self, stage_class):
        stage = stage_class(_kb())
        derived = _expand(stage, Event({"degree": "PhD"}), budget=0)
        assert all(d.generality == 0 for d in derived)

    def test_unknown_terms_ignored(self, stage_class):
        stage = stage_class(_kb())
        assert _expand(stage, Event({"degree": "LLB"})) == []

    def test_non_string_values_ignored(self, stage_class):
        stage = stage_class(_kb())
        assert _expand(stage, Event({"year": 1990, "flag": True})) == []

    def test_top_of_hierarchy_not_generalized(self, stage_class):
        stage = stage_class(_kb())
        assert _expand(stage, Event({"degree": "degree"})) == []


class TestValueSynonyms:
    def test_canonicalization_at_distance_zero(self, stage_class):
        stage = stage_class(_kb())
        derived = _expand(stage, Event({"degree": "doctor of philosophy"}))
        canonical = [d for d in derived if d.event["degree"] == "PhD"]
        assert canonical and canonical[0].generality == 0


class TestAttributeGeneralization:
    def _kb_with_attribute_concepts(self) -> KnowledgeBase:
        kb = _kb()
        kb.taxonomy("jobs").add_chain("graduation year", "date info")
        return kb

    def test_attribute_names_generalize(self, stage_class):
        stage = stage_class(self._kb_with_attribute_concepts())
        derived = _expand(stage, Event({"graduation_year": 1990}))
        renamed = [d for d in derived if "date_info" in d.event]
        assert renamed and renamed[0].event["date_info"] == 1990
        assert renamed[0].generality == 1

    def test_collision_with_existing_attribute_skipped(self, stage_class):
        stage = stage_class(self._kb_with_attribute_concepts())
        event = Event({"graduation_year": 1990, "date_info": 2000})
        derived = _expand(stage, event)
        assert all(d.event.get("date_info") == 2000 for d in derived)


class TestProvenance:
    def test_steps_name_the_stage(self, stage_class):
        stage = stage_class(_kb())
        derived = _expand(stage, Event({"degree": "PhD"}))
        assert all(d.steps[-1].stage == "hierarchy" for d in derived)

    def test_chains_extend(self, stage_class):
        stage = stage_class(_kb())
        first = _expand(stage, Event({"degree": "PhD"}), budget=1)[0]
        second = list(stage.expand(first, generality_budget=1))
        assert all(d.depth == 2 for d in second)
        assert {d.event["degree"] for d in second} == {"graduate degree"}
