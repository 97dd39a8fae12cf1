"""Unit tests for repro.ontology.taxonomy."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.errors import (
    DuplicateConceptError,
    InvalidValueError,
    TaxonomyCycleError,
    UnknownConceptError,
)
from repro.ontology.concepts import Concept
from repro.ontology.taxonomy import Taxonomy


@pytest.fixture
def degrees() -> Taxonomy:
    t = Taxonomy("jobs")
    t.add_chain("PhD", "doctorate", "graduate degree", "degree")
    t.add_chain("MSc", "master's degree", "graduate degree")
    t.add_chain("BSc", "bachelor's degree", "degree")
    return t


class TestConstruction:
    def test_add_concept_idempotent(self, degrees):
        first = degrees.add_concept("PhD")
        version = degrees.version
        again = degrees.add_concept("phd")
        assert first is again
        assert degrees.add_concept("  PHD ", "a gloss") is first
        assert first.description == "" and degrees.version == version
        assert degrees.canonical("PHD") == "PhD"

    def test_first_spelling_wins(self):
        t = Taxonomy()
        t.add_concept("Graduate Degree")
        t.add_concept("graduate degree")
        assert t.canonical("GRADUATE DEGREE") == "Graduate Degree"

    def test_new_concept_is_normalized_once_and_equal_to_a_validated_one(self, monkeypatch):
        """The taxonomy normalizes a new term once and hands ``Concept``
        the finished pair; the node equals what the validating
        constructors build, and malformed terms are still rejected."""
        import repro.ontology.concepts as concepts

        calls = []
        real = concepts.normalize_term
        monkeypatch.setattr(
            concepts, "normalize_term", lambda term: calls.append(term) or real(term)
        )
        node = Taxonomy("jobs").add_concept("  Graduate_Degree  ", "a gloss")
        assert calls == ["  Graduate_Degree  "]
        assert node == Concept.of("Graduate_Degree", "jobs", "a gloss")
        assert node == Concept("Graduate_Degree", "", "jobs", "a gloss")
        assert (node.term, node.key) == ("Graduate_Degree", "graduate degree")
        assert hash(node) == hash(Concept.of("Graduate_Degree", "jobs", "a gloss"))
        for malformed in ("   ", 7):
            with pytest.raises(InvalidValueError):
                Taxonomy().add_concept(malformed)

    def test_take_appended_hands_over_concepts_and_edges_in_order(self):
        t = Taxonomy("jobs")
        t.add_isa("PhD", "doctorate")  # before anyone follows: not recorded
        assert t.take_appended() == []
        t.add_chain("postdoc", "PhD", "doctorate")  # one new concept, one new edge
        t.add_concept("phd")  # known: nothing appended
        with pytest.raises(TaxonomyCycleError):
            t.add_isa("doctorate", "postdoc")
        appended = t.take_appended()
        assert appended == [t.concept("postdoc"), ("postdoc", "phd")]
        assert t.take_appended() == []

    def test_self_loop_rejected(self, degrees):
        with pytest.raises(DuplicateConceptError):
            degrees.add_isa("PhD", "phd")

    def test_cycle_rejected(self, degrees):
        with pytest.raises(TaxonomyCycleError):
            degrees.add_isa("degree", "PhD")

    def test_long_cycle_rejected(self):
        t = Taxonomy()
        t.add_chain("a", "b", "c", "d")
        with pytest.raises(TaxonomyCycleError):
            t.add_isa("d", "a")

    def test_cycle_through_child_with_descendants_rejected(self, degrees):
        # "graduate degree" already has specializations, so the upward
        # walk must still run and find "doctorate" below it
        with pytest.raises(TaxonomyCycleError):
            degrees.add_isa("graduate degree", "doctorate")
        assert degrees.validate() == []

    def test_attaching_a_fresh_leaf_walks_nothing(self, degrees, monkeypatch):
        calls = []
        reaches = Taxonomy._reaches

        def counting(self, start_key, target_key):
            calls.append((start_key, target_key))
            return reaches(self, start_key, target_key)

        monkeypatch.setattr(Taxonomy, "_reaches", counting)
        # a child nobody specializes cannot be anyone's ancestor
        degrees.add_isa("DPhil", "doctorate")
        degrees.add_isa("DPhil", "graduate degree")
        degrees.add_isa("research degree", "degree")
        degrees.add_isa("MPhil", "research degree")
        assert calls == []
        # an inner node does pay the walk
        degrees.add_isa("doctorate", "research degree")
        assert calls == [("research degree", "doctorate")]

    def test_duplicate_edge_tolerated(self, degrees):
        version = degrees.version
        degrees.add_isa("PhD", "doctorate")
        assert degrees.version == version

    def test_multiple_parents(self):
        t = Taxonomy()
        t.add_isa("station wagon", "car")
        t.add_isa("station wagon", "family vehicle")
        assert set(t.parents("station wagon")) == {"car", "family vehicle"}


class TestLookup:
    def test_contains_spelling_variants(self, degrees):
        assert "PhD" in degrees and "phd" in degrees and "  PHD " in degrees
        assert "llb" not in degrees
        assert 42 not in degrees  # type: ignore[comparison-overlap]

    def test_unknown_concept_raises(self, degrees):
        with pytest.raises(UnknownConceptError):
            degrees.concept("LLB")

    def test_parents_children(self, degrees):
        assert degrees.parents("PhD") == ("doctorate",)
        assert degrees.children("graduate degree") == ("doctorate", "master's degree")

    def test_roots_and_leaves(self, degrees):
        assert degrees.roots() == ("degree",)
        assert set(degrees.leaves()) == {"PhD", "MSc", "BSc"}

    def test_len_and_iter(self, degrees):
        assert len(degrees) == 8
        assert {c.term for c in degrees} >= {"PhD", "degree"}


class TestTraversal:
    def test_ancestors_with_distances(self, degrees):
        assert degrees.ancestors("PhD") == {
            "doctorate": 1,
            "graduate degree": 2,
            "degree": 3,
        }

    def test_ancestors_bounded(self, degrees):
        assert degrees.ancestors("PhD", max_distance=2) == {
            "doctorate": 1,
            "graduate degree": 2,
        }

    def test_descendants(self, degrees):
        assert degrees.descendants("graduate degree") == {
            "doctorate": 1,
            "master's degree": 1,
            "PhD": 2,
            "MSc": 2,
        }

    def test_min_distance_on_diamond(self):
        t = Taxonomy()
        t.add_chain("x", "a", "top")
        t.add_chain("x", "top")  # short-cut edge
        assert t.ancestors("x")["top"] == 1

    def test_is_generalization_of(self, degrees):
        assert degrees.is_generalization_of("degree", "PhD")
        assert not degrees.is_generalization_of("PhD", "degree")
        assert not degrees.is_generalization_of("PhD", "PhD")
        assert not degrees.is_generalization_of("unknown", "PhD")

    def test_generalization_distance(self, degrees):
        assert degrees.generalization_distance("PhD", "degree") == 3
        assert degrees.generalization_distance("PhD", "PhD") == 0
        assert degrees.generalization_distance("PhD", "MSc") is None

    def test_depth(self, degrees):
        assert degrees.depth() == 3


class TestMaintenance:
    def test_merge(self, degrees):
        other = Taxonomy("jobs")
        other.add_chain("MBA", "master's degree")
        degrees.merge(other)
        assert degrees.generalization_distance("MBA", "graduate degree") == 2

    def test_validate_clean(self, degrees):
        assert degrees.validate() == []

    def test_stats(self, degrees, monkeypatch):
        def listing(self):
            raise AssertionError("stats() counts roots and leaves, it does not list them")

        monkeypatch.setattr(Taxonomy, "roots", listing)
        monkeypatch.setattr(Taxonomy, "leaves", listing)
        assert degrees.stats() == {
            "concepts": 8,
            "edges": 7,
            "roots": 1,
            "leaves": 3,
            "depth": 3,
        }

    def test_version_bumps(self):
        t = Taxonomy()
        v0 = t.version
        t.add_concept("a")
        assert t.version > v0

    @pytest.mark.parametrize("order", ["specific-first", "general-first"])
    def test_deep_chain_depth_and_validate_do_not_recurse(self, order):
        """``depth()`` / ``validate()`` / ``stats()`` walk with an explicit
        stack: a 5,000-level chain (far past the interpreter's recursion
        limit) is measured, not a ``RecursionError``."""
        levels = 5_000
        t = Taxonomy("deep")
        if order == "specific-first":
            for i in range(levels):
                t.add_isa(f"c{i}", f"c{i + 1}")
        else:
            for i in range(levels, 0, -1):
                t.add_isa(f"c{i - 1}", f"c{i}")
        assert t.depth() == levels
        assert t.validate() == []
        assert t.stats() == {
            "concepts": levels + 1,
            "edges": levels,
            "roots": 1,
            "leaves": 1,
            "depth": levels,
        }
        assert t.roots() == (f"c{levels}",) and t.leaves() == ("c0",)

    def test_validate_still_finds_a_cycle(self, degrees):
        # the structure refuses cycles, so plant one behind its back
        degrees._parents["degree"] = ("phd",)
        degrees._children["phd"] = ["degree"]
        problems = degrees.validate()
        assert len(problems) == 1 and problems[0].startswith("cycle reachable from")


class TestCompactStorage:
    """A relation a concept lacks has no container; declaration order
    is kept; the first spelling wins."""

    def test_add_concept_allocates_no_adjacency(self):
        t = Taxonomy("jobs")
        t.add_concept("PhD")
        t.add_concept("degree")
        assert t._parents == {} and t._children == {}
        t.add_isa("PhD", "degree")
        assert t._parents == {"phd": ("degree",)}
        assert t._children == {"degree": ["phd"]}

    def test_adjacency_keeps_declaration_order(self):
        t = Taxonomy()
        t.add_isa("wagon", "car")
        t.add_isa("wagon", "family vehicle")
        t.add_isa("sedan", "car")
        t.add_isa("wagon", "car")  # duplicate: no second entry
        assert t._parents["wagon"] == ("car", "family vehicle")
        assert t._children["car"] == ["wagon", "sedan"]
        assert list(t.descendants("car")) == ["wagon", "sedan"]
        assert list(t.isa_edges()) == [
            ("wagon", "car"),
            ("wagon", "family vehicle"),
            ("sedan", "car"),
        ]

    def test_isa_edges_follow_concept_registration_order(self):
        # "b" is registered before "a" but gains its parent after it:
        # edges are grouped by specialized concept in registration order
        t = Taxonomy()
        t.add_concept("b")
        t.add_isa("a", "top")
        t.add_isa("b", "top")
        assert list(t.isa_edges()) == [("b", "top"), ("a", "top")]

    def test_normalized_term_shares_its_key_string(self):
        t = Taxonomy()
        plain = t.add_concept("graduate degree")
        assert plain.key is plain.term
        spelled = t.add_concept("Master_Degree")
        assert (spelled.term, spelled.key) == ("Master_Degree", "master degree")


class TestConceptSlots:
    def test_no_instance_dict(self):
        concept = Concept.of("PhD", "jobs")
        assert not hasattr(concept, "__dict__")
        # refused either way; CPython 3.11's frozen+slots __setattr__
        # reports a non-field name as TypeError rather than AttributeError
        with pytest.raises((AttributeError, TypeError)):
            concept.extra = 1  # type: ignore[attr-defined]
        with pytest.raises(dataclasses.FrozenInstanceError):
            concept.term = "MSc"  # type: ignore[misc]

    @pytest.mark.parametrize(
        "clone",
        [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_round_trips(self, clone):
        concept = Taxonomy("jobs").add_concept("Graduate_Degree", "a gloss")
        again = clone(concept)
        assert again == concept and hash(again) == hash(concept)
        assert (again.term, again.key, again.domain, again.description) == (
            "Graduate_Degree",
            "graduate degree",
            "jobs",
            "a gloss",
        )

    def test_dataclasses_replace(self):
        concept = Taxonomy("jobs").add_concept("PhD")
        glossed = dataclasses.replace(concept, description="doctor of philosophy")
        assert (glossed.term, glossed.key, glossed.domain) == ("PhD", "phd", "jobs")
        assert glossed.description == "doctor of philosophy"
        assert concept.description == ""
