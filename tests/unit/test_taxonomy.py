"""Unit tests for repro.ontology.taxonomy."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from array import array

import pytest

from repro.errors import (
    DuplicateConceptError,
    InvalidValueError,
    TaxonomyCycleError,
    UnknownConceptError,
)
from repro.ontology.concept_table import TermStore
from repro.ontology.concepts import Concept, term_key
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
        """A :class:`Concept` is a value built on read: re-registering a
        key hands back an equal node on all four fields, and changes
        nothing — not the spelling, not the description, not the
        version."""

        def fields(concept):
            return (concept.term, concept.key, concept.domain, concept.description)

        first = degrees.add_concept("PhD")
        version = degrees.version
        again = degrees.add_concept("phd")
        assert again == first and fields(again) == fields(first) == ("PhD", "phd", "jobs", "")
        glossed = degrees.add_concept("  PHD ", "a gloss")
        assert fields(glossed) == fields(first)
        assert fields(degrees.concept("phd")) == fields(first)
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

    def test_a_known_spelling_re_registers_as_the_normalizing_path_does(self, monkeypatch):
        """A write naming a member by a spelling the store knows — its
        own key, a display spelling, the spelling of an odd key — is
        answered by probes alone, with the ids, version and spellings
        the normalizing path gives."""
        import repro.ontology.taxonomy as taxonomy

        normalized = []
        real = taxonomy.term_and_key
        monkeypatch.setattr(
            taxonomy, "term_and_key", lambda term: normalized.append(term) or real(term)
        )

        def replay():
            terms = TermStore()
            t = Taxonomy("jobs", terms)
            t.add_chain("PhD", "doctorate", "degree")
            t.add_isa("_a", "degree")
            normalized.clear()
            seen = []
            for spelling in ("doctorate", "PhD", "_a"):
                seen.append((t.add_concept(spelling, "late gloss"), t.version))
                t.add_isa(spelling, "degree")
                seen.append((terms.find(term_key(spelling)), t.version, terms.spelling_count))
            seen.append(list(t.isa_edges()))
            return seen, list(normalized)

        probed, probed_normalized = replay()
        assert probed_normalized == []
        monkeypatch.setattr(TermStore, "known_id", lambda self, spelling: None)
        expected, expected_normalized = replay()
        assert probed == expected and len(expected_normalized) == 9
        # "_a"'s key " a" is no key of its own (it normalizes to "a"):
        # the store answers it with None, for the caller to normalize
        terms = TermStore()
        Taxonomy("jobs", terms).add_concept("_a")
        assert terms.find(" a") == 0 and terms.known_id(" a") is None

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

        def counting(self, start, target):
            # the walk runs on indexes, which are registration order
            keys = [concept.key for concept in self]
            calls.append((keys[start], keys[target]))
            return reaches(self, start, target)

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

    def test_merge_keeps_declared_parent_order(self):
        source = Taxonomy("vehicles")
        source.add_concept("car", "a gloss")
        source.add_concept("wagon", "an estate car")
        source.add_isa("wagon", "family vehicle")
        source.add_isa("wagon", "car")
        merged = Taxonomy("vehicles")
        merged.add_concept("car")  # already known here: its description stays
        merged.merge(source)
        assert list(merged.ancestors("wagon")) == ["family vehicle", "car"]
        assert list(merged.isa_edges()) == [("wagon", "family vehicle"), ("wagon", "car")]
        assert merged.concept("car").description == ""
        assert merged.concept("wagon") == source.concept("wagon")

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

    @staticmethod
    def _index(taxonomy, term):
        """A concept's row slot: its term id in the taxonomy's store,
        less the first id the rows cover."""
        return taxonomy._terms.find(taxonomy.concept(term).key) - taxonomy._base

    def test_validate_still_finds_a_cycle(self, degrees):
        # the structure refuses cycles, so plant one in the rows behind
        # its back: "degree" (a root) is-a "PhD" (a leaf), both rows
        phd, degree = self._index(degrees, "PhD"), self._index(degrees, "degree")
        degrees._up[degree] = phd
        degrees._down[phd] = degree
        problems = degrees.validate()
        assert len(problems) == 1 and problems[0].startswith("cycle reachable from")

    def test_validate_finds_a_cycle_in_an_overflow_row(self, degrees):
        degree, msc = self._index(degrees, "degree"), self._index(degrees, "MSc")
        degrees.add_isa("degree", "qualification")
        top = self._index(degrees, "qualification")
        degrees._up_more[degree] = array("i", (top, msc))
        degrees._down[msc] = degree
        problems = degrees.validate()
        assert len(problems) == 1 and problems[0].startswith("cycle reachable from")

    def test_validate_reports_dangling_and_asymmetric_edges(self, degrees):
        degree, bsc = self._index(degrees, "degree"), self._index(degrees, "BSc")
        degrees._up[degree] = 99  # a parent no concept holds
        degrees._down[bsc] = degree  # "degree" is-a "BSc" only downward
        assert degrees.validate() == [
            "dangling parent #99 of 'degree'",
            "asymmetric edge 'degree' -> 'bsc'",
        ]

    def test_validate_reports_an_edge_missing_from_the_child_row(self, degrees):
        # "MSc" keeps "master's degree" as its parent, but the parent's
        # row forgets it
        masters = self._index(degrees, "master's degree")
        degrees._down[masters] = -1
        assert degrees.validate() == ["asymmetric edge 'msc' -> \"master's degree\""]


class TestCompactStorage:
    """A relation a concept lacks costs nothing; declaration order is
    kept; the first spelling wins — observed through the readers."""

    def test_add_concept_allocates_no_adjacency(self):
        t = Taxonomy("jobs")
        t.add_concept("PhD")
        t.add_concept("degree")
        assert list(t.isa_edges()) == []
        assert t.ancestors("PhD") == {} and t.descendants("degree") == {}
        assert t.stats() == {"concepts": 2, "edges": 0, "roots": 2, "leaves": 2, "depth": 0}
        t.add_isa("PhD", "degree")
        assert list(t.isa_edges()) == [("phd", "degree")]
        assert t.ancestors("PhD") == {"degree": 1}
        assert t.descendants("degree") == {"PhD": 1}
        assert t.stats() == {"concepts": 2, "edges": 1, "roots": 1, "leaves": 1, "depth": 1}

    def test_adjacency_keeps_declaration_order(self):
        t = Taxonomy()
        t.add_isa("wagon", "car")
        t.add_isa("wagon", "family vehicle")
        t.add_isa("sedan", "car")
        t.add_isa("wagon", "car")  # duplicate: no second entry
        t.add_isa("wagon", "estate")  # a third parent grows the row
        assert list(t.ancestors("wagon").items()) == [
            ("car", 1),
            ("family vehicle", 1),
            ("estate", 1),
        ]
        assert list(t.descendants("car").items()) == [("wagon", 1), ("sedan", 1)]
        # grouped by specialized concept: all of "wagon"'s rows first
        assert list(t.isa_edges()) == [
            ("wagon", "car"),
            ("wagon", "family vehicle"),
            ("wagon", "estate"),
            ("sedan", "car"),
        ]
        assert t.stats() == {"concepts": 5, "edges": 4, "roots": 3, "leaves": 2, "depth": 1}

    def test_isa_edges_follow_concept_registration_order(self):
        # "b" is registered before "a" but gains its parent after it:
        # edges are grouped by specialized concept in registration order
        t = Taxonomy()
        t.add_concept("b")
        t.add_isa("a", "top")
        t.add_isa("b", "top")
        assert list(t.isa_edges()) == [("b", "top"), ("a", "top")]
        assert list(t.descendants("top")) == ["a", "b"]  # children: declaration order

    def test_normalized_term_shares_its_key_string(self):
        t = Taxonomy()
        plain = t.add_concept("graduate degree")
        assert plain.key is plain.term
        spelled = t.add_concept("Master_Degree")
        assert (spelled.term, spelled.key) == ("Master_Degree", "master degree")


class TestSharedStore:
    """Domains on one term store share its ids and keep their own
    membership, registration order and spellings."""

    def test_two_domains_share_a_term_id_and_keep_their_spellings(self):
        terms = TermStore()
        education, jobs = Taxonomy("education", terms), Taxonomy("jobs", terms)
        education.add_chain("doctorate", "graduate degree")
        jobs.add_chain("postdoc", "Graduate_Degree")
        shared = terms.find("graduate degree")
        assert len(terms) == 3 and education._has(shared) and jobs._has(shared)
        assert education.canonical("GRADUATE DEGREE") == "graduate degree"
        assert jobs.canonical("graduate degree") == "Graduate_Degree"
        assert jobs.concept("graduate degree") == Concept.of("Graduate_Degree", "jobs")
        # each domain holds only what it registered, in its own order
        assert education.terms() == ("doctorate", "graduate degree")
        assert jobs.terms() == ("postdoc", "Graduate_Degree")
        assert "postdoc" not in education and "doctorate" not in jobs
        assert education.stats()["concepts"] == jobs.stats()["concepts"] == 2
        assert education.roots() == ("graduate degree",)
        assert jobs.leaves() == ("postdoc",)
        assert education.validate() == jobs.validate() == []

    def test_a_term_another_domain_holds_is_no_member_here(self):
        terms = TermStore()
        first, second = Taxonomy("a", terms), Taxonomy("b", terms)
        first.add_chain("x", "y")
        second.add_concept("z")  # past every row slot of "a"
        assert len(first) == 2 and "z" not in first and list(first.isa_edges()) == [("x", "y")]
        with pytest.raises(UnknownConceptError):
            second.ancestors("x")
        second.add_isa("x", "z")
        assert second.terms() == ("z", "x") and first.ancestors("x") == {"y": 1}
        assert second.depth() == first.depth() == 1

    def test_a_domain_rows_cover_only_its_own_span(self):
        terms = TermStore()
        big, small = Taxonomy("big", terms), Taxonomy("small", terms)
        for i in range(1, 500):
            big.add_isa(f"b{i}", f"b{i - 1}")
        small.add_chain("s0", "s1", "s2")
        assert len(small._up) == len(small._down) == 3
        assert small.ancestors("s0") == {"s1": 1, "s2": 2} and small.validate() == []

    def test_a_domain_that_registers_falling_ids_keeps_every_row(self):
        """Reaching below the first id the rows cover shifts them down
        with room to spare; every edge and walk survives the shift."""
        terms = TermStore()
        first, late = Taxonomy("first", terms), Taxonomy("late", terms)
        for i in range(1, 64):
            first.add_isa(f"t{i}", f"t{i - 1}")
        late.add_concept("t63")
        for i in range(62, -1, -1):
            late.add_isa(f"t{i}", f"t{i + 1}")
        assert late.validate() == [] and late.depth() == 63
        assert late.ancestors("t0", 2) == {"t1": 1, "t2": 2}
        assert late.descendants("t2") == {f"t{i}": 2 - i for i in range(2)}
        assert late.terms()[:2] == ("t63", "t62") and len(late) == 64
        assert first.ancestors("t1") == {"t0": 1}
        assert len(late._up) <= 2 * 64  # room to spare, not a copy per id

    def test_a_standalone_taxonomy_has_a_store_of_its_own(self):
        one, other = Taxonomy("a"), Taxonomy("b")
        one.add_concept("p")
        assert one._terms is not other._terms and len(other._terms) == 0


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


class TestMalformedMembership:
    """Membership answers ``False`` for a term that does not normalize
    and lets any other error through."""

    @pytest.mark.parametrize("term", ["", "   ", 3, None])
    def test_a_malformed_term_is_not_a_member(self, term):
        taxonomy = Taxonomy("jobs")
        taxonomy.add_chain("PhD", "degree")
        assert term not in taxonomy

    def test_an_unrelated_error_propagates(self, monkeypatch):
        taxonomy = Taxonomy("jobs")
        taxonomy.add_chain("PhD", "degree")

        def broken(term):
            raise RuntimeError("not a value error")

        monkeypatch.setattr("repro.ontology.taxonomy.term_key", broken)
        with pytest.raises(RuntimeError, match="not a value error"):
            "PhD" in taxonomy
