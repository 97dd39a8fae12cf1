"""Unit tests for repro.ontology.thesaurus."""

from __future__ import annotations

import pytest

from repro.errors import DuplicateConceptError
from repro.ontology.concept_table import TermStore
from repro.ontology.thesaurus import Thesaurus


class TestBasics:
    def test_root_defaults_to_first_term(self):
        t = Thesaurus()
        assert t.add_synonyms(["university", "school", "college"]) == "university"
        assert t.root_of("college") == "university"

    def test_explicit_root(self):
        t = Thesaurus()
        assert t.add_synonyms(["school", "college"], root="university") == "university"
        assert t.root_of("school") == "university"

    def test_root_maps_to_itself(self):
        t = Thesaurus()
        t.add_synonyms(["a", "b"])
        assert t.root_of("a") == "a"

    def test_idempotent_rewrite(self):
        t = Thesaurus()
        t.add_synonyms(["x", "y", "z"])
        root = t.root_of("z")
        assert t.root_of(root) == root

    def test_unknown_term(self):
        t = Thesaurus()
        assert t.root_of("nothing") is None
        assert t.synonyms_of("nothing") == frozenset()
        assert "nothing" not in t

    def test_case_insensitive_lookup(self):
        t = Thesaurus()
        t.add_synonyms(["University", "School"])
        assert t.root_of("SCHOOL") == "University"
        assert t.root_of("school") == "University"

    def test_underscore_space_equivalence(self):
        t = Thesaurus()
        t.add_synonyms(["work_experience", "professional experience"])
        assert t.are_synonyms("work experience", "professional_experience")

    def test_empty_call_rejected(self):
        with pytest.raises(DuplicateConceptError):
            Thesaurus().add_synonyms([])


class TestMerging:
    def test_transitive_merge(self):
        t = Thesaurus()
        t.add_synonyms(["a", "b"])
        t.add_synonyms(["c", "d"])
        assert not t.are_synonyms("a", "c")
        t.add_synonyms(["b", "c"])  # bridges the two groups
        assert t.are_synonyms("a", "d")
        assert t.group_count() == 1

    def test_merge_keeps_explicit_root(self):
        t = Thesaurus()
        t.add_synonyms(["school"], root="university")
        t.add_synonyms(["college", "academy"])
        t.add_synonyms(["school", "college"])
        assert t.root_of("academy") == "university"

    def test_conflicting_explicit_roots_rejected(self):
        t = Thesaurus()
        t.add_synonyms(["a"], root="root1")
        t.add_synonyms(["b"], root="root2")
        with pytest.raises(DuplicateConceptError):
            t.add_synonyms(["a", "b"])

    def test_re_rooting_same_group_rejected(self):
        t = Thesaurus()
        t.add_synonyms(["a", "b"], root="a")
        with pytest.raises(DuplicateConceptError):
            t.add_synonyms(["b"], root="b")

    def test_rejected_re_root_changes_nothing(self):
        """Regression: the re-root conflict used to be detected *after*
        the new members were installed and without a version bump, so a
        rejected call left "motorcar" rooted at "car" while every
        version-keyed cache still said it was unknown."""
        from repro.ontology.knowledge_base import KnowledgeBase

        kb = KnowledgeBase("t")
        kb.add_value_synonyms(["car", "automobile"], root="car")
        table = kb.concept_table()
        version = kb.version
        with pytest.raises(DuplicateConceptError):
            kb.add_value_synonyms(["automobile", "motorcar"], root="automobile")
        assert kb.value_root("motorcar") is None
        assert kb.value_equivalents("car") == {"car", "automobile"}
        assert kb.version == version
        assert kb.concept_table() is table and table.version == version
        assert table.term_id_of_value("motorcar") is None

    def test_rejected_merge_changes_nothing(self):
        t = Thesaurus()
        t.add_synonyms(["a", "a2"], root="root1")
        t.add_synonyms(["b"], root="root2")
        t.add_synonyms(["c", "c2"])
        version, terms = t.version, len(t._terms)
        with pytest.raises(DuplicateConceptError):
            t.add_synonyms(["c", "a", "b", "new"])
        # not even the new spelling was interned
        assert t.version == version and len(t._terms) == terms
        assert t.group_count() == 3 and "new" not in t
        assert t.synonyms_of("c") == {"c", "c2"} and t.root_of("c") == "c"
        assert t.synonyms_of("a") == {"a", "a2", "root1"}

    def test_same_explicit_root_twice_ok(self):
        t = Thesaurus()
        t.add_synonyms(["a", "b"], root="a")
        t.add_synonyms(["c"], root="a")
        assert t.are_synonyms("b", "c")


class TestSharedStore:
    def test_members_are_ids_of_the_shared_store(self):
        terms = TermStore()
        values, attributes = Thesaurus(terms), Thesaurus(terms)
        values.add_synonyms(["car", "Auto"], root="car")
        attributes.add_synonyms(["auto", "vehicle_type"])
        # one key, one id, whichever thesaurus named it first
        assert len(terms) == 3 and terms.find("auto") == 1
        # each thesaurus reports the spelling it was given
        assert values.synonyms_of("auto") == {"car", "Auto"}
        assert attributes.synonyms_of("AUTO") == {"auto", "vehicle_type"}
        assert attributes.root_of("vehicle type") == "auto"
        assert not values.are_synonyms("auto", "vehicle_type")

    def test_a_merge_names_the_group_by_its_new_root(self):
        t = Thesaurus()
        t.add_synonyms(["a", "b"])
        t.add_synonyms(["c", "d"], root="c")
        assert t.add_synonyms(["b", "d"]) == "c"
        assert t.group_count() == 1 and len(t) == 4
        assert t.synonyms_of("a") == {"a", "b", "c", "d"}
        assert {t.root_of(term) for term in "abcd"} == {"c"}
        # the explicit root survived the merge: re-rooting is refused
        with pytest.raises(DuplicateConceptError):
            t.add_synonyms(["a"], root="a")


class TestReporting:
    def test_groups(self):
        t = Thesaurus()
        t.add_synonyms(["a", "b"])
        t.add_synonyms(["x", "y", "z"])
        groups = sorted(t.groups(), key=len)
        assert [len(g) for g in groups] == [2, 3]

    def test_synonyms_include_self(self):
        t = Thesaurus()
        t.add_synonyms(["a", "b"])
        assert t.synonyms_of("a") == frozenset({"a", "b"})

    def test_len_counts_terms(self):
        t = Thesaurus()
        t.add_synonyms(["a", "b", "c"])
        assert len(t) == 3

    def test_stats(self):
        t = Thesaurus()
        t.add_synonyms(["a", "b", "c"])
        t.add_synonyms(["x", "y"])
        assert t.stats() == {"terms": 5, "groups": 2, "largest_group": 3}

    def test_version_bumps(self):
        t = Thesaurus()
        v0 = t.version
        t.add_synonyms(["a", "b"])
        assert t.version > v0


class TestMalformedMembership:
    """Membership answers ``False`` for a term that does not normalize
    and lets any other error through."""

    @pytest.mark.parametrize("term", ["", "   ", 3, None])
    def test_a_malformed_term_is_not_a_member(self, term):
        t = Thesaurus()
        t.add_synonyms(["school", "university"])
        assert term not in t

    def test_an_unrelated_error_propagates(self, monkeypatch):
        t = Thesaurus()
        t.add_synonyms(["school", "university"])

        def broken(term):
            raise RuntimeError("not a value error")

        monkeypatch.setattr("repro.ontology.thesaurus.term_key", broken)
        with pytest.raises(RuntimeError, match="not a value error"):
            "school" in t
