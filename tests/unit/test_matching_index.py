"""Unit tests for repro.matching.index (the predicate index)."""

from __future__ import annotations

import gc

from repro.matching.index import PredicateIndex, SatisfactionCache
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.values import Period


def _satisfied(index: PredicateIndex, attribute: str, value) -> set:
    return set(index.satisfied(attribute, value))


class TestEqualities:
    def test_eq_hash_probe(self):
        index = PredicateIndex()
        p = Predicate.eq("a", 4)
        index.add(p)
        assert _satisfied(index, "a", 4) == {p.key}
        assert _satisfied(index, "a", 4.0) == {p.key}  # canonical key collision
        assert _satisfied(index, "a", 5) == set()
        assert _satisfied(index, "b", 4) == set()

    def test_in_members_expand(self):
        index = PredicateIndex()
        p = Predicate.isin("a", [1, 2, 3])
        index.add(p)
        for member in (1, 2, 3):
            assert _satisfied(index, "a", member) == {p.key}
        assert _satisfied(index, "a", 4) == set()

    def test_ne(self):
        index = PredicateIndex()
        p = Predicate.ne("a", 4)
        index.add(p)
        assert _satisfied(index, "a", 5) == {p.key}
        assert _satisfied(index, "a", 4) == set()
        assert _satisfied(index, "a", "other-type") == {p.key}


class TestOrderings:
    def test_boundaries(self):
        index = PredicateIndex()
        ge4, gt4 = Predicate.ge("a", 4), Predicate.gt("a", 4)
        le4, lt4 = Predicate.le("a", 4), Predicate.lt("a", 4)
        for p in (ge4, gt4, le4, lt4):
            index.add(p)
        assert _satisfied(index, "a", 4) == {ge4.key, le4.key}
        assert _satisfied(index, "a", 5) == {ge4.key, gt4.key}
        assert _satisfied(index, "a", 3) == {le4.key, lt4.key}

    def test_type_buckets_do_not_mix(self):
        index = PredicateIndex()
        num = Predicate.ge("a", 4)
        text = Predicate.ge("a", "m")
        index.add(num)
        index.add(text)
        assert _satisfied(index, "a", 10) == {num.key}
        assert _satisfied(index, "a", "z") == {text.key}

    def test_period_ordering(self):
        index = PredicateIndex()
        p = Predicate.ge("span", Period(1994, 1997))
        index.add(p)
        assert _satisfied(index, "span", Period(1999, None)) == {p.key}
        assert _satisfied(index, "span", Period(1990, 1991)) == set()

    def test_range(self):
        index = PredicateIndex()
        p = Predicate.between("a", 10, 20)
        index.add(p)
        assert _satisfied(index, "a", 15) == {p.key}
        assert _satisfied(index, "a", 10) == {p.key}
        assert _satisfied(index, "a", 21) == set()
        assert _satisfied(index, "a", 5) == set()


class TestStringOperators:
    def test_prefix_trie(self):
        index = PredicateIndex()
        to = Predicate.prefix("city", "To")
        tor = Predicate.prefix("city", "Toron")
        other = Predicate.prefix("city", "Ot")
        for p in (to, tor, other):
            index.add(p)
        assert _satisfied(index, "city", "Toronto") == {to.key, tor.key}
        assert _satisfied(index, "city", "Ottawa") == {other.key}
        assert _satisfied(index, "city", "Paris") == set()

    def test_suffix_trie(self):
        index = PredicateIndex()
        p = Predicate.suffix("city", "onto")
        index.add(p)
        assert _satisfied(index, "city", "Toronto") == {p.key}
        assert _satisfied(index, "city", "Torino") == set()

    def test_contains(self):
        index = PredicateIndex()
        p = Predicate.contains("title", "java")
        index.add(p)
        assert _satisfied(index, "title", "senior java dev") == {p.key}
        assert _satisfied(index, "title", "senior dev") == set()

    def test_string_ops_skip_non_strings(self):
        index = PredicateIndex()
        index.add(Predicate.prefix("a", "x"))
        assert _satisfied(index, "a", 42) == set()


class TestExists:
    def test_exists_matches_any_value(self):
        index = PredicateIndex()
        p = Predicate.exists("a")
        index.add(p)
        for value in (0, "", False, "anything"):
            assert p.key in _satisfied(index, "a", value)


class TestRefcounting:
    def test_shared_predicate_single_entry(self):
        index = PredicateIndex()
        index.add(Predicate.eq("a", 1))
        index.add(Predicate.eq("a", 1.0))  # same canonical key
        assert len(index) == 1
        index.discard(Predicate.eq("a", 1))
        assert len(index) == 1  # still referenced once
        assert _satisfied(index, "a", 1) != set()
        index.discard(Predicate.eq("a", 1))
        assert len(index) == 0
        assert _satisfied(index, "a", 1) == set()

    def test_discard_unknown_is_noop(self):
        index = PredicateIndex()
        index.discard(Predicate.eq("a", 1))
        assert len(index) == 0

    def test_remove_restores_other_entries(self):
        index = PredicateIndex()
        keep, drop = Predicate.ge("a", 1), Predicate.ge("a", 2)
        index.add(keep)
        index.add(drop)
        index.discard(drop)
        assert _satisfied(index, "a", 5) == {keep.key}

    def test_every_operator_uninstalls(self):
        preds = [
            Predicate.eq("a", 1),
            Predicate.ne("a", 1),
            Predicate.ge("a", 1),
            Predicate.between("a", 1, 2),
            Predicate.isin("a", [1, 2]),
            Predicate.prefix("s", "x"),
            Predicate.suffix("s", "x"),
            Predicate.contains("s", "x"),
            Predicate.exists("e"),
        ]
        index = PredicateIndex()
        for p in preds:
            index.add(p)
        for p in preds:
            index.discard(p)
        assert len(index) == 0
        assert _satisfied(index, "a", 1) == set()
        assert _satisfied(index, "s", "xyz") == set()
        assert _satisfied(index, "e", 0) == set()


class TestEventLevel:
    def test_satisfied_by_event(self):
        index = PredicateIndex()
        pa, pb = Predicate.eq("a", 1), Predicate.ge("b", 2)
        index.add(pa)
        index.add(pb)
        keys = list(index.satisfied_by_event(Event({"a": 1, "b": 5, "c": 9})))
        assert set(keys) == {pa.key, pb.key}
        assert len(keys) == 2  # no double counting

    def test_consistency_with_evaluate(self):
        """Index results agree with direct predicate evaluation."""
        preds = [
            Predicate.eq("a", 4),
            Predicate.ne("a", 4),
            Predicate.ge("a", 4),
            Predicate.gt("a", 4),
            Predicate.le("a", 4),
            Predicate.lt("a", 4),
            Predicate.between("a", 2, 6),
            Predicate.isin("a", [1, 4, 9]),
            Predicate.exists("a"),
            Predicate.prefix("a", "val"),
            Predicate.contains("a", "alu"),
            Predicate.suffix("a", "ue7"),
        ]
        index = PredicateIndex()
        for p in preds:
            index.add(p)
        for value in (0, 1, 4, 4.0, 5, 9, 100, "value7", "other", True, Period(1990)):
            from_index = set(index.satisfied("a", value))
            direct = {p.key for p in preds if p.evaluate(value)}
            assert from_index == direct, f"divergence at value {value!r}"


class TestSatisfactionCache:
    def test_the_transform_is_applied_on_a_miss_and_not_held(self):
        index = PredicateIndex()
        p = Predicate.eq("a", 4)
        index.add(p)
        cache = SatisfactionCache(index)
        made = []

        def transform(attribute: str, keys: tuple) -> tuple:
            made.append((attribute, keys))
            return ("payload", *keys)

        assert cache.satisfied("a", 4, transform) == ("payload", p.key)
        # a hit returns what the miss stored, canonically equal values included
        assert cache.satisfied("a", 4.0, transform) == ("payload", p.key)
        assert made == [("a", (p.key,))]
        assert (cache.hits, cache.misses) == (1, 1)
        # no transform: the satisfied keys themselves
        assert cache.satisfied("a", 5) == ()
        held = [cache, *gc.get_referents(cache)]
        assert all(transform not in gc.get_referents(item) for item in held)
