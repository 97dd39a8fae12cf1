"""Unit tests for repro.model.subscriptions."""

from __future__ import annotations

import pytest

from repro.errors import PredicateError
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription


def _sub(*preds, **kwargs):
    return Subscription(list(preds), **kwargs)


class TestConstruction:
    def test_basic(self):
        sub = _sub(Predicate.eq("a", 1), Predicate.ge("b", 2))
        assert len(sub) == 2
        assert sub.attributes() == ("a", "b")

    def test_duplicates_collapse(self):
        sub = _sub(Predicate.eq("a", 1), Predicate.eq("a", 1.0))
        assert len(sub) == 1

    def test_rejects_non_predicates(self):
        with pytest.raises(PredicateError):
            Subscription(["not a predicate"])  # type: ignore[list-item]

    def test_negative_max_generality_rejected(self):
        with pytest.raises(PredicateError):
            _sub(Predicate.eq("a", 1), max_generality=-1)

    def test_auto_sub_ids_unique(self):
        assert _sub().sub_id != _sub().sub_id

    def test_empty_subscription_allowed(self):
        assert len(_sub()) == 0


class TestMatching:
    def test_all_conjuncts_required(self):
        sub = _sub(Predicate.eq("a", 1), Predicate.ge("b", 5))
        assert sub.matches(Event({"a": 1, "b": 7}))
        assert not sub.matches(Event({"a": 1, "b": 3}))
        assert not sub.matches(Event({"a": 2, "b": 7}))

    def test_extra_event_attributes_ignored(self):
        sub = _sub(Predicate.eq("a", 1))
        assert sub.matches(Event({"a": 1, "z": "noise"}))

    def test_missing_attribute_fails_even_ne(self):
        sub = _sub(Predicate.ne("a", 1))
        assert not sub.matches(Event({"b": 2}))

    def test_missing_attribute_fails_exists(self):
        sub = _sub(Predicate.exists("a"))
        assert not sub.matches(Event({"b": 2}))
        assert sub.matches(Event({"a": 0}))

    def test_empty_subscription_matches_everything(self):
        assert _sub().matches(Event({}))
        assert _sub().matches(Event({"x": 1}))

    def test_two_predicates_same_attribute(self):
        sub = _sub(Predicate.ge("a", 2), Predicate.le("a", 8))
        assert sub.matches(Event({"a": 5}))
        assert not sub.matches(Event({"a": 9}))


class TestStructure:

    def test_signature_ignores_ids(self):
        a = _sub(Predicate.eq("a", 1), sub_id="s1")
        b = _sub(Predicate.eq("a", 1), sub_id="s2")
        assert a.signature == b.signature


class TestRenaming:
    def test_rename(self):
        sub = _sub(Predicate.eq("school", "Toronto"), Predicate.ge("exp", 4), sub_id="s-r")
        renamed = sub.with_renamed_attributes({"school": "university"})
        assert renamed.attributes() == ("university", "exp")
        assert renamed.sub_id == "s-r"  # identity preserved

    def test_rename_noop_returns_self(self):
        sub = _sub(Predicate.eq("a", 1))
        assert sub.with_renamed_attributes({"z": "y"}) is sub

    def test_rename_preserves_tolerance(self):
        sub = _sub(Predicate.eq("a", 1), max_generality=2)
        assert sub.with_renamed_attributes({"a": "b"}).max_generality == 2


class TestPresentation:
    def test_format(self):
        sub = _sub(Predicate.eq("university", "Toronto"), Predicate.ge("exp", 4))
        assert sub.format() == "(university = Toronto) and (exp >= 4)"

    def test_empty_format(self):
        assert _sub().format() == "(true)"

    def test_iteration(self):
        preds = [Predicate.eq("a", 1), Predicate.eq("b", 2)]
        assert list(_sub(*preds)) == preds
