"""Unit tests for repro.matching.base (interface contract, registry).

The contract classes run on both shipped matchers and on a third-party
scan matcher that only implements ``_match``."""

from __future__ import annotations

import pytest

from repro.core.engine import SToPSS
from repro.errors import (
    DuplicateSubscriptionError,
    MatchingError,
    UnknownSubscriptionError,
)
from repro.matching import (
    CountingMatcher,
    NaiveMatcher,
    create_matcher,
    matcher_names,
    register_matcher,
)
from repro.matching import base as matching_base
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.parser import parse_event, parse_subscription
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase

from tests.third_party import ScanMatcher

ALL_MATCHERS = (NaiveMatcher, CountingMatcher, ScanMatcher)


def _sub(sub_id: str, *preds) -> Subscription:
    return Subscription(list(preds), sub_id=sub_id)


class TestRegistry:
    def test_builtins_registered(self):
        """Two matchers ship, whether or not numpy is installed: the
        fast one and the reference."""
        assert matcher_names() == ("counting", "naive")

    def test_create(self):
        assert isinstance(create_matcher("naive"), NaiveMatcher)
        assert isinstance(create_matcher("counting"), CountingMatcher)

    @pytest.mark.parametrize("name", ["cluster", "cluster-numpy", "counting-numpy"])
    def test_deleted_matchers_are_unknown_names(self, name):
        with pytest.raises(MatchingError, match=r"\(known: counting, naive\)$"):
            create_matcher(name)

    def test_unknown_name(self):
        with pytest.raises(MatchingError):
            create_matcher("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(MatchingError):
            register_matcher("naive", NaiveMatcher)

    def test_registered_third_party_matcher_runs_by_name(self, monkeypatch):
        """A registered factory is a name like the shipped ones: listed,
        created fresh per call, and accepted by the engine."""
        monkeypatch.setattr(matching_base, "_REGISTRY", dict(matching_base._REGISTRY))
        register_matcher("scan", ScanMatcher)
        assert matcher_names() == ("counting", "naive", "scan")
        assert create_matcher("scan") is not create_matcher("scan")
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("PhD", "degree")
        engine = SToPSS(kb, matcher="scan")
        assert isinstance(engine.matcher, ScanMatcher)
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s"))
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [(m.subscription.sub_id, m.generality) for m in matches] == [("s", 1)]


@pytest.mark.parametrize("matcher_cls", ALL_MATCHERS, ids=lambda c: c.name)
class TestTableContract:
    def test_insert_remove_len(self, matcher_cls):
        matcher = matcher_cls()
        sub = _sub("s1", Predicate.eq("a", 1))
        matcher.insert(sub)
        assert len(matcher) == 1 and "s1" in matcher
        assert matcher.get("s1") is sub
        removed = matcher.remove("s1")
        assert removed is sub and len(matcher) == 0

    def test_duplicate_insert_rejected(self, matcher_cls):
        matcher = matcher_cls()
        matcher.insert(_sub("s1", Predicate.eq("a", 1)))
        with pytest.raises(DuplicateSubscriptionError):
            matcher.insert(_sub("s1", Predicate.eq("b", 2)))

    def test_unknown_remove_rejected(self, matcher_cls):
        with pytest.raises(UnknownSubscriptionError):
            matcher_cls().remove("ghost")

    def test_unknown_get_rejected(self, matcher_cls):
        with pytest.raises(UnknownSubscriptionError):
            matcher_cls().get("ghost")

    def test_subscriptions_in_insertion_order(self, matcher_cls):
        matcher = matcher_cls()
        for i in range(5):
            matcher.insert(_sub(f"s{i}", Predicate.eq("a", i)))
        assert [s.sub_id for s in matcher.subscriptions()] == [f"s{i}" for i in range(5)]

    def test_clear(self, matcher_cls):
        matcher = matcher_cls()
        for i in range(3):
            matcher.insert(_sub(f"s{i}", Predicate.eq("a", i)))
        matcher.clear()
        assert len(matcher) == 0
        assert matcher.match(Event({"a": 1})) == []


@pytest.mark.parametrize("matcher_cls", ALL_MATCHERS, ids=lambda c: c.name)
class TestMatchingContract:
    def test_match_order_is_insertion_order(self, matcher_cls):
        matcher = matcher_cls()
        for sub_id in ("z", "a", "m"):
            matcher.insert(_sub(sub_id, Predicate.eq("k", 1)))
        assert matcher.match_ids(Event({"k": 1})) == ["z", "a", "m"]

    def test_empty_subscription_matches_all(self, matcher_cls):
        matcher = matcher_cls()
        matcher.insert(_sub("firehose"))
        assert matcher.match_ids(Event({"anything": 1})) == ["firehose"]
        assert matcher.match_ids(Event({})) == ["firehose"]

    def test_no_subscriptions_no_matches(self, matcher_cls):
        assert matcher_cls().match(Event({"a": 1})) == []

    def test_conjunction_semantics(self, matcher_cls):
        matcher = matcher_cls()
        matcher.insert(_sub("s", Predicate.eq("a", 1), Predicate.ge("b", 5)))
        assert matcher.match_ids(Event({"a": 1, "b": 9})) == ["s"]
        assert matcher.match_ids(Event({"a": 1, "b": 1})) == []
        assert matcher.match_ids(Event({"a": 1})) == []

    def test_removed_subscription_stops_matching(self, matcher_cls):
        matcher = matcher_cls()
        matcher.insert(_sub("s1", Predicate.eq("a", 1)))
        matcher.insert(_sub("s2", Predicate.eq("a", 1)))
        matcher.remove("s1")
        assert matcher.match_ids(Event({"a": 1})) == ["s2"]

    def test_reinsert_after_remove(self, matcher_cls):
        matcher = matcher_cls()
        matcher.insert(_sub("s1", Predicate.eq("a", 1)))
        matcher.remove("s1")
        matcher.insert(_sub("s1", Predicate.eq("a", 2)))
        assert matcher.match_ids(Event({"a": 2})) == ["s1"]
        assert matcher.match_ids(Event({"a": 1})) == []

    def test_shared_predicates_count_per_subscription(self, matcher_cls):
        matcher = matcher_cls()
        shared = Predicate.eq("a", 1)
        matcher.insert(_sub("s1", shared, Predicate.eq("b", 2)))
        matcher.insert(_sub("s2", shared))
        assert matcher.match_ids(Event({"a": 1})) == ["s2"]
        assert matcher.match_ids(Event({"a": 1, "b": 2})) == ["s1", "s2"]

    def test_stats_track_activity(self, matcher_cls):
        matcher = matcher_cls()
        matcher.insert(_sub("s", Predicate.eq("a", 1)))
        matcher.match(Event({"a": 1}))
        snap = matcher.stats.snapshot()
        assert snap["events"] == 1
        assert snap["matches"] == 1
        assert snap["inserts"] == 1
