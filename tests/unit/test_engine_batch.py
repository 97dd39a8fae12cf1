"""Unit tests for the batched publish path: republication behavior,
matcher-instance preservation across ``reconfigure``, and the batch
counters surfaced through engine/dispatcher stats."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.broker.broker import Broker
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.matching import CountingMatcher, MatchingAlgorithm, matcher_names
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_attribute_synonyms(["school"], root="university")
    kb.add_domain("jobs").add_chain("PhD", "graduate degree", "degree")
    kb.add_rule(
        MappingRule.computed(
            "exp", "professional_experience", "present_year - graduation_year"
        )
    )
    return kb


@pytest.fixture
def engine() -> SToPSS:
    return SToPSS(_kb(), config=SemanticConfig(present_year=2003))


def _pairs(matches):
    return [(m.subscription.sub_id, m.generality) for m in matches]


_PRUNING = pytest.mark.parametrize("pruning", [True, False], ids=["pruned", "full"])


@pytest.mark.parametrize("matcher", matcher_names())
class TestRepublish:
    """The engine keeps nothing between publications, so a republished
    event is simply expanded and matched again against whatever the
    subscription table, knowledge base and configuration are *now* —
    whether a counting memo sits under it or not."""

    @pytest.fixture
    def engine(self, matcher) -> SToPSS:
        return SToPSS(_kb(), matcher=matcher, config=SemanticConfig(present_year=2003))

    def test_repeat_publication_matches_the_same(self, engine):
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s"))
        first = engine.publish(parse_event("(degree, PhD)"))
        second = engine.publish(parse_event("(degree, PhD)"))
        assert _pairs(first) == _pairs(second) == [("s", 2)]

    def test_same_content_different_id_matches_the_same(self, engine):
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s"))
        first = engine.publish(parse_event("(degree, PhD)", event_id="a"))
        second = engine.publish(parse_event("(degree, PhD)", event_id="b"))
        assert _pairs(first) == _pairs(second) == [("s", 2)]
        assert [m.event.event_id for m in first + second] == ["a", "b"]

    @_PRUNING
    def test_late_subscription_matches_republished_event(self, matcher, pruning):
        # demand-driven expansion prunes against the live interest set:
        # the first publication (nobody subscribed) derives nothing the
        # late subscription needs, the republication must.
        engine = SToPSS(
            _kb(),
            matcher=matcher,
            config=SemanticConfig(present_year=2003, interest_pruning=pruning),
        )
        assert engine.publish(parse_event("(degree, PhD)")) == []
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="late"))
        assert _pairs(engine.publish(parse_event("(degree, PhD)"))) == [("late", 2)]

    @_PRUNING
    def test_unsubscribed_is_not_matched_on_republish(self, matcher, pruning):
        engine = SToPSS(
            _kb(),
            matcher=matcher,
            config=SemanticConfig(present_year=2003, interest_pruning=pruning),
        )
        engine.subscribe(parse_subscription("(degree exists)", sub_id="s"))
        assert _pairs(engine.publish(parse_event("(degree, PhD)"))) == [("s", 0)]
        engine.unsubscribe("s")
        assert engine.publish(parse_event("(degree, PhD)")) == []

    def test_reconfigure_is_not_served_stale(self, engine):
        engine.subscribe(parse_subscription("(university = Toronto)", sub_id="s"))
        event = parse_event("(school, Toronto)")
        assert len(engine.publish(event)) == 1  # synonym rewrite
        engine.reconfigure(SemanticConfig.syntactic())
        assert engine.publish(event) == []  # stale expansion would still match

    def test_kb_write_is_not_served_stale(self, engine):
        engine.subscribe(parse_subscription("(degree = doctorate)", sub_id="s"))
        event = parse_event("(degree, PhD)")
        assert engine.publish(event) == []  # 'doctorate' unknown so far
        engine.kb.add_value_synonyms(["PhD", "doctorate"], root="doctorate")
        matches = engine.publish(event)  # same content: must not be served stale
        assert [m.subscription.sub_id for m in matches] == ["s"]

    def test_publication_leaves_no_result_behind(self, engine):
        """No object reachable from an engine holds a publication's
        ``PipelineResult`` once the caller has dropped the match list."""
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s"))
        process_event = engine.pipeline.process_event
        results = []

        def recording(event, **kwargs):
            result = process_event(event, **kwargs)
            results.append(weakref.ref(result))
            return result

        engine.pipeline.process_event = recording
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [m.subscription.sub_id for m in matches] == ["s"]
        del matches
        gc.collect()
        assert len(results) == 1 and results[0]() is None

    def test_broker_serves_the_repeat_from_the_result_cache(self, matcher):
        """The one repeat cache that remains: through a ``Broker`` the
        second publication of a content stores its match set, and the
        third does not reach the engine."""
        broker = Broker(_kb(), matcher=matcher, config=SemanticConfig(present_year=2003))
        subscriber = broker.register_subscriber("acme", email="a@example.com")
        subscription = parse_subscription("(degree = degree)", sub_id="s")
        broker.subscribe(subscriber.client_id, subscription)
        publisher = broker.register_publisher("ada")
        broker.publish(publisher.client_id, "(degree, PhD)")  # a first sighting stores nothing
        first = broker.publish(publisher.client_id, "(degree, PhD)")
        second = broker.publish(publisher.client_id, "(degree, PhD)")
        assert _pairs(first.matches) == _pairs(second.matches) == [("s", 2)]
        stats = broker.dispatcher.stats()
        assert stats["publications"] == 3
        assert stats["engine"]["publications"] == 2
        assert stats["result_cache"]["hits"] == 1


class TestReconfigureMatcherInstance:
    def test_instance_preserved(self):
        matcher = CountingMatcher()
        engine = SToPSS(_kb(), matcher=matcher, config=SemanticConfig(present_year=2003))
        engine.subscribe(parse_subscription("(school = Toronto)", sub_id="s"))
        engine.reconfigure(SemanticConfig.syntactic())
        assert engine.matcher is matcher
        engine.reconfigure(SemanticConfig(present_year=2003))
        assert engine.matcher is matcher
        assert len(engine.publish(parse_event("(school, Toronto)"))) == 1

    def test_unregistered_instance_survives(self):
        class LocalMatcher(CountingMatcher):
            name = "local-unregistered"

        matcher = LocalMatcher()
        engine = SToPSS(_kb(), matcher=matcher, config=SemanticConfig(present_year=2003))
        engine.subscribe(parse_subscription("(university = Toronto)", sub_id="s"))
        engine.reconfigure(SemanticConfig.syntactic())  # must not hit the registry
        assert engine.matcher is matcher
        assert engine.publish(parse_event("(school, Toronto)")) == []
        engine.reconfigure(SemanticConfig(present_year=2003))
        assert len(engine.publish(parse_event("(school, Toronto)"))) == 1


    def test_failed_rebuild_restores_old_state(self):
        class PickyMatcher(CountingMatcher):
            # rejects non-root 'school' forms: under the semantic
            # config roots arrive rewritten to 'university', but a
            # switch to syntactic re-inserts the raw subscription.
            name = "picky"

            def _on_insert(self, subscription):
                if "school" in subscription.attributes():
                    raise RuntimeError("refused 'school'")
                super()._on_insert(subscription)

        matcher = PickyMatcher()
        engine = SToPSS(_kb(), matcher=matcher, config=SemanticConfig(present_year=2003))
        engine.subscribe(parse_subscription("(school = Toronto)", sub_id="s"))
        with pytest.raises(RuntimeError):
            engine.reconfigure(SemanticConfig.syntactic())
        # the engine must still be fully functional on the old config
        assert engine.mode == "semantic"
        assert len(engine.publish(parse_event("(school, Toronto)"))) == 1


class TestBatchFallback:
    def test_custom_matcher_without_batch_override(self):
        class MinimalMatcher(MatchingAlgorithm):
            name = "minimal"

            def _match(self, event):
                return [
                    subscription
                    for _, subscription in self._subscriptions.values()
                    if all(
                        predicate.attribute in event
                        and predicate.evaluate(event[predicate.attribute])
                        for predicate in subscription.predicates
                    )
                ]

        engine = SToPSS(_kb(), matcher=MinimalMatcher(), config=SemanticConfig(present_year=2003))
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s"))
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [(m.subscription.sub_id, m.generality) for m in matches] == [("s", 2)]
        assert engine.matcher.stats.batches == 1


class TestBatchCounters:
    def test_engine_stats_shape(self, engine):
        engine.subscribe(parse_subscription("(degree exists)", sub_id="s"))
        engine.publish(parse_event("(degree, PhD)"))
        stats = engine.stats()
        assert stats["matcher_stats"]["batches"] == 1
        assert "probes_saved" in stats["matcher_stats"]
        assert stats["derived_events"] >= 1
        histogram = stats["derived_histogram"]
        assert sum(histogram.values()) == 1
        assert all(isinstance(bucket, int) for bucket in histogram)

    def test_counting_looks_each_distinct_pair_up_once(self, engine):
        # one event, 'degree' free with three alternatives beside the
        # 'other' pair: the batch costs one memo lookup per *distinct*
        # pair, and a republication of the same content is all hits.
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s"))
        process_event = engine.pipeline.process_event
        batches = []

        def recording(event, **kwargs):
            batches.append(process_event(event, **kwargs))
            return batches[-1]

        engine.pipeline.process_event = recording
        stats = engine.matcher.stats
        engine.publish(parse_event("(degree, PhD)(other, 1)"))
        distinct = batches[0].distinct_pairs()
        assert batches[0].materialized() == 3 and distinct == 4
        assert stats.memo_hits + stats.memo_misses == distinct
        assert stats.index_probes <= distinct
        assert stats.probes_saved == stats.memo_hits == 0
        engine.publish(parse_event("(degree, PhD)(other, 1)"))
        assert batches[1].distinct_pairs() == distinct
        assert (stats.memo_hits, stats.memo_misses) == (distinct, distinct)
        assert stats.probes_saved == distinct

    def test_dispatcher_surfaces_batch_stats(self):
        broker = Broker(_kb(), config=SemanticConfig(present_year=2003))
        subscriber = broker.register_subscriber("acme", email="a@example.com")
        broker.subscribe(subscriber.client_id, "(degree = degree)")
        publisher = broker.register_publisher("ada")
        broker.publish(publisher.client_id, "(degree, PhD)")
        stats = broker.dispatcher.stats()
        assert stats["batches"] == 1
        assert "probes_saved" in stats and "result_cache_hit_rate" in stats
        assert stats["derived_events"] >= 1
