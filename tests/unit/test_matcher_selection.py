"""Choosing a matcher: by name or by instance, and nothing else.

Two matchers ship — ``counting`` (the default, the fast one) and
``naive`` (the reference) — and any third-party
:class:`~repro.matching.base.MatchingAlgorithm` can be passed as an
instance.  This file pins the edges of that choice the property suites
rarely isolate: the configuration has no field that could pick a
matcher, the matcher an engine was built with is never swapped
(interning on or off, across reconfigures), an exhaustive ``explain``
batch fed to the matcher cannot leak into the next publish, the
publish-path summary has the same columns whichever matcher ran, and a
sharded engine builds one replica of the named matcher per shard.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.broker.sharding import ShardedEngine
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.matching import create_matcher, matcher_names
from repro.metrics.aggregate import merge_stats, publish_path_summary
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.knowledge_base import KnowledgeBase

from tests.third_party import MATCHERS, ScanMatcher, matcher_arg

_INTERNING = pytest.mark.parametrize("interning", [True, False], ids=["interned", "strings"])


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("PhD", "graduate degree", "degree")
    kb.add_value_synonyms(["car", "automobile"])
    return kb


def _matches(engine, text: str) -> list[tuple[str, int]]:
    return [(m.subscription.sub_id, m.generality) for m in engine.publish(parse_event(text))]


def _instance(name: str):
    return create_matcher(name) if name in matcher_names() else ScanMatcher()


def _subscribed(engine):
    engine.subscribe(parse_subscription("(degree = degree)", sub_id="s1"))
    engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s2"))
    return engine


class TestResolution:
    def test_config_has_no_matcher_field(self):
        """A matcher is chosen by name or instance at construction; the
        configuration has no field that could pick one."""
        fields = {field.name for field in dataclasses.fields(SemanticConfig)}
        assert not {name for name in fields if "matcher" in name or "backend" in name}
        with pytest.raises(TypeError, match="matcher"):
            SemanticConfig(matcher="naive")

    @pytest.mark.parametrize("name", matcher_names())
    def test_engine_builds_the_named_matcher(self, name):
        engine = SToPSS(_kb(), matcher=name)
        assert type(engine.matcher) is type(create_matcher(name))
        assert engine.matcher.name == engine.stats()["matcher"] == name

    @pytest.mark.parametrize("name", matcher_names())
    @_INTERNING
    def test_interning_setting_keeps_the_named_matcher(self, name, interning):
        """With interning on or off the named matcher runs — nothing
        degrades to another matcher — and reports the same matches."""
        config = SemanticConfig(interning=interning)
        engine = _subscribed(SToPSS(_kb(), matcher=name, config=config))
        assert engine.matcher.name == name
        assert sorted(_matches(engine, "(degree, PhD)")) == [("s1", 2), ("s2", 0)]

    @pytest.mark.parametrize("name", MATCHERS)
    @_INTERNING
    def test_matcher_instance_never_swapped(self, name, interning):
        instance = _instance(name)
        engine = SToPSS(_kb(), matcher=instance, config=SemanticConfig(interning=interning))
        assert engine.matcher is instance
        assert engine.stats()["matcher"] == name


class TestReconfigure:
    @pytest.mark.parametrize("name", matcher_names())
    def test_reconfigure_resets_the_same_matcher(self, name):
        """A reconfigure has one path: the matcher chosen by name at
        construction is reset in place, whatever the new config says."""
        engine = SToPSS(_kb(), matcher=name)
        matcher = engine.matcher
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s1"))
        for config in (
            SemanticConfig(interning=False),
            SemanticConfig.syntactic(),
            SemanticConfig(),
        ):
            engine.reconfigure(config)
            assert engine.matcher is matcher
            assert "s1" in engine
        assert _matches(engine, "(degree, PhD)") == [("s1", 2)]

    @pytest.mark.parametrize("name", MATCHERS)
    def test_instance_survives_reconfigure(self, name):
        """An instance — shipped class or unregistered — survives
        reconfigure (the engine never looks a matcher up again) and
        matches under the new configuration."""
        instance = _instance(name)
        engine = SToPSS(_kb(), matcher=instance)
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s1"))
        engine.reconfigure(SemanticConfig.syntactic())
        assert engine.matcher is instance
        assert _matches(engine, "(degree, PhD)") == []
        engine.reconfigure(SemanticConfig())
        assert engine.matcher is instance
        assert _matches(engine, "(degree, PhD)") == [("s1", 2)]


@pytest.mark.parametrize("name", matcher_names())
def test_explain_batch_does_not_leak_into_publish(name):
    """An exhaustive ``explain`` batch and an interest-pruned (on the
    counting matcher, factored) publish batch share a root event but
    differ in content: whatever the matcher keeps from the first may not
    change what the second reports."""
    seeded = _subscribed(SToPSS(_kb(), matcher=name))
    fresh = _subscribed(SToPSS(_kb(), matcher=name))
    text = "(degree, PhD)(car, automobile)"
    seeded.matcher.match_batch(seeded.explain(parse_event(text)))
    assert _matches(seeded, text) == _matches(fresh, text)


class TestSummary:
    def test_summary_columns_are_matcher_neutral(self):
        """Every matcher renders the same publish-path columns (the demo
        table reads them by key), and no kernel-specific column is
        left."""
        summaries = []
        for name in MATCHERS:
            engine = _subscribed(SToPSS(_kb(), matcher=matcher_arg(name)))
            engine.publish(parse_event("(degree, PhD)"))
            summaries.append(publish_path_summary(engine.stats()))
        columns = {frozenset(summary) for summary in summaries}
        assert len(columns) == 1
        assert all(summary["batches"] == 1 for summary in summaries)
        assert not {"vectorized_batches", "vectorized_batch_rate", "rows_evaluated"} & set(
            summaries[0]
        )

    def test_two_matchers_merge_to_mixed(self):
        """Snapshots of engines on different matchers merge without
        error: the name reads ``mixed`` and the shared counters sum."""
        snapshots = []
        for name in matcher_names():
            engine = _subscribed(SToPSS(_kb(), matcher=name))
            engine.publish(parse_event("(degree, PhD)"))
            snapshots.append(engine.stats())
        merged = merge_stats(snapshots)
        assert merged["matcher"] == "mixed"
        assert merged["matcher_stats"]["batches"] == len(snapshots)
        assert publish_path_summary(merged)["batches"] == len(snapshots)


@pytest.mark.parametrize("name", matcher_names())
class TestSharded:
    def test_every_shard_builds_the_named_matcher(self, name):
        engine = ShardedEngine(_kb(), shards=2, matcher=name)
        try:
            assert engine.sharding_info()["matchers"] == [name, name]
            assert len({id(replica.matcher) for replica in engine.engines}) == 2
        finally:
            engine.close()

    def test_sharded_publish_and_stats_merge(self, name):
        engine = ShardedEngine(_kb(), shards=2, matcher=name)
        try:
            for index in range(4):
                engine.subscribe(parse_subscription("(degree = PhD)", sub_id=f"s{index}"))
            assert _matches(engine, "(degree, PhD)") == [(f"s{index}", 0) for index in range(4)]
            merged = engine.stats()
            per_shard = merged["sharding"]["shard_stats"]
            assert merged["matcher"] == name
            assert merged["matcher_stats"]["batches"] == sum(
                shard["matcher_stats"]["batches"] for shard in per_shard
            )
            assert merged["matcher_stats"]["batches"] >= 1
        finally:
            engine.close()
