"""Cross-publication memo invalidation: which subscribe/publish
interleavings must drop cached semantic state.

The counting matcher's *satisfaction memo* is the one matcher memo on
the publish hot path: its per-pair payloads embed subscription state,
so churn MUST drop it, and so must every engine-driven reason.  The
naive matcher keeps no memo; its legs pin the same engine behaviour on
the unfactored expansion path.
"""

from __future__ import annotations

import pytest

from repro.broker.sharding import ShardedEngine
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.knowledge_base import KnowledgeBase


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("PhD", "graduate degree", "degree")
    return kb


def _warm_engine(matcher: str) -> SToPSS:
    engine = SToPSS(_kb(), matcher=matcher)
    engine.subscribe(parse_subscription("(degree = degree)", sub_id="s0"))
    engine.subscribe(parse_subscription("(degree = PhD) and (city = Toronto)", sub_id="s1"))
    engine.publish(parse_event("(degree, PhD)(city, Toronto)"))
    return engine


def _memo_len(engine: SToPSS) -> int:
    return engine.matcher.memo_size()


class TestCountingMemoChurn:
    """The counting memo embeds {sub_id: uses} credits: every churn
    event must invalidate it."""

    def test_publish_warms_the_memo(self):
        engine = _warm_engine("counting")
        assert _memo_len(engine) > 0

    def test_repeat_publication_hits_the_memo(self):
        engine = _warm_engine("counting")
        before = engine.matcher.stats.memo_hits
        engine.publish(parse_event("(degree, PhD)(city, Toronto)"))
        assert engine.matcher.stats.memo_hits > before

    def test_subscribe_invalidates(self):
        engine = _warm_engine("counting")
        engine.subscribe(parse_subscription("(degree exists)", sub_id="late"))
        assert _memo_len(engine) == 0
        assert engine.matcher.stats.memo_invalidations >= 1
        # correctness: the late subscription is seen by the next publish
        matches = engine.publish(parse_event("(degree, PhD)(city, Toronto)"))
        assert "late" in {m.subscription.sub_id for m in matches}

    def test_unsubscribe_invalidates(self):
        engine = _warm_engine("counting")
        engine.unsubscribe("s1")
        assert _memo_len(engine) == 0
        matches = engine.publish(parse_event("(degree, PhD)(city, Toronto)"))
        assert {m.subscription.sub_id for m in matches} == {"s0"}


@pytest.mark.parametrize("matcher", ["counting", "naive"])
class TestChurnResults:
    """Whatever a matcher keeps across publications, results after
    interleaved churn are exactly those of the live subscription set."""

    def test_interleaved_results_stay_exact(self, matcher):
        engine = _warm_engine(matcher)
        engine.unsubscribe("s1")
        matches = engine.publish(parse_event("(degree, PhD)(city, Toronto)"))
        assert {m.subscription.sub_id for m in matches} == {"s0"}
        engine.subscribe(parse_subscription("(degree = PhD) and (city = Toronto)", sub_id="s2"))
        matches = engine.publish(parse_event("(degree, PhD)(city, Toronto)"))
        assert {m.subscription.sub_id for m in matches} == {"s0", "s2"}

    def test_churn_round_trip_leaves_no_memo_behind(self, matcher):
        engine = _warm_engine(matcher)
        engine.subscribe(parse_subscription("(degree = doctorate)", sub_id="late"))
        engine.unsubscribe("late")
        assert _memo_len(engine) == 0
        matches = engine.publish(parse_event("(degree, PhD)(city, Toronto)"))
        assert {m.subscription.sub_id for m in matches} == {"s0", "s1"}


@pytest.mark.parametrize("matcher", ["counting", "naive"])
class TestEngineDrivenInvalidation:
    """Knowledge-base edits, epoch bumps and reconfiguration reach every
    memo."""

    def test_kb_edit_invalidates_memo_and_expansion_follows_the_edit(self, matcher):
        engine = _warm_engine(matcher)
        engine.kb.add_value_synonyms(["PhD", "doctorate"], root="PhD")
        # the next publish resyncs the semantic version before matching
        matches = engine.publish(parse_event("(degree, doctorate)(city, Toronto)"))
        assert "s1" in {m.subscription.sub_id for m in matches}
        if matcher == "counting":  # the naive matcher has no memo to drop
            assert engine.matcher.stats.memo_invalidations >= 1

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded-serial"])
    def test_epoch_bump_after_kb_write_rebinds_interned_keys(self, matcher, sharded):
        """An epoch bump between an ontology write and the next publish
        runs the publish path's own sync, so the matcher is re-keyed for
        a spelling the write taught the concept table (it used to stamp
        the new version without re-keying, and the publish that
        followed saw no move)."""
        kb = KnowledgeBase()
        kb.add_domain("d").add_concept("top")
        if sharded:
            engine = ShardedEngine(kb, shards=2, matcher=matcher)
        else:
            engine = SToPSS(kb, matcher=matcher)
        engine.subscribe(parse_subscription("(x = newterm)", sub_id="s"))
        engine.publish(parse_event("(x, newterm)"))
        kb.taxonomy("d").add_isa("newterm", "top")
        engine.bump_semantic_epoch("test")
        matches = engine.publish(parse_event("(x, newterm)"))
        assert [m.subscription.sub_id for m in matches] == ["s"]

    def test_reconfigure_invalidates(self, matcher):
        engine = _warm_engine(matcher)
        engine.reconfigure(SemanticConfig.syntactic())
        assert _memo_len(engine) == 0
        assert engine.publish(parse_event("(degree, PhD)(city, Toronto)")) != []

    def test_ducktyped_stage_without_flag_counts_as_a_stage(self, matcher):
        expanded = []

        class DuckStage:
            name = "duck"

            class stats:  # minimal StageStats look-alike
                @staticmethod
                def snapshot():
                    return {}

            @staticmethod
            def rewrite_event(event):
                return event, ()

            @staticmethod
            def expand(derived, *, generality_budget=None):
                expanded.append(derived)
                return ()

        engine = SToPSS(_kb(), matcher=matcher, extra_stages=(DuckStage(),))
        assert engine.publish(parse_event("(degree, PhD)")) == []
        ran_once = len(expanded)
        assert ran_once > 0
        engine.subscribe(parse_subscription("(degree exists)", sub_id="s"))
        assert len(engine.publish(parse_event("(degree, PhD)"))) == 1
        assert len(expanded) > ran_once  # and again on the republication
