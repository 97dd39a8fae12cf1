"""Unit tests for the numpy matching backends (repro.matching.vectorized).

The property suites pin backend equivalence end to end; this file pins
the edges that random workloads rarely isolate — registry/config
resolution, compile/rebind/invalidation lifecycles, the scalar-fallback
triggers, batch-plan signature verification (the explain-vs-publish
aliasing hazard), and the kernel counters' journey through stats
merging and the demo summary.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.broker.sharding import ShardedEngine
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.errors import ConfigError, MatchingError
from repro.matching import create_matcher, matcher_names, resolve_backend
from repro.matching.cluster import ClusterMatcher
from repro.matching.counting import CountingMatcher
from repro.matching.vectorized import (
    HAVE_NUMPY,
    VectorizedClusterMatcher,
    VectorizedCountingMatcher,
)
from repro.metrics.aggregate import merge_stats, publish_path_summary
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.knowledge_base import KnowledgeBase

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

VECTORIZED = (VectorizedCountingMatcher, VectorizedClusterMatcher)


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("PhD", "graduate degree", "degree")
    kb.add_value_synonyms(["car", "automobile"])
    return kb


def _engine(matcher="counting", backend="numpy", **overrides) -> SToPSS:
    config = SemanticConfig(matching_backend=backend, **overrides)
    return SToPSS(_kb(), matcher=matcher, config=config)


class TestRegistryAndResolution:
    def test_vectorized_names_registered(self):
        assert {"counting-numpy", "cluster-numpy"} <= set(matcher_names())

    def test_create_by_name(self):
        assert isinstance(create_matcher("counting-numpy"), VectorizedCountingMatcher)
        assert isinstance(create_matcher("cluster-numpy"), VectorizedClusterMatcher)

    def test_resolve_backend(self):
        assert resolve_backend("counting", "numpy") == "counting-numpy"
        assert resolve_backend("cluster", "numpy") == "cluster-numpy"
        # no vectorized variant -> scalar name
        assert resolve_backend("naive", "numpy") == "naive"
        # scalar backend passes through
        assert resolve_backend("counting", "python") == "counting"
        assert resolve_backend("counting", None) == "counting"

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            SemanticConfig(matching_backend="fortran")

    def test_engine_resolves_backend(self):
        assert _engine("counting").matcher.name == "counting-numpy"
        assert _engine("cluster").matcher.name == "cluster-numpy"
        assert _engine("naive").matcher.name == "naive"
        assert _engine("counting", backend="python").matcher.name == "counting"

    def test_interning_off_forces_scalar(self):
        # the kernels key on interned ids; without them the preference
        # degrades rather than running the fallback-heavy path
        engine = _engine("counting", interning=False)
        assert engine.matcher.name == "counting"

    def test_matcher_instance_never_swapped(self):
        instance = CountingMatcher()
        engine = SToPSS(_kb(), matcher=instance, config=SemanticConfig(matching_backend="numpy"))
        assert engine.matcher is instance

    def test_require_numpy_error(self, monkeypatch):
        import repro.matching.vectorized as vectorized

        # not imported yet, and the import fails (a ``None`` entry in
        # sys.modules makes ``import numpy`` raise ImportError)
        monkeypatch.setattr(vectorized, "np", None)
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(MatchingError, match="requires numpy"):
            VectorizedCountingMatcher()

    def test_default_configuration_never_imports_numpy(self):
        """``import repro.broker.broker`` and a default ``Broker(kb)``
        publish leave numpy unimported (16 MB resident and 0.12 s of
        import otherwise, once per forked shard worker too); asking for
        the numpy backend imports it then, and it matches."""
        script = textwrap.dedent(
            """
            import sys
            from repro.broker.broker import Broker
            from repro.core.config import SemanticConfig
            from repro.ontology.domains import build_jobs_knowledge_base

            def publish(**kwargs):
                broker = Broker(build_jobs_knowledge_base(), **kwargs)
                company = broker.register_subscriber("Initech", tcp="initech:9")
                broker.subscribe(company.client_id, "(university = Toronto)")
                candidate = broker.register_publisher("Ada")
                report = broker.publish(candidate.client_id, "(school, Toronto)")
                return broker.engine.matcher.name, report.match_count

            assert "numpy" not in sys.modules, "imported with the package"
            assert publish() == ("counting", 1)
            assert "numpy" not in sys.modules, "imported by the default configuration"
            vectorized = publish(config=SemanticConfig(matching_backend="numpy"))
            assert vectorized == ("counting-numpy", 1), vectorized
            assert "numpy" in sys.modules
            """
        )
        source = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(source), *sys.path]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr


class TestReconfigureSwap:
    def test_backend_swap_preserves_subscriptions(self):
        engine = _engine("counting", backend="python")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        assert engine.matcher.name == "counting"
        engine.reconfigure(SemanticConfig(matching_backend="numpy"))
        assert engine.matcher.name == "counting-numpy"
        assert "s1" in engine
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [m.subscription.sub_id for m in matches] == ["s1"]
        # and back
        engine.reconfigure(SemanticConfig(matching_backend="python"))
        assert engine.matcher.name == "counting"
        assert engine.publish(parse_event("(degree, PhD)"))

    def test_instance_engine_reconfigure_keeps_instance(self):
        instance = ClusterMatcher()
        engine = SToPSS(_kb(), matcher=instance, config=SemanticConfig())
        engine.reconfigure(SemanticConfig(matching_backend="numpy"))
        assert engine.matcher is instance


@pytest.mark.parametrize("matcher_cls", VECTORIZED, ids=lambda c: c.name)
class TestInvalidation:
    def test_churn_drops_compiled_state(self, matcher_cls):
        engine = _engine("counting" if matcher_cls is VectorizedCountingMatcher else "cluster")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        matcher = engine.matcher
        engine.publish(parse_event("(degree, PhD)"))
        assert matcher._batch_plans
        engine.subscribe(parse_subscription("(degree = MSc)", sub_id="s2"))
        assert not matcher._batch_plans
        if matcher_cls is VectorizedCountingMatcher:
            assert matcher._layout is None
            assert not matcher._eq_tables
            assert not matcher._pair_credits
        # a post-churn publish sees the new subscription
        matches = engine.publish(parse_event("(degree, MSc)"))
        assert any(m.subscription.sub_id == "s2" for m in matches)

    def test_engine_reasons_drop_plans(self, matcher_cls):
        matcher = matcher_cls()
        matcher._batch_plans["sig"] = ("sig",)
        matcher.invalidate_memo("kb-version")
        assert not matcher._batch_plans


class TestCountingFallbacks:
    def test_uninterned_value_takes_scalar_path(self):
        engine = _engine("counting")
        engine.subscribe(parse_subscription("(score = 42)", sub_id="s1"))
        # integers are not taxonomy concepts: their canonical keys are
        # tuples, which the searchsorted tables cannot answer
        matches = engine.publish(parse_event("(score, 42)"))
        assert [m.subscription.sub_id for m in matches] == ["s1"]
        assert engine.matcher.stats.extra.get("scalar_fallbacks", 0) > 0

    def test_impure_attribute_takes_scalar_path(self):
        engine = _engine("counting")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        engine.subscribe(parse_subscription("(degree != MSc)", sub_id="s2"))
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert {m.subscription.sub_id for m in matches} == {"s1", "s2"}
        assert engine.matcher.stats.extra.get("scalar_fallbacks", 0) > 0

    def test_unindexed_attribute_is_empty_credit(self):
        engine = _engine("counting")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        matches = engine.publish(parse_event("(degree, PhD)(noise, x)"))
        assert [m.subscription.sub_id for m in matches] == ["s1"]
        # the unindexed pair must not force the scalar probe
        assert engine.matcher.stats.extra.get("scalar_fallbacks", 0) == 0

    def test_universal_subscription_matches_everything(self):
        engine = _engine("counting")
        engine.subscribe(parse_subscription("(degree exists)", sub_id="s1"))
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [m.subscription.sub_id for m in matches] == ["s1"]


@pytest.mark.parametrize("matcher", ["counting", "cluster"])
class TestBatchPlanVerification:
    def test_explain_then_publish_same_root(self, matcher):
        """An exhaustive ``explain`` batch and an interest-pruned
        publish batch share a root signature but differ in content; the
        cached plan must verify the full signature tuple, never alias."""
        scalar = _engine(matcher, backend="python")
        vectorized = _engine(matcher)
        for engine in (scalar, vectorized):
            engine.subscribe(parse_subscription("(degree = degree)", sub_id="s1"))
        event = parse_event("(degree, PhD)")
        for engine in (scalar, vectorized):
            # seed the matcher with the exhaustive batch first
            engine.matcher.match_batch(engine.explain(event))
        expected = {(m.subscription.sub_id, m.generality) for m in scalar.publish(event)}
        observed = {(m.subscription.sub_id, m.generality) for m in vectorized.publish(event)}
        assert observed == expected

    def test_repeat_publish_hits_plan(self, matcher):
        engine = _engine(matcher)
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        event = parse_event("(degree, PhD)")
        first = [(m.subscription.sub_id, m.generality) for m in engine.publish(event)]
        plans_after_first = dict(engine.matcher._batch_plans)
        repeat = [(m.subscription.sub_id, m.generality) for m in engine.publish(event)]
        assert repeat == first
        assert engine.matcher._batch_plans == plans_after_first


class TestKernelCounters:
    def test_vectorized_stats_present(self):
        engine = _engine("counting")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        engine.publish(parse_event("(degree, PhD)"))
        snapshot = engine.matcher.stats.snapshot()
        assert snapshot["vectorized_batches"] >= 1
        assert snapshot["rows_evaluated"] >= 1

    def test_scalar_stats_lack_kernel_keys(self):
        engine = _engine("counting", backend="python")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        engine.publish(parse_event("(degree, PhD)"))
        snapshot = engine.matcher.stats.snapshot()
        assert "vectorized_batches" not in snapshot

    def test_summary_exposes_kernel_fields(self):
        engine = _engine("cluster")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        engine.publish(parse_event("(degree, PhD)"))
        summary = publish_path_summary(engine.stats())
        assert summary["vectorized_batches"] >= 1
        assert 0.0 < summary["vectorized_batch_rate"] <= 1.0

    def test_summary_defaults_for_scalar(self):
        engine = _engine("counting", backend="python")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        engine.publish(parse_event("(degree, PhD)"))
        summary = publish_path_summary(engine.stats())
        assert summary["vectorized_batches"] == 0
        assert summary["vectorized_batch_rate"] == 0.0
        assert summary["scalar_fallbacks"] == 0

    def test_merge_tolerates_mixed_backends(self):
        """A numpy shard and a scalar shard merge without KeyError:
        backend-specific counters sum over the shards that have them."""
        numpy_engine = _engine("counting")
        scalar_engine = _engine("counting", backend="python")
        for engine in (numpy_engine, scalar_engine):
            engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
            engine.publish(parse_event("(degree, PhD)"))
        merged = merge_stats([numpy_engine.stats(), scalar_engine.stats()])
        matcher_stats = merged["matcher_stats"]
        assert matcher_stats["vectorized_batches"] >= 1
        assert merged["matcher"] == "mixed"
        summary = publish_path_summary(merged)
        assert summary["vectorized_batches"] >= 1


class TestShardedBackend:
    def test_per_shard_matchers_reported(self):
        engine = ShardedEngine(
            _kb(), shards=2, matcher="counting", config=SemanticConfig(matching_backend="numpy")
        )
        try:
            info = engine.sharding_info()
            assert info["matchers"] == ["counting-numpy", "counting-numpy"]
        finally:
            engine.close()

    def test_sharded_publish_and_stats_merge(self):
        engine = ShardedEngine(
            _kb(), shards=2, matcher="cluster", config=SemanticConfig(matching_backend="numpy")
        )
        try:
            for index in range(4):
                engine.subscribe(parse_subscription("(degree = PhD)", sub_id=f"s{index}"))
            matches = engine.publish(parse_event("(degree, PhD)"))
            assert [m.subscription.sub_id for m in matches] == [f"s{index}" for index in range(4)]
            merged = engine.stats()
            assert merged["matcher_stats"]["vectorized_batches"] >= 2
        finally:
            engine.close()
