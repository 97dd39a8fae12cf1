"""Unit tests for the numpy cluster matcher (repro.matching.vectorized).

The property suites pin ``cluster`` ≡ ``cluster-numpy`` end to end;
this file pins the edges that random workloads rarely isolate — the
registry name, the lazy numpy import, the one reconfigure path,
compile/invalidation lifecycles, batch-plan signature verification (the
explain-vs-publish aliasing hazard), and the kernel counters' journey
through stats merging and the demo summary.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.broker.sharding import ShardedEngine
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.errors import MatchingError
from repro.matching import create_matcher, matcher_names
from repro.matching.cluster import ClusterMatcher
from repro.matching.vectorized import HAVE_NUMPY, VectorizedClusterMatcher
from repro.metrics.aggregate import merge_stats, publish_path_summary
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.knowledge_base import KnowledgeBase

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("PhD", "graduate degree", "degree")
    kb.add_value_synonyms(["car", "automobile"])
    return kb


def _engine(matcher="cluster-numpy", **overrides) -> SToPSS:
    return SToPSS(_kb(), matcher=matcher, config=SemanticConfig(**overrides))


def _run_script(script: str) -> None:
    source = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(source), *sys.path]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _matches(engine, text: str) -> list[tuple[str, int]]:
    return [(m.subscription.sub_id, m.generality) for m in engine.publish(parse_event(text))]


class TestRegistryAndResolution:
    def test_vectorized_names_registered(self):
        names = set(matcher_names())
        assert "cluster-numpy" in names
        assert "counting-numpy" not in names

    def test_create_by_name(self):
        assert isinstance(create_matcher("cluster-numpy"), VectorizedClusterMatcher)
        assert _engine().matcher.name == "cluster-numpy"

    def test_retired_name_is_unknown(self):
        with pytest.raises(MatchingError, match="unknown matcher 'counting-numpy'"):
            create_matcher("counting-numpy")
        with pytest.raises(MatchingError, match="unknown matcher 'counting-numpy'"):
            _engine("counting-numpy")

    def test_config_has_no_backend_field(self):
        """A kernel is chosen by matcher name; the configuration has no
        field that could pick one."""
        assert "matching_backend" not in {f.name for f in dataclasses.fields(SemanticConfig)}
        with pytest.raises(TypeError, match="matching_backend"):
            SemanticConfig(matching_backend="numpy")

    def test_interning_off_keeps_named_kernel(self):
        """Without interning the named kernel still runs — nothing
        degrades to a scalar matcher — and it agrees with ``cluster``."""
        vectorized = _engine(interning=False)
        scalar = _engine("cluster", interning=False)
        assert vectorized.matcher.name == "cluster-numpy"
        for engine in (vectorized, scalar):
            engine.subscribe(parse_subscription("(degree = degree)", sub_id="s1"))
            engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s2"))
        observed = _matches(vectorized, "(degree, PhD)")
        assert observed == _matches(scalar, "(degree, PhD)")
        assert sorted(observed) == [("s1", 2), ("s2", 0)]
        assert vectorized.matcher.stats.snapshot()["vectorized_batches"] >= 1

    def test_matcher_instance_never_swapped(self):
        for config in (SemanticConfig(), SemanticConfig(interning=False)):
            instance = VectorizedClusterMatcher()
            engine = SToPSS(_kb(), matcher=instance, config=config)
            assert engine.matcher is instance

    def test_require_numpy_error(self, monkeypatch):
        import repro.matching.vectorized as vectorized

        # not imported yet, and the import fails (a ``None`` entry in
        # sys.modules makes ``import numpy`` raise ImportError)
        monkeypatch.setattr(vectorized, "np", None)
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(MatchingError, match="requires numpy"):
            VectorizedClusterMatcher()

    def test_default_configuration_never_imports_numpy(self):
        """``import repro.broker.broker`` and a default ``Broker(kb)``
        publish leave numpy unimported (16 MB resident and 0.12 s of
        import otherwise, once per forked shard worker too); asking for
        ``matcher="cluster-numpy"`` imports it then, and it matches."""
        _run_script(
            """
            import sys
            from repro.broker.broker import Broker
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
            vectorized = publish(matcher="cluster-numpy")
            assert vectorized == ("cluster-numpy", 1), vectorized
            assert "numpy" in sys.modules
            """
        )

    def test_unregistered_without_numpy(self):
        """With numpy unimportable the package still imports, the name
        is simply absent, and asking for it is the unknown-name error."""
        _run_script(
            """
            import sys
            sys.modules["numpy"] = None  # makes ``import numpy`` raise
            from repro.core.engine import SToPSS
            from repro.errors import MatchingError
            from repro.matching import HAVE_NUMPY, matcher_names
            from repro.ontology.knowledge_base import KnowledgeBase

            assert not HAVE_NUMPY
            assert matcher_names() == ("cluster", "counting", "naive"), matcher_names()
            try:
                SToPSS(KnowledgeBase(), matcher="cluster-numpy")
            except MatchingError as error:
                assert "unknown matcher 'cluster-numpy'" in str(error), error
            else:
                raise AssertionError("cluster-numpy constructed without numpy")
            """
        )


class TestReconfigure:
    def test_reconfigure_resets_the_same_matcher(self):
        """A reconfigure has one path: the matcher chosen by name at
        construction is reset in place, whatever the new config says."""
        engine = _engine()
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

    def test_instance_engine_reconfigure_keeps_instance(self):
        """An unregistered instance survives reconfigure (the engine
        never looks a matcher up again) and matches under the new
        configuration."""
        instance = ClusterMatcher()
        engine = SToPSS(_kb(), matcher=instance, config=SemanticConfig())
        engine.subscribe(parse_subscription("(degree = degree)", sub_id="s1"))
        engine.reconfigure(SemanticConfig.syntactic())
        assert engine.matcher is instance
        assert _matches(engine, "(degree, PhD)") == []
        engine.reconfigure(SemanticConfig())
        assert engine.matcher is instance
        assert _matches(engine, "(degree, PhD)") == [("s1", 2)]


class TestInvalidation:
    def test_churn_drops_compiled_state(self):
        engine = _engine()
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        matcher = engine.matcher
        engine.publish(parse_event("(degree, PhD)"))
        assert matcher._batch_plans
        engine.subscribe(parse_subscription("(degree = MSc)", sub_id="s2"))
        assert not matcher._batch_plans
        # a post-churn publish sees the new subscription
        matches = engine.publish(parse_event("(degree, MSc)"))
        assert any(m.subscription.sub_id == "s2" for m in matches)

    def test_engine_reasons_drop_plans(self):
        matcher = VectorizedClusterMatcher()
        matcher._batch_plans["sig"] = ("sig",)
        matcher.invalidate_memo("kb-version")
        assert not matcher._batch_plans


class TestScanPool:
    def test_universal_subscription_matches_everything(self):
        engine = _engine()
        engine.subscribe(parse_subscription("(degree exists)", sub_id="s1"))
        matches = engine.publish(parse_event("(degree, PhD)"))
        assert [m.subscription.sub_id for m in matches] == ["s1"]


class TestBatchPlanVerification:
    @pytest.mark.parametrize("matcher", ["counting", "cluster"])
    def test_explain_then_publish_same_root(self, matcher):
        """An exhaustive ``explain`` batch and an interest-pruned
        publish batch share a root signature but differ in content; the
        cached plan must verify the full signature tuple, never alias —
        checked against either scalar kernel."""
        scalar = _engine(matcher)
        vectorized = _engine()
        for engine in (scalar, vectorized):
            engine.subscribe(parse_subscription("(degree = degree)", sub_id="s1"))
        event = parse_event("(degree, PhD)")
        for engine in (scalar, vectorized):
            # seed the matcher with the exhaustive batch first
            engine.matcher.match_batch(engine.explain(event))
        expected = {(m.subscription.sub_id, m.generality) for m in scalar.publish(event)}
        observed = {(m.subscription.sub_id, m.generality) for m in vectorized.publish(event)}
        assert observed == expected

    def test_repeat_publish_hits_plan(self):
        engine = _engine()
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        event = parse_event("(degree, PhD)")
        first = [(m.subscription.sub_id, m.generality) for m in engine.publish(event)]
        plans_after_first = dict(engine.matcher._batch_plans)
        repeat = [(m.subscription.sub_id, m.generality) for m in engine.publish(event)]
        assert repeat == first
        assert engine.matcher._batch_plans == plans_after_first


class TestKernelCounters:
    def test_vectorized_stats_present(self):
        engine = _engine()
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        engine.publish(parse_event("(degree, PhD)"))
        snapshot = engine.matcher.stats.snapshot()
        assert snapshot["vectorized_batches"] >= 1
        assert snapshot["rows_evaluated"] >= 1

    def test_scalar_stats_lack_kernel_keys(self):
        engine = _engine("counting")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        engine.publish(parse_event("(degree, PhD)"))
        snapshot = engine.matcher.stats.snapshot()
        assert "vectorized_batches" not in snapshot

    def test_summary_exposes_kernel_fields(self):
        engine = _engine()
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        engine.publish(parse_event("(degree, PhD)"))
        summary = publish_path_summary(engine.stats())
        assert summary["vectorized_batches"] >= 1
        assert 0.0 < summary["vectorized_batch_rate"] <= 1.0

    def test_summary_defaults_for_scalar(self):
        engine = _engine("counting")
        engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
        engine.publish(parse_event("(degree, PhD)"))
        summary = publish_path_summary(engine.stats())
        assert summary["vectorized_batches"] == 0
        assert summary["vectorized_batch_rate"] == 0.0

    def test_summary_keys_are_kernel_neutral(self):
        """Every kernel renders the same summary columns (the demo
        table reads them by key); no scalar-fallback counter remains."""
        summaries = []
        for matcher in ("cluster-numpy", "counting"):
            engine = _engine(matcher)
            engine.subscribe(parse_subscription("(degree = PhD)", sub_id="s1"))
            engine.publish(parse_event("(degree, PhD)"))
            summaries.append(publish_path_summary(engine.stats()))
        vectorized, scalar = summaries
        assert set(vectorized) == set(scalar)
        assert "scalar_fallbacks" not in vectorized

    def test_merge_tolerates_mixed_backends(self):
        """A numpy shard and a scalar shard merge without KeyError:
        kernel-specific counters sum over the shards that have them."""
        numpy_engine = _engine()
        scalar_engine = _engine("cluster")
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
        engine = ShardedEngine(_kb(), shards=2, matcher="cluster-numpy")
        try:
            info = engine.sharding_info()
            assert info["matchers"] == ["cluster-numpy", "cluster-numpy"]
        finally:
            engine.close()

    def test_sharded_publish_and_stats_merge(self):
        engine = ShardedEngine(_kb(), shards=2, matcher="cluster-numpy")
        try:
            for index in range(4):
                engine.subscribe(parse_subscription("(degree = PhD)", sub_id=f"s{index}"))
            matches = engine.publish(parse_event("(degree, PhD)"))
            assert [m.subscription.sub_id for m in matches] == [f"s{index}" for index in range(4)]
            merged = engine.stats()
            assert merged["matcher_stats"]["vectorized_batches"] >= 2
        finally:
            engine.close()
