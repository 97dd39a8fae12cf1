"""Unit coverage for the sharded broker layer (PR 5).

The equivalence property suite pins sharded ≡ single-engine behavior
wholesale; these tests pin the routing and plumbing edges individually:
unsubscribe landing on the owning shard, per-subscription tolerance
bounds surviving the merge, empty-shard publishes, the single-shard
degenerate path, reconfigure rollback, epoch fan-out, and the merged
stats shape the CLI prints.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time

import pytest

from repro.broker.sharding import (
    DEFAULT_REQUEST_TIMEOUT,
    ShardedBroker,
    ShardedEngine,
    _ProcessDataPlane,
    default_router,
)
from repro.broker import supervision
from repro.broker.supervision import DATA_PLANE_FAULT_KINDS, FaultAction, FaultPlan
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.errors import (
    BrokerError,
    ConfigError,
    DuplicateSubscriptionError,
    MatchingError,
    UnknownSubscriptionError,
)
from repro.matching.base import create_matcher
from repro.metrics.aggregate import merge_stats, publish_path_summary, supervision_summary
from repro.model.events import Event
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.knowledge_base import KnowledgeBase


def chain_kb() -> KnowledgeBase:
    """One three-level chain: leaf -> mid -> top."""
    kb = KnowledgeBase()
    kb.add_domain("d").add_chain("leaf", "mid", "top")
    return kb


def digit_router(sub_id: str, shards: int) -> int:
    """Deterministic test router: trailing digit of the sub id."""
    return int(sub_id[-1]) % shards


class TestRouting:
    def test_default_router_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for sub_id in ("a", "sub-123", "company0-s4242", ""):
                index = default_router(sub_id, shards)
                assert 0 <= index < shards
                assert index == default_router(sub_id, shards)

    def test_subscribe_lands_on_owning_shard(self):
        engine = ShardedEngine(chain_kb(), shards=4, router=digit_router)
        engine.subscribe(parse_subscription("(x = top)", sub_id="s2"))
        assert engine.shard_of("s2") == 2
        assert "s2" in engine.engines[2]
        assert all("s2" not in engine.engines[i] for i in (0, 1, 3))

    def test_unsubscribe_removes_from_owning_shard_only(self):
        engine = ShardedEngine(chain_kb(), shards=4, router=digit_router)
        for index in range(4):
            engine.subscribe(parse_subscription("(x = top)", sub_id=f"s{index}"))
        original = engine.unsubscribe("s1")
        assert original.sub_id == "s1"
        assert len(engine.engines[1]) == 0
        assert len(engine) == 3
        assert "s1" not in engine
        # the freed shard no longer matches; the others still do
        matched = {m.subscription.sub_id for m in engine.publish(parse_event("(x, leaf)"))}
        assert matched == {"s0", "s2", "s3"}

    def test_unsubscribe_unknown_id_raises_without_touching_shards(self):
        engine = ShardedEngine(chain_kb(), shards=2)
        with pytest.raises(UnknownSubscriptionError):
            engine.unsubscribe("ghost")

    def test_duplicate_live_id_raises_like_single_engine(self):
        engine = ShardedEngine(chain_kb(), shards=2, router=digit_router)
        engine.subscribe(parse_subscription("(x = top)", sub_id="a0"))
        engine.subscribe(parse_subscription("(x = top)", sub_id="a1"))
        with pytest.raises(DuplicateSubscriptionError):
            engine.subscribe(parse_subscription("(x = leaf)", sub_id="a0"))
        # ...and the failed subscribe must not disturb the global order
        assert [sub.sub_id for sub in engine.subscriptions()] == ["a0", "a1"]
        # unsubscribe + fresh subscribe takes a fresh sequence slot
        engine.unsubscribe("a0")
        engine.subscribe(parse_subscription("(x = leaf)", sub_id="a0"))
        assert [sub.sub_id for sub in engine.subscriptions()] == ["a1", "a0"]


class TestMergeSemantics:
    def test_per_subscription_bound_survives_merge(self):
        """A tight personal max_generality must gate its own match and
        only its own match, whichever shard it lives on."""
        engine = ShardedEngine(chain_kb(), shards=2, router=digit_router)
        engine.subscribe(
            parse_subscription("(x = top)", sub_id="loose0", max_generality=2)
        )
        engine.subscribe(
            parse_subscription("(x = top)", sub_id="tight1", max_generality=1)
        )
        matches = {
            m.subscription.sub_id: m.generality
            for m in engine.publish(parse_event("(x, leaf)"))
        }
        assert matches == {"loose0": 2}

    def test_merged_order_is_global_insertion_order(self):
        engine = ShardedEngine(chain_kb(), shards=3, router=digit_router)
        # interleave shards so per-shard order disagrees with global order
        for sub_id in ("s2", "s0", "s1", "t2", "t0"):
            engine.subscribe(parse_subscription("(x = top)", sub_id=sub_id))
        ordered = [m.subscription.sub_id for m in engine.publish(parse_event("(x, mid)"))]
        assert ordered == ["s2", "s0", "s1", "t2", "t0"]

    def test_empty_shard_publish(self):
        """Shards with no subscriptions must neither fail nor match."""
        engine = ShardedEngine(chain_kb(), shards=4, router=digit_router)
        engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
        matches = engine.publish(parse_event("(x, leaf)"))
        assert [m.subscription.sub_id for m in matches] == ["s0"]
        # a fully empty fleet publishes cleanly too
        empty = ShardedEngine(chain_kb(), shards=4)
        assert empty.publish(parse_event("(x, leaf)")) == []


class TestDegenerateAndConstruction:
    def test_single_shard_matches_plain_engine(self):
        kb = chain_kb()
        plain = SToPSS(kb)
        sharded = ShardedEngine(kb, shards=1)
        for engine in (plain, sharded):
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
        event = parse_event("(x, leaf)")
        assert [(m.subscription.sub_id, m.generality) for m in plain.publish(event)] == [
            (m.subscription.sub_id, m.generality) for m in sharded.publish(event)
        ]

    def test_matcher_instance_rejected_for_multiple_shards(self):
        with pytest.raises(ConfigError):
            ShardedEngine(chain_kb(), shards=2, matcher=create_matcher("counting"))
        # one shard is fine — there is exactly one replica to own it
        engine = ShardedEngine(chain_kb(), shards=1, matcher=create_matcher("counting"))
        assert engine.shards == 1

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            ShardedEngine(chain_kb(), shards=0)
        # the executor is one of two names: no other string, no object
        for executor in ("fibers", "threads", "processes", object(), None):
            with pytest.raises(ConfigError, match=r"\['serial', 'process'\]"):
                ShardedEngine(chain_kb(), executor=executor)

    def test_process_executor_without_fork_fails_at_construction(self, monkeypatch):
        """A shard worker is a fork of its parent replica, so a platform
        without the fork start method cannot run the process executor —
        and says so when the engine is built, not from inside the first
        publish."""
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        with pytest.raises(ConfigError, match="fork"):
            ShardedEngine(chain_kb(), shards=2, executor="process")
        with pytest.raises(ConfigError, match="fork"):
            ShardedBroker(chain_kb(), shards=2, executor="process")
        # the serial executor and the one-shard degenerate never fork
        ShardedEngine(chain_kb(), shards=2, executor="serial")
        engine = ShardedEngine(chain_kb(), shards=1, executor="process")
        engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
        assert engine.publish(parse_event("(x, leaf)")) != []


class TestFleetPlumbing:
    def test_reconfigure_routes_to_every_shard(self):
        engine = ShardedEngine(chain_kb(), shards=3)
        engine.reconfigure(SemanticConfig.syntactic())
        assert engine.mode == "syntactic"
        assert all(e.mode == "syntactic" for e in engine.engines)
        engine.reconfigure(SemanticConfig.semantic())
        assert all(e.mode == "semantic" for e in engine.engines)

    def test_reconfigure_rolls_back_switched_shards_on_failure(self):
        engine = ShardedEngine(chain_kb(), shards=3)
        boom = RuntimeError("shard 2 refuses")
        original_reconfigure = engine.engines[2].reconfigure

        def failing(config):
            raise boom

        engine.engines[2].reconfigure = failing
        with pytest.raises(RuntimeError):
            engine.reconfigure(SemanticConfig.syntactic())
        engine.engines[2].reconfigure = original_reconfigure
        # shards 0 and 1 were switched and must have been rolled back
        assert [e.mode for e in engine.engines] == ["semantic"] * 3

    def test_bump_semantic_epoch_routes_to_every_shard(self):
        engine = ShardedEngine(chain_kb(), shards=2)
        before = engine.semantic_version
        engine.bump_semantic_epoch("test")
        after = engine.semantic_version
        assert before != after
        assert all(b != a for b, a in zip(before, after))

    def test_subscription_epoch_moves_on_any_shard_churn(self):
        engine = ShardedEngine(chain_kb(), shards=2, router=digit_router)
        epochs = {engine.subscription_epoch}
        engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
        epochs.add(engine.subscription_epoch)
        engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
        epochs.add(engine.subscription_epoch)
        engine.unsubscribe("s0")
        epochs.add(engine.subscription_epoch)
        assert len(epochs) == 4


class TestStats:
    def test_merged_stats_sum_counters_and_keep_single_engine_shape(self):
        engine = ShardedEngine(chain_kb(), shards=2, router=digit_router)
        engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
        engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
        engine.publish(parse_event("(x, leaf)"))
        stats = engine.stats()
        per_shard = stats["sharding"]["shard_stats"]
        assert stats["subscriptions"] == 2
        assert stats["publications"] == 1  # logical count, not shards x publishes
        assert stats["derived_events"] == sum(s["derived_events"] for s in per_shard)
        assert stats["matcher_stats"]["batches"] == sum(
            s["matcher_stats"]["batches"] for s in per_shard
        )
        assert stats["mode"] == "semantic"
        assert stats["sharding"]["subscriptions_per_shard"] == [1, 1]
        assert stats["sharding"]["publications"] == 1
        assert len(stats["sharding"]["busy_cpu_seconds"]) == 2
        assert stats["sharding"]["critical_path_seconds"] >= 0.0

    def test_merge_stats_recomputes_rates_from_sums(self):
        merged = merge_stats(
            [
                {"result_cache": {"hits": 9, "misses": 1, "hit_rate": 0.9}},
                {"result_cache": {"hits": 0, "misses": 10, "hit_rate": 0.0}},
            ]
        )
        assert merged["result_cache"]["hits"] == 9
        assert merged["result_cache"]["hit_rate"] == pytest.approx(0.45)
        merged = merge_stats(
            [
                {"interest": {"candidates_pruned": 3, "prune_checks": 4, "prune_hit_rate": 0.75}},
                {"interest": {"candidates_pruned": 0, "prune_checks": 0, "prune_hit_rate": 0.0}},
            ]
        )
        assert merged["interest"]["prune_hit_rate"] == pytest.approx(0.75)

    def test_merge_stats_never_sums_unknown_rates(self):
        merged = merge_stats(
            [{"memo_hit_rate": 0.9}, {"memo_hit_rate": 0.5}, {"memo_hit_rate": 0.1}]
        )
        assert merged["memo_hit_rate"] == pytest.approx(0.5)  # mean, not 1.5

    def test_merge_stats_string_and_bool_policy(self):
        merged = merge_stats(
            [
                {"mode": "semantic", "interest": {"enabled": False}},
                {"mode": "syntactic", "interest": {"enabled": True}},
            ]
        )
        assert merged["mode"] == "mixed"
        assert merged["interest"]["enabled"] is True

    def test_merge_stats_tolerates_none_values(self):
        """Codec-deserialized snapshots may carry None where a replica
        had nothing to report — None never poisons a sum or a mean."""
        merged = merge_stats(
            [
                {"derived_events": 3, "interest": None, "memo_hit_rate": None},
                {"derived_events": None, "interest": {"prune_checks": 2}},
                {"derived_events": 4, "memo_hit_rate": 0.5},
            ]
        )
        assert merged["derived_events"] == 7
        assert merged["interest"] == {"prune_checks": 2}
        assert merged["memo_hit_rate"] == pytest.approx(0.5)
        assert merge_stats([{"only": None}]) == {"only": None}

    def test_publish_path_summary_never_raises_on_sparse_stats(self):
        for stats in ({}, {"matcher_stats": {}}, {"interest": None}, {"derived_events": 7}):
            summary = publish_path_summary(stats)
            assert summary["batches"] == 0
            assert summary["prune_hit_rate"] == 0.0
        assert publish_path_summary({"derived_events": 7})["derived"] == 7


class TestProcessExecutor:
    """The cross-process data plane: worker lifecycle, control-plane
    forwarding, knowledge-base drift restarts, and the wire-fallback
    counter.  Result equivalence against the single engine is pinned by
    ``tests/property/test_sharding_equivalence.py``."""

    def test_publish_merges_in_global_insertion_order(self):
        engine = ShardedEngine(
            chain_kb(), shards=2, executor="process", router=digit_router
        )
        try:
            for sub_id in ("s1", "s0", "t1"):  # interleave the shards
                engine.subscribe(parse_subscription("(x = top)", sub_id=sub_id))
            matches = engine.publish(parse_event("(x, leaf)"))
            assert [m.subscription.sub_id for m in matches] == ["s1", "s0", "t1"]
            assert all(m.generality == 2 for m in matches)
            # the derivation chain decoded from the wire still explains itself
            assert "leaf" in matches[0].matched_via.explain()
        finally:
            engine.close()

    def test_churn_forwards_to_the_live_fleet_without_restart(self):
        engine = ShardedEngine(
            chain_kb(), shards=2, executor="process", router=digit_router
        )
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            plane = engine._plane
            assert plane is not None and plane.workers == 2
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            engine.unsubscribe("s0")
            matched = {
                m.subscription.sub_id for m in engine.publish(parse_event("(x, leaf)"))
            }
            assert matched == {"s1"}
            assert engine._plane is plane  # forwarded, not rebuilt
        finally:
            engine.close()

    def test_kb_drift_restarts_the_fleet(self):
        kb = chain_kb()
        engine = ShardedEngine(kb, shards=2, executor="process", router=digit_router)
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            first = engine._plane
            assert first is not None
            # forked workers hold a fork-time KB copy; a parent-side
            # mutation must be propagated by rebuilding the fleet
            kb.taxonomy("d").add_isa("deeper", "leaf")
            matched = {
                m.subscription.sub_id
                for m in engine.publish(parse_event("(x, deeper)"))
            }
            assert matched == {"s0"}
            assert engine._plane is not None and engine._plane is not first
        finally:
            engine.close()

    def test_stale_root_form_survives_a_kb_write_like_the_single_engine(self):
        """A subscription keeps its subscribe-time root form when an
        attribute-synonym group later renames its attribute's root (what
        a single engine should do about that is a separate question);
        the invariant here is only that every executor does what the
        single engine does.  Workers that re-derived root forms under
        the new knowledge base used to report ``s0``."""

        def matched(build):
            kb = chain_kb()
            engine = build(kb)
            try:
                engine.subscribe(parse_subscription("(campus = Toronto)", sub_id="s0"))
                kb.add_attribute_synonyms(["university", "campus"], root="university")
                event = parse_event("(campus, Toronto)(degree, PhD)")
                return [(m.subscription.sub_id, m.generality) for m in engine.publish(event)]
            finally:
                if isinstance(engine, ShardedEngine):
                    engine.close()

        single = matched(SToPSS)
        assert matched(lambda kb: ShardedEngine(kb, shards=2, executor="serial")) == single
        assert matched(lambda kb: ShardedEngine(kb, shards=2, executor="process")) == single

    def test_worker_serves_the_replica_it_inherited(self):
        """No engine is built inside a worker process: what answers
        there is the parent's own replica, carried over by the fork."""

        class Stamped(SToPSS):
            def __init__(self, kb, **kwargs):
                super().__init__(kb, **kwargs)
                self.built_in = os.getpid()

            def stats(self):
                return {**super().stats(), "built_in": self.built_in, "pid": os.getpid()}

        engine = ShardedEngine(
            chain_kb(), shards=2, executor="process", engine_factory=Stamped
        )
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            for shard_stats in engine.stats()["sharding"]["shard_stats"]:
                assert shard_stats["pid"] != os.getpid()  # answered by a worker...
                assert shard_stats["built_in"] == os.getpid()  # ...built in the parent
        finally:
            engine.close()

    def test_reconfigure_and_epoch_forward_to_live_workers(self):
        engine = ShardedEngine(
            chain_kb(), shards=2, executor="process", router=digit_router
        )
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            assert engine.publish(parse_event("(x, leaf)")) != []
            plane = engine._plane
            engine.reconfigure(SemanticConfig.syntactic())
            assert engine.publish(parse_event("(x, leaf)")) == []  # no taxonomy climb
            assert engine.publish(parse_event("(x, top)")) != []  # literal still hits
            engine.reconfigure(SemanticConfig.semantic())
            engine.bump_semantic_epoch("test")
            assert engine.publish(parse_event("(x, leaf)")) != []
            assert engine._plane is plane  # every step forwarded in place
        finally:
            engine.close()

    def test_the_worker_publishes_the_event_itself(self):
        """The publication crosses the pipe as the :class:`Event`, with
        its id, publisher and attribute order."""

        class Recording(SToPSS):
            seen = None

            def publish(self, event):
                self.seen = (type(event).__name__, event.event_id, event.publisher_id)
                self.seen += (event.items(), os.getpid())
                return super().publish(event)

            def stats(self):
                return {**super().stats(), "seen": self.seen}

        event = Event(
            [("x", "leaf"), ("note", "free text"), ("n", 4.5), ("flag", True)],
            event_id="ev-7",
            publisher_id="pub-1",
        )
        engine = ShardedEngine(
            chain_kb(), shards=2, executor="process", engine_factory=Recording
        )
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(event)
            for shard_stats in engine.stats()["sharding"]["shard_stats"]:
                *seen, pid = shard_stats["seen"]
                assert seen == ["Event", "ev-7", "pub-1", event.items()]
                assert pid != os.getpid()
        finally:
            engine.close()

    def test_free_text_crosses_to_a_worker_and_matches_as_on_serial(self):
        # a value the knowledge base never heard of crosses the pipe as
        # the string it is and matches exactly as it does inline
        subscriptions = ("(x = top)", "(note = unmodeled free text)", "(note exists)")
        event = parse_event("(x, leaf)(note, unmodeled free text)")
        results = {}
        for executor in ("serial", "process"):
            with ShardedEngine(
                chain_kb(), shards=2, executor=executor, router=digit_router
            ) as engine:
                for i, text in enumerate(subscriptions):
                    engine.subscribe(parse_subscription(text, sub_id=f"s{i}"))
                results[executor] = [
                    (m.subscription.sub_id, m.generality, m.matched_via, m.event is event)
                    for m in engine.publish(event)
                ]
        assert [row[0] for row in results["process"]] == ["s0", "s1", "s2"]
        assert results["process"] == results["serial"]

    def test_a_publish_payload_that_is_not_an_event_is_badwire(self):
        engine = _process_engine()
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            plane = engine._plane
            # what the interned-id codec used to send: a tuple, not an Event
            plane._begin(0, "publish", ("e1", None, (("x", 0),)))
            with pytest.raises(BrokerError, match="rejected the request: not an event: tuple"):
                plane._finish(0)
            assert plane._workers[0] is None and plane._workers[1] is not None
            matched = [m.subscription.sub_id for m in engine.publish(parse_event("(x, leaf)"))]
            assert matched == ["s0"]
            assert engine.supervision.worker_restarts == 1
        finally:
            engine.close()

    @pytest.mark.parametrize("matcher", ["counting", "naive"])
    def test_truncation_is_reported_on_both_executors(self, matcher):
        seen = {}
        for executor in ("serial", "process"):
            broker = ShardedBroker(
                chain_kb(),
                shards=2,
                executor=executor,
                matcher=matcher,
                router=digit_router,
                config=SemanticConfig.semantic(max_derived_events=2),
            )
            try:
                company = broker.register_subscriber("c", email="c@example.com")
                broker.subscribe(company.client_id, "(x = top)")
                broker.subscribe(company.client_id, "(y exists)")
                candidate = broker.register_publisher("p")
                flags = []
                for text in ("(x, leaf)(y, leaf)", "(x, top)"):
                    report = broker.publish(candidate.client_id, text)
                    flags.append((report.truncated, broker.engine.last_truncated))
                seen[executor] = flags, broker.dispatcher.stats()["publications_truncated"]
            finally:
                broker.close()
        assert seen["serial"] == ([(True, True), (False, False)], 1)
        assert seen["process"] == seen["serial"]

    def test_stats_come_from_the_worker_replicas(self):
        engine = ShardedEngine(
            chain_kb(), shards=2, executor="process", router=digit_router
        )
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            stats = engine.stats()
            # the publish ran in the workers, not the local replicas —
            # only worker-sourced snapshots carry its counters
            assert stats["derived_events"] > 0
            assert stats["sharding"]["executor"] == "process"
            assert stats["sharding"]["shard_stats"][0]["matcher_stats"]["batches"] >= 0
        finally:
            engine.close()

    @pytest.mark.parametrize("matcher", ["counting", "naive"])
    def test_worker_snapshots_merge_as_received(self, matcher):
        """Worker snapshots cross the pipe by pickle (int histogram keys
        and tuples intact) and merge untouched: after one trace the
        process executor reports the serial executor's counters, shard
        by shard and merged — every section but ``sharding``, whose
        executor name, wire counter and CPU clocks differ by design."""

        def counters(executor):
            kb = chain_kb()
            engine = ShardedEngine(
                kb, shards=2, matcher=matcher, executor=executor, router=digit_router
            )
            try:
                engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
                engine.subscribe(parse_subscription("(x = mid)", sub_id="s1"))
                for text in ("(x, leaf)", "(x, mid)", "(y, top)"):
                    engine.publish(parse_event(text))
                engine.unsubscribe("s1")
                engine.subscribe(parse_subscription("(x = leaf)", sub_id="t1"))
                engine.publish(parse_event("(x, leaf)"))
                stats = engine.stats()
            finally:
                engine.close()
            sharding = stats.pop("sharding")
            return stats, sharding["shard_stats"]

        serial, process = counters("serial"), counters("process")
        assert process == serial
        assert serial[0]["derived_histogram"]  # the int-keyed map did cross

    def test_close_stops_the_workers(self):
        engine = ShardedEngine(chain_kb(), shards=2, executor="process")
        engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
        engine.publish(parse_event("(x, leaf)"))
        processes = [process for process, _ in engine._plane._workers]
        assert all(process.is_alive() for process in processes)
        engine.close()
        assert engine._plane is None
        assert all(not process.is_alive() for process in processes)

    def test_context_manager_stops_the_fleet(self):
        with ShardedEngine(chain_kb(), shards=2, executor="process") as engine:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            engine.publish(parse_event("(x, leaf)"))
            processes = [process for process, _ in engine._plane._workers]
        assert engine._plane is None
        assert all(not process.is_alive() for process in processes)

    def test_single_shard_process_spec_stays_inline(self):
        engine = ShardedEngine(chain_kb(), shards=1, executor="process")
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            assert engine.publish(parse_event("(x, leaf)")) != []
            assert engine._plane is None  # degenerate path never forks
        finally:
            engine.close()


def _process_engine(plan=None, **kwargs):
    """A 2-shard process engine wired for deterministic fault tests:
    the digit router so sub ids pin their shard."""
    return ShardedEngine(
        chain_kb(),
        shards=2,
        executor="process",
        router=digit_router,
        fault_plan=plan,
        **kwargs,
    )


def _health(engine) -> dict:
    """The engine's health row without its wall-clock field."""
    health = supervision_summary(engine.stats())
    del health["restart_seconds"]
    return health


@pytest.fixture
def no_sleep(monkeypatch):
    """Recovery never waits: any ``time.sleep`` fails the test."""

    def refuse(seconds):
        raise AssertionError(f"the data plane slept {seconds}s")

    monkeypatch.setattr(time, "sleep", refuse)


class TestOneRecoveryRule:
    """Any transport fault disposes the worker it lands on; a publish
    answers that shard inline on the parent replica; the next publish
    re-forks every empty slot.  The chaos equivalence invariant (match
    sets equal to a single engine while workers die) lives in
    ``tests/property/test_sharding_equivalence.py``."""

    #: shard 0's send slot each op takes in the trace below: publish,
    #: publish, forwarded subscribe, stats, publish
    SLOT = {"publish": 1, "subscribe": 2, "stats": 3}

    @pytest.mark.parametrize("op", ["publish", "subscribe", "stats"])
    @pytest.mark.parametrize("kind", DATA_PLANE_FAULT_KINDS)
    def test_a_fault_disposes_the_worker_and_the_next_publish_reforks_it(
        self, kind, op, no_sleep
    ):
        plan = FaultPlan([FaultAction(kind, 0, self.SLOT[op])])
        engine = _process_engine(plan)
        reference = SToPSS(chain_kb())
        event = parse_event("(x, leaf)")

        def publish():
            expected = [m.subscription.sub_id for m in reference.publish(event)]
            assert [m.subscription.sub_id for m in engine.publish(event)] == expected
            return expected

        try:
            for sub_id in ("s0", "s1"):
                for target in (engine, reference):
                    target.subscribe(parse_subscription("(x = top)", sub_id=sub_id))
            publish()
            plane = engine._plane
            survivor, _ = plane._workers[1]
            publish()
            for target in (engine, reference):
                target.subscribe(parse_subscription("(x = mid)", sub_id="t0"))
            stats = engine.stats()
            assert plan.pending == 0
            # disposed at the faulted op, and nothing else was touched
            assert plane._workers[0] is None
            assert plane._workers[1][0] is survivor and survivor.is_alive()
            assert stats["subscriptions"] == 3  # the hole answered from the replica
            assert publish() == ["s0", "s1", "t0"]
            # the next publish forked the replica again, t0 included
            assert engine._plane is plane
            process, _ = plane._workers[0]
            assert process.is_alive()
            degraded = 1 if op == "publish" else 0
            assert _health(engine) == {
                "worker_restarts": 1,
                "degraded_publishes": degraded,
                "stale_replies_discarded": 0,
                "recoveries": 1 + degraded,
            }
            assert publish() == ["s0", "s1", "t0"]
        finally:
            engine.close()

    def test_killed_worker_0_leaves_worker_1_round_trip_coherent(self):
        # the PR-7 desync pin: before epoch tagging, a failure on worker
        # 0 mid-broadcast left worker 1's reply unread on the pipe, so
        # the *next* request read a stale reply.
        engine = _process_engine()
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            engine.publish(parse_event("(x, leaf)"))
            plane = engine._plane
            process_0, _ = plane._workers[0]
            process_0.kill()
            process_0.join(timeout=5.0)
            # the publish fans out to both workers; worker 0's failure
            # must not desynchronize worker 1's reply stream
            matched = {
                m.subscription.sub_id for m in engine.publish(parse_event("(x, leaf)"))
            }
            assert matched == {"s0", "s1"}
            assert plane._workers[0] is None  # answered inline this time
            # and the next round-trip with worker 1 is still coherent
            matched = {
                m.subscription.sub_id for m in engine.publish(parse_event("(x, leaf)"))
            }
            assert matched == {"s0", "s1"}
            assert engine._plane is plane  # repaired in place, not rebuilt
            snapshot = engine.supervision.snapshot()
            assert snapshot["worker_restarts"] == 1
            assert snapshot["degraded_publishes"] == 1
        finally:
            engine.close()

    def test_an_engine_error_mid_collect_leaves_a_reply_the_next_exchange_discards(self):
        """An engine error is not a transport fault: it reaches the
        caller unwrapped and disposes nothing, but the shards after it
        go uncollected.  Their replies are discarded by epoch on the
        next exchange instead of being read as its answer."""

        class WorkerRejects(SToPSS):
            def __init__(self, kb, **kwargs):
                super().__init__(kb, **kwargs)
                self.built_in = os.getpid()

            def publish(self, event):
                if os.getpid() != self.built_in and "boom" in event:
                    raise MatchingError("rejected in the worker")
                return super().publish(event)

        engine = _process_engine(engine_factory=WorkerRejects)
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            engine.publish(parse_event("(x, leaf)"))
            plane = engine._plane
            with pytest.raises(MatchingError, match="rejected in the worker"):
                engine.publish(parse_event("(x, leaf)(boom, 1)"))
            matched = [
                m.subscription.sub_id for m in engine.publish(parse_event("(x, leaf)"))
            ]
            assert matched == ["s0", "s1"]
            assert engine._plane is plane
            assert all(entry is not None for entry in plane._workers)
            snapshot = engine.supervision.snapshot()
            # shard 0 raised first; shard 1's answer was left unread
            assert snapshot["stale_replies_discarded"] == 1
            assert engine.supervision.recoveries == 0
        finally:
            engine.close()

    def test_a_forwarded_op_the_worker_rejects_disposes_it(self, no_sleep):
        """The parent's replica accepted the op, the worker's did not:
        its state is unknowable, so it goes like any faulted worker and
        the re-fork — which holds the op — answers from then on."""

        class WorkerRejects(SToPSS):
            def __init__(self, kb, **kwargs):
                super().__init__(kb, **kwargs)
                self.built_in = os.getpid()

            def subscribe(self, subscription, seq=None):
                if os.getpid() != self.built_in and subscription.sub_id == "t0":
                    raise MatchingError("rejected in the worker")
                return super().subscribe(subscription, seq)

        engine = _process_engine(engine_factory=WorkerRejects)
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            plane = engine._plane
            engine.subscribe(parse_subscription("(x = mid)", sub_id="t0"))  # never raises
            assert plane._workers[0] is None
            assert plane._workers[1] is not None
            matched = [
                m.subscription.sub_id for m in engine.publish(parse_event("(x, leaf)"))
            ]
            assert matched == ["s0", "t0"]
            assert engine.supervision.worker_restarts == 1
            assert engine.supervision.degraded_publishes == 0
        finally:
            engine.close()

    def test_a_worker_that_keeps_dying_costs_one_fork_per_publish(self, no_sleep):
        # the deliberate trade-off: nothing stops re-forking a shard
        # that dies on every contact; each publish pays one fork and
        # still answers correctly, inline
        plan = FaultPlan([FaultAction("kill", 0, op) for op in range(5)])
        engine = _process_engine(plan)
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            for _ in range(5):
                matched = [
                    m.subscription.sub_id
                    for m in engine.publish(parse_event("(x, leaf)"))
                ]
                assert matched == ["s0", "s1"]
            assert plan.pending == 0
            snapshot = engine.supervision.snapshot()
            assert snapshot["worker_restarts"] == 4
            assert snapshot["degraded_publishes"] == 5
        finally:
            engine.close()

    @pytest.mark.parametrize("when", ["first fork", "re-fork"])
    def test_a_fork_that_fails_leaves_the_shard_inline(self, when, monkeypatch, no_sleep):
        engine = _process_engine()
        launch = _ProcessDataPlane._launch
        failing = {0}

        def flaky_launch(plane, index):
            if index in failing:
                raise OSError("fork refused")
            launch(plane, index)

        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            if when == "re-fork":
                engine.publish(parse_event("(x, leaf)"))
                process_0, _ = engine._plane._workers[0]
                process_0.kill()
                process_0.join(timeout=5.0)
                engine.publish(parse_event("(x, leaf)"))  # disposes worker 0
            monkeypatch.setattr(_ProcessDataPlane, "_launch", flaky_launch)
            before = engine.supervision.snapshot()
            for _ in range(2):
                matched = [
                    m.subscription.sub_id
                    for m in engine.publish(parse_event("(x, leaf)"))
                ]
                assert matched == ["s0", "s1"]
            assert engine._plane._workers[0] is None
            assert engine._plane._workers[1] is not None
            after = engine.supervision.snapshot()
            assert after["worker_restarts"] == before["worker_restarts"]
            assert after["degraded_publishes"] == before["degraded_publishes"] + 2
            failing.clear()  # the fork works again: the next publish heals
            engine.publish(parse_event("(x, leaf)"))
            assert engine._plane._workers[0] is not None
            assert engine.supervision.worker_restarts == before["worker_restarts"] + 1
        finally:
            engine.close()

    def test_churn_while_worker_down_resyncs_on_respawn(self):
        # subscribe/unsubscribe while shard 0's worker is dead: the
        # re-forked worker must rebuild from the *current* parent state
        # (the re-fork is the retry — ops are never replayed)
        engine = _process_engine()
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            engine.publish(parse_event("(x, leaf)"))
            plane = engine._plane
            process_0, _ = plane._workers[0]
            process_0.kill()
            process_0.join(timeout=5.0)
            sends = plane._op_counts[0]
            # both mutations route to the dead shard-0 worker
            engine.subscribe(parse_subscription("(x = top)", sub_id="t0"))
            engine.unsubscribe("s0")
            matched = [
                m.subscription.sub_id for m in engine.publish(parse_event("(x, leaf)"))
            ]
            assert matched == ["s1", "t0"]
            assert engine._plane is plane
            # two sends in all: the forward that found the worker dead,
            # and the publish — t0 reached the replacement inside the
            # forked replica, not as re-subscribe traffic on the pipe
            assert plane._op_counts[0] == sends + 2
        finally:
            engine.close()

    def test_engine_errors_propagate_not_swallowed(self):
        # recovery covers *transport* failures only: an engine-level
        # error must reach the caller exactly like the single-engine
        # path (here: duplicate subscribe raises locally before any
        # forwarding — the control plane is truth)
        engine = _process_engine()
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            with pytest.raises(DuplicateSubscriptionError):
                engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            assert engine.supervision.recoveries == 0
        finally:
            engine.close()

    def test_every_fault_kind_recovers_with_deterministic_counters(self, no_sleep):
        plan = FaultPlan(
            [
                FaultAction("kill", 0, 0),
                FaultAction("drop", 1, 1),
                FaultAction("corrupt", 0, 2),
                FaultAction("hang", 1, 3),
            ]
        )
        engine = _process_engine(plan)
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            for _ in range(5):
                matched = [
                    m.subscription.sub_id
                    for m in engine.publish(parse_event("(x, leaf)"))
                ]
                assert matched == ["s0", "s1"]
            assert plan.pending == 0
            assert all(entry is not None for entry in engine._plane._workers)
            # each of the four publishes that met a fault answered one
            # shard inline; the publish after each re-forked it.  The
            # dropped reply went with its worker's pipe, unread.
            assert _health(engine) == {
                "worker_restarts": 4,
                "degraded_publishes": 4,
                "stale_replies_discarded": 0,
                "recoveries": 8,
            }
        finally:
            engine.close()

    def test_a_fault_mid_broadcast_disposes_only_that_worker(self, no_sleep):
        # shard 0's worker dies on the forwarded reconfigure; shard 1's
        # still receives it, and shard 0's re-fork holds it already
        plan = FaultPlan([FaultAction("kill", 0, 1)])
        engine = _process_engine(plan)
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            engine.publish(parse_event("(x, leaf)"))
            plane = engine._plane
            survivor, _ = plane._workers[1]
            engine.reconfigure(SemanticConfig.syntactic())
            assert plane._workers[0] is None
            assert plane._workers[1][0] is survivor
            assert plane._op_counts == [2, 2]  # one send each, none re-sent
            assert engine.publish(parse_event("(x, leaf)")) == []  # no taxonomy climb
            matched = [
                m.subscription.sub_id for m in engine.publish(parse_event("(x, top)"))
            ]
            assert matched == ["s0", "s1"]
            assert engine._plane is plane
            assert plane._workers[1][0] is survivor
            assert engine.supervision.worker_restarts == 1
            assert engine.supervision.degraded_publishes == 0
        finally:
            engine.close()

    def test_only_a_publish_reforks(self, no_sleep):
        """Control ops and stats skip an empty slot without a send: the
        parent's replica takes the op, the stats hole is filled from it,
        and the worker comes back at the next publish only."""
        engine = _process_engine()
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            engine.publish(parse_event("(x, leaf)"))
            plane = engine._plane
            process_0, _ = plane._workers[0]
            process_0.kill()
            process_0.join(timeout=5.0)
            engine.subscribe(parse_subscription("(x = mid)", sub_id="t0"))  # disposes
            sends = plane._op_counts[0]
            engine.unsubscribe("t0")
            engine.subscribe(parse_subscription("(x = leaf)", sub_id="u0"))
            engine.bump_semantic_epoch("test")
            engine.reconfigure(SemanticConfig.semantic())
            assert engine.stats()["subscriptions"] == 3
            assert plane._workers[0] is None
            assert plane._op_counts[0] == sends  # nothing was sent to the hole
            assert engine.supervision.worker_restarts == 0
            matched = [
                m.subscription.sub_id for m in engine.publish(parse_event("(x, leaf)"))
            ]
            assert matched == ["s0", "s1", "u0"]
            assert plane._workers[0] is not None
            assert engine.supervision.worker_restarts == 1
        finally:
            engine.close()

    def test_restart_seconds_times_only_the_reforks(self):
        engine = _process_engine(FaultPlan([FaultAction("kill", 1, 1)]))
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            for _ in range(2):
                engine.publish(parse_event("(x, leaf)"))
            # the first fork builds the plane and counts as no restart;
            # the kill disposed worker 1 without forking anything yet
            assert engine.supervision.restart_seconds == 0.0
            engine.publish(parse_event("(x, leaf)"))
            assert engine.supervision.worker_restarts == 1
            assert engine.supervision.restart_seconds > 0.0
        finally:
            engine.close()

    def test_sharding_info_carries_only_the_recovery_counters(self):
        engine = _process_engine()
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            info = engine.sharding_info()
            assert "breaker_states" not in info
            assert info["supervision"] == {
                "worker_restarts": 0,
                "degraded_publishes": 0,
                "stale_replies_discarded": 0,
                "restart_seconds": 0.0,
            }
        finally:
            engine.close()

    @pytest.mark.parametrize("facade", [ShardedEngine, ShardedBroker])
    def test_there_is_no_supervision_policy_to_pass(self, facade):
        with pytest.raises(TypeError, match="supervision"):
            facade(chain_kb(), shards=2, executor="process", supervision=None)
        for name in ("SupervisionPolicy", "CircuitBreaker"):
            assert not hasattr(supervision, name)


class TestRequestTimeoutPlumbing:
    def test_default_applies_without_executor_hint(self):
        engine = ShardedEngine(chain_kb(), shards=2, executor="serial")
        try:
            assert engine.sharding_info()["request_timeout"] == DEFAULT_REQUEST_TIMEOUT
        finally:
            engine.close()

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            ShardedEngine(chain_kb(), shards=2, request_timeout=0.0)
        with pytest.raises(ConfigError):
            ShardedEngine(chain_kb(), shards=2, request_timeout=-1.0)

    def test_timeout_fires_and_respawns_the_hung_worker(self):
        # a real (not injected) timeout: the deadline elapses with no
        # reply and the worker is disposed — "hang" faults exercise the
        # same branch without the wall-clock wait
        plan = FaultPlan([FaultAction("hang", 0, 1)])
        engine = _process_engine(plan, request_timeout=30.0)
        try:
            assert engine.sharding_info()["request_timeout"] == 30.0
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            assert engine._plane.request_timeout == 30.0  # the engine's knob, end to end
            for _ in range(2):
                matched = [
                    m.subscription.sub_id
                    for m in engine.publish(parse_event("(x, leaf)"))
                ]
                assert matched == ["s0"]
            assert engine.supervision.degraded_publishes == 1
            assert engine.supervision.worker_restarts == 1
        finally:
            engine.close()


class TestPlaneTeardown:
    def test_close_with_already_dead_worker(self):
        engine = _process_engine()
        engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
        engine.publish(parse_event("(x, leaf)"))
        plane = engine._plane
        for process, _ in plane._workers:
            process.kill()
            process.join(timeout=5.0)
        engine.close()  # must not raise
        assert engine._plane is None
        assert plane._workers == []

    def test_double_close_is_idempotent(self):
        engine = _process_engine()
        engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
        engine.publish(parse_event("(x, leaf)"))
        plane = engine._plane
        engine.close()
        engine.close()
        plane.close()  # direct second close on the plane too
        assert plane._workers == []

    def test_close_during_degraded_mode_reaps_the_survivor(self):
        # a fault on the last publish leaves shard 0's slot empty:
        # close must skip the hole and reap the survivor, however often
        # it is called
        plan = FaultPlan([FaultAction("kill", 0, 2)])
        engine = _process_engine(plan)
        engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
        engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
        for _ in range(3):
            engine.publish(parse_event("(x, leaf)"))
        plane = engine._plane
        assert plane._workers[0] is None  # shard 0 is a hole
        survivor, _ = plane._workers[1]
        assert survivor.is_alive()
        engine.close()
        engine.close()
        plane.close()
        assert not survivor.is_alive()
        assert engine._plane is None


class TestLifecycleLog:
    """One DEBUG record on ``repro.broker.sharding`` when the worker
    fleet is dropped (why, and how many workers), when a faulted worker
    is disposed (which shard, which fault), when a publish answers
    shards inline (which), when a publish re-forks empty slots (which,
    and how many came up; a launch that failed says why) and when a
    stale reply is discarded (the shard and the epochs)."""

    @staticmethod
    def _records(caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records if r.name == "repro.broker.sharding"]

    def test_one_record_per_kb_write_and_none_on_plain_publishes(self, caplog):
        kb = chain_kb()
        with ShardedBroker(kb, shards=2, executor="process", router=digit_router) as broker:
            subscriber = broker.register_subscriber("Initech", email="hr@initech.example")
            broker.subscribe(subscriber.client_id, parse_subscription("(x = top)", sub_id="s0"))
            publisher = broker.register_publisher("Ada")
            expected = []
            with caplog.at_level(logging.DEBUG, logger="repro.broker.sharding"):
                for value in ("leaf", "mid", "top"):
                    broker.publish(publisher.client_id, f"(x, {value})")
                assert self._records(caplog) == []
                for parent, child in (("leaf", "deeper"), ("deeper", "deepest")):
                    before = kb.version
                    kb.taxonomy("d").add_isa(child, parent)
                    expected.append(
                        f"worker fleet dropped (knowledge base v{before} -> v{kb.version}): "
                        "2 workers"
                    )
                    for value in (child, "top"):
                        assert broker.publish(publisher.client_id, f"(x, {value})").match_count
                    assert self._records(caplog) == expected

    def test_a_disposed_worker_names_its_shard_and_fault(self, caplog, no_sleep):
        engine = _process_engine(FaultPlan([FaultAction("kill", 0, 0)]))
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            with caplog.at_level(logging.DEBUG, logger="repro.broker.sharding"):
                event = parse_event("(x, leaf)")
                matches = engine.publish(event)
                assert [m.subscription.sub_id for m in matches] == ["s0"]  # answered inline
                assert self._records(caplog) == [
                    "shard 0 worker disposed: shard 0 worker killed by fault plan",
                    f"publish {event.event_id} degraded: shards [0] answered inline",
                ]
        finally:
            engine.close()

    def test_a_re_fork_says_which_shards_and_how_many_came_up(self, caplog, no_sleep):
        engine = _process_engine(FaultPlan([FaultAction("kill", 0, 0)]))
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))  # shard 0's worker is disposed
            with caplog.at_level(logging.DEBUG, logger="repro.broker.sharding"):
                assert len(engine.publish(parse_event("(x, mid)"))) == 1
                assert self._records(caplog) == ["shards [0] re-forked: 1 of 1 up"]
        finally:
            engine.close()

    def test_a_failed_launch_is_said_and_the_shard_answers_inline(
        self, caplog, monkeypatch, no_sleep
    ):
        engine = _process_engine(FaultPlan([FaultAction("kill", 0, 0)]))
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.publish(parse_event("(x, leaf)"))
            plane = engine._plane

            def refuse(index):
                raise OSError("no more processes")

            monkeypatch.setattr(plane, "_launch", refuse)
            with caplog.at_level(logging.DEBUG, logger="repro.broker.sharding"):
                event = parse_event("(x, mid)")
                assert [m.subscription.sub_id for m in engine.publish(event)] == ["s0"]
                assert self._records(caplog) == [
                    "shard 0 worker launch failed: OSError('no more processes')",
                    "shards [0] re-forked: 0 of 1 up",
                    f"publish {event.event_id} degraded: shards [0] answered inline",
                ]
        finally:
            engine.close()

    def test_a_stale_reply_names_its_shard_and_epochs(self, caplog):
        """Shard 0's worker raises an engine error, so shard 1's reply
        to the same publish goes unread; the next exchange with shard 1
        discards it by epoch."""

        class WorkerRejects(SToPSS):
            def __init__(self, kb, **kwargs):
                super().__init__(kb, **kwargs)
                self.built_in = os.getpid()

            def publish(self, event):
                if os.getpid() != self.built_in and "boom" in event:
                    raise MatchingError("rejected in the worker")
                return super().publish(event)

        engine = _process_engine(engine_factory=WorkerRejects)
        try:
            engine.subscribe(parse_subscription("(x = top)", sub_id="s0"))
            engine.subscribe(parse_subscription("(x = top)", sub_id="s1"))
            engine.publish(parse_event("(x, leaf)"))
            with pytest.raises(MatchingError):
                engine.publish(parse_event("(x, leaf)(boom, 1)"))
            abandoned = engine._plane._expected[1]
            with caplog.at_level(logging.DEBUG, logger="repro.broker.sharding"):
                engine.publish(parse_event("(x, leaf)"))
                assert self._records(caplog) == [
                    f"shard 1 stale reply discarded (epoch {abandoned}, "
                    f"expected {abandoned + 1})"
                ]
        finally:
            engine.close()


class TestShardedBroker:
    def test_full_broker_path_delivers_notifications(self):
        kb = chain_kb()
        with ShardedBroker(kb, shards=3, executor="serial") as broker:
            subscriber = broker.register_subscriber("Initech", email="hr@initech.example")
            broker.subscribe(subscriber.client_id, "(x = top)")
            publisher = broker.register_publisher("Ada")
            report = broker.publish(publisher.client_id, "(x, leaf)")
            assert report.match_count == 1
            assert report.delivered_count == 1
            assert broker.stats()["engine"]["sharding"]["shards"] == 3

    def test_result_cache_never_survives_cross_shard_churn(self):
        kb = chain_kb()
        with ShardedBroker(kb, shards=2, router=digit_router) as broker:
            subscriber = broker.register_subscriber("Initech", email="hr@initech.example")
            sub0 = broker.subscribe(
                subscriber.client_id, parse_subscription("(x = top)", sub_id="s0")
            )
            publisher = broker.register_publisher("Ada")
            broker.publish(publisher.client_id, "(x, leaf)")  # a first sighting stores nothing
            assert broker.publish(publisher.client_id, "(x, leaf)").match_count == 1
            # a repeat is served from the dispatcher result cache
            assert broker.publish(publisher.client_id, "(x, leaf)").match_count == 1
            assert broker.dispatcher.result_cache_hits == 1
            # churn on the *other* shard must shift the cache key too
            broker.subscribe(subscriber.client_id, parse_subscription("(x = top)", sub_id="s1"))
            assert broker.publish(publisher.client_id, "(x, leaf)").match_count == 2
            broker.unsubscribe(sub0.sub_id)
            assert broker.publish(publisher.client_id, "(x, leaf)").match_count == 1

    def test_mode_switch_via_broker_facade(self):
        kb = chain_kb()
        with ShardedBroker(kb, shards=2) as broker:
            assert broker.mode == "semantic"
            broker.set_syntactic_mode()
            assert all(e.mode == "syntactic" for e in broker.engines)
            broker.set_semantic_mode()
            assert broker.mode == "semantic"
