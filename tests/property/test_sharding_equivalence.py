"""Property: sharded broker ≡ single engine (the PR 5 hard invariant).

:class:`~repro.broker.sharding.ShardedEngine` hash-partitions stored
subscriptions across N engine replicas sharing one knowledge base and
fans every publication out across the shards.  Because a match set is
a per-subscription reduction, partitioning subscriptions must partition
the match set *exactly* — so the merged result has to equal the single
engine's match set AND its reported generalities, in the same global
insertion order.

This suite pins that down across random knowledge bases (the same
generator the interest-pruning invariant uses: taxonomies, value and
attribute synonyms, equivalence/REPLACE/computed mapping rules), shard
counts N ∈ {1, 2, 4}, both fan-out executors (serial, and the
cross-process data plane with its forked workers and pipes), both
indexed matchers, interning and pruning toggles,
subscription churn mid-stream, and knowledge-base writes mid-stream.

The chaos leg extends the process-executor invariant under failure:
with a seeded :class:`~repro.broker.supervision.FaultPlan` killing,
hanging, and corrupting shard workers mid-stream, match sets and
generalities must *still* equal the single engine and **no publish may
ever raise** — recovery (dispose, inline answer, re-fork) is allowed to
cost recoveries, never correctness.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.sharding import ShardedEngine, default_router
from repro.broker.supervision import FaultPlan
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.model.subscriptions import Subscription
from repro.ontology.mappingdefs import MappingRule

from tests.property.test_interest_pruning_equivalence import (
    _TERMS,
    knowledge_bases,
    term_events,
    term_subscriptions,
)


def _match_list(engine, event) -> list[tuple[str, int]]:
    """(sub_id, generality) pairs in reported order — the full
    observable surface: membership, generality, and ordering."""
    return [(m.subscription.sub_id, m.generality) for m in engine.publish(event)]


def _build_pair(kb, matcher, config, shards, executor):
    single = SToPSS(kb, matcher=matcher, config=config)
    sharded = ShardedEngine(kb, shards=shards, matcher=matcher, config=config, executor=executor)
    return single, sharded


@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=6),
    evts=st.lists(term_events(), min_size=1, max_size=4),
    shards=st.sampled_from([1, 2, 4]),
    matcher=st.sampled_from(["counting", "naive"]),
    bound=st.sampled_from([None, 0, 1, 2]),
    interning=st.booleans(),
    pruning=st.booleans(),
)
def test_sharded_equals_single_engine(
    kb, subs, evts, shards, matcher, bound, interning, pruning
):
    config = SemanticConfig(
        max_generality=bound, interning=interning, interest_pruning=pruning
    )
    single, sharded = _build_pair(kb, matcher, config, shards, "serial")
    for index, sub in enumerate(subs):
        bound_sub = Subscription(
            sub.predicates, sub_id=f"s{index}", max_generality=sub.max_generality
        )
        for engine in (single, sharded):
            engine.subscribe(bound_sub)
    for event in evts:
        expected = _match_list(single, event)
        actual = _match_list(sharded, event)
        assert actual == expected, (
            f"shard divergence (N={shards}, {matcher}) on "
            f"{event.format()}: {actual} != {expected}"
        )


@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=2, max_size=6),
    evts=st.lists(term_events(), min_size=2, max_size=4),
    shards=st.sampled_from([2, 4]),
    matcher=st.sampled_from(["counting", "naive"]),
)
def test_sharded_tracks_churn(kb, subs, evts, shards, matcher):
    """Subscribe → publish → unsubscribe half → publish → re-subscribe
    under fresh ids → publish: churn must land on the owning shard and
    every per-shard cache/interest index must track it, with the merged
    order still matching the single engine's insertion order."""
    config = SemanticConfig()
    single, sharded = _build_pair(kb, matcher, config, shards, "serial")
    engines = (single, sharded)
    for index, sub in enumerate(subs):
        for engine in engines:
            engine.subscribe(Subscription(sub.predicates, sub_id=f"s{index}"))
    for event in evts:
        assert _match_list(sharded, event) == _match_list(single, event)
    for index in range(0, len(subs), 2):
        for engine in engines:
            engine.unsubscribe(f"s{index}")
    for event in evts:
        assert _match_list(sharded, event) == _match_list(single, event)
    for index in range(0, len(subs), 2):
        for engine in engines:
            engine.subscribe(Subscription(subs[index].predicates, sub_id=f"r{index}"))
    for event in evts:
        assert _match_list(sharded, event) == _match_list(single, event)


#: sub_ids the churn leg toggles: the first three on shard 0 of two,
#: the last three on shard 1 (the default CRC-32 router)
_SPREAD = ("c4", "c5", "c6", "c0", "c1", "c2")


@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=4),
    evts=st.lists(term_events(), min_size=1, max_size=3),
    toggles=st.lists(
        st.tuples(st.sampled_from(_SPREAD), st.integers(0, 3)), min_size=1, max_size=12
    ),
    matcher=st.sampled_from(["counting", "naive"]),
)
def test_merged_order_follows_churn_interleaved_across_shards(
    kb, subs, evts, toggles, matcher
):
    """Each toggle subscribes an id that is not live (re-subscribing it,
    maybe with other predicates) or unsubscribes one that is, on either
    shard.  A shard's matcher stores the global sequence it is handed,
    so the merged order must equal the single engine's after every
    step: a re-subscribed id moves to the end on both."""
    assert [default_router(sub_id, 2) for sub_id in _SPREAD] == [0, 0, 0, 1, 1, 1]
    single, sharded = _build_pair(kb, matcher, SemanticConfig(), 2, "serial")
    for sub_id, pick in toggles:
        for engine in (single, sharded):
            if sub_id in engine:
                engine.unsubscribe(sub_id)
            else:
                predicates = subs[pick % len(subs)].predicates
                engine.subscribe(Subscription(predicates, sub_id=sub_id))
        order = [sub.sub_id for sub in single.subscriptions()]
        assert [sub.sub_id for sub in sharded.subscriptions()] == order
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)


@settings(deadline=None)
@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=4),
    evts=st.lists(term_events(), min_size=1, max_size=3),
    matcher=st.sampled_from(["counting", "naive"]),
)
def test_process_executor_equals_single_engine(kb, subs, evts, matcher):
    """The cross-process data plane must agree with the single engine —
    match sets AND generalities, in order — through forked workers and
    their pipes, including churn forwarded to the *live* worker
    fleet (subscribe/unsubscribe after the first publish hits running
    workers, not a fresh fork)."""
    single, sharded = _build_pair(kb, matcher, SemanticConfig(), 2, "process")
    try:
        for index, sub in enumerate(subs):
            for engine in (single, sharded):
                engine.subscribe(Subscription(sub.predicates, sub_id=f"s{index}"))
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)
        for engine in (single, sharded):
            engine.unsubscribe("s0")
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)
        for engine in (single, sharded):
            engine.subscribe(Subscription(subs[0].predicates, sub_id="r0"))
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)
        # the clean leg's counter contract: a fault-free run must need
        # zero recovery interventions of any kind (the chaos leg below
        # asserts the same counters are non-zero when faults fire)
        assert all(value == 0 for value in sharded.supervision.snapshot().values())
    finally:
        sharded.close()


@settings(deadline=None)
@given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=2, max_size=4),
    evts=st.lists(term_events(), min_size=2, max_size=3),
    matcher=st.sampled_from(["counting", "naive"]),
    chaos_seed=st.integers(min_value=0, max_value=2**16),
)
def test_process_executor_chaos_equals_single_engine(
    kb, subs, evts, matcher, chaos_seed
):
    """The chaos invariant (the PR 8 acceptance criterion): under a
    seeded FaultPlan that kills, hangs, drops, and corrupts shard
    workers mid-stream, the process data plane still reports
    match sets and generalities identical to the single engine, in
    order, and **no publish ever raises** — then keeps agreeing through
    churn and further publishes after the plan is exhausted.  The
    recovery counters prove the faults actually fired (non-zero here,
    zero in the clean leg above)."""
    # every scheduled fault lands inside the first len(evts) publishes:
    # subscriptions go in before the fleet exists, so early sends are
    # all publishes and each per-shard op counter sweeps every slot
    plan = FaultPlan.seeded(chaos_seed, shards=2, ops=len(evts), rate=0.5)
    single = SToPSS(kb, matcher=matcher, config=SemanticConfig())
    sharded = ShardedEngine(
        kb,
        shards=2,
        matcher=matcher,
        config=SemanticConfig(),
        executor="process",
        fault_plan=plan,
    )
    try:
        for index, sub in enumerate(subs):
            for engine in (single, sharded):
                engine.subscribe(Subscription(sub.predicates, sub_id=f"s{index}"))
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)
        assert plan.pending == 0, "a scheduled fault never fired"
        assert sharded.supervision.recoveries > 0, (
            "faults fired but no recovery was recorded"
        )
        # post-chaos convergence: churn then publish again on a fleet
        # that has been through disposals and re-forks — still identical
        for engine in (single, sharded):
            engine.unsubscribe("s0")
            engine.subscribe(Subscription(subs[0].predicates, sub_id="r0"))
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)
    finally:
        sharded.close()


# ---------------------------------------------------------------------------
# knowledge-base writes mid-stream
# ---------------------------------------------------------------------------

def _write_kb(kb, kind, subs, term) -> None:
    """One ontology write of *kind*, shaped so it can change what the
    generated subscriptions and events mean to each other."""
    if kind == "attribute-synonyms":
        # a new group whose root renames an attribute the first
        # subscription already uses: its stored root form goes stale
        # ("u" may already sit in an explicitly rooted group, which
        # cannot be re-rooted — take "v" then)
        attribute = subs[0].predicates[0].attribute
        if attribute == "u":
            attribute = "v"
        kb.add_attribute_synonyms([attribute, f"{attribute}_renamed"], root=f"{attribute}_renamed")
    elif kind == "value-synonyms":
        kb.add_value_synonyms([term, "zzz"])
    elif kind == "is-a":
        kb.taxonomy("d").add_isa("free text", term)
    else:
        kb.add_rule(MappingRule.equivalence("r-late", {"u": "t1"}, {"v": term}))


_KB_WRITES = ("attribute-synonyms", "value-synonyms", "is-a", "rule")


def _check_kb_writes_mid_stream(kb, subs, evts, matcher, writes, term, executor):
    """Subscribe → publish → write the knowledge base → publish, once
    per write, then a late subscription: at every step the sharded
    engine reports what the single engine reports.

    What a single engine *should* do with state derived before the
    write (a stale root form) is not decided here — only that sharding,
    and forking, change none of it: a worker that re-derived such state
    from the new knowledge base would answer differently from the
    replica it stands in for."""
    single, sharded = _build_pair(kb, matcher, SemanticConfig(), 2, executor)
    engines = (single, sharded)
    try:
        for index, sub in enumerate(subs):
            for engine in engines:
                engine.subscribe(Subscription(sub.predicates, sub_id=f"s{index}"))
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)
        for kind in writes:
            _write_kb(kb, kind, subs, term)
            for event in evts:
                assert _match_list(sharded, event) == _match_list(single, event), (
                    f"divergence after {kind} write on {event.format()}"
                )
        # a subscription made under the new ontology sits next to the
        # ones made under the old one
        for engine in engines:
            engine.subscribe(Subscription(subs[0].predicates, sub_id="late"))
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)
    finally:
        sharded.close()


_kb_write_cases = given(
    kb=knowledge_bases(),
    subs=st.lists(term_subscriptions(), min_size=1, max_size=4),
    evts=st.lists(term_events(), min_size=1, max_size=3),
    matcher=st.sampled_from(["counting", "naive"]),
    writes=st.lists(st.sampled_from(_KB_WRITES), min_size=1, unique=True),
    term=st.sampled_from(_TERMS),
)


@_kb_write_cases
def test_sharded_tracks_kb_writes(kb, subs, evts, matcher, writes, term):
    _check_kb_writes_mid_stream(kb, subs, evts, matcher, writes, term, "serial")


@settings(deadline=None)
@_kb_write_cases
def test_process_executor_tracks_kb_writes(kb, subs, evts, matcher, writes, term):
    """Each write makes the next publish discard the fleet and fork a
    new one from the parent replicas as they are — stale root forms and
    all."""
    _check_kb_writes_mid_stream(kb, subs, evts, matcher, writes, term, "process")


# ---------------------------------------------------------------------------
# mega-ontology leg (nightly): chaos on a 100k-term generated world
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    os.environ.get("STOPSS_STRESS_LARGE") != "1",
    reason="100k-term world (nightly; set STOPSS_STRESS_LARGE=1 to run)",
)
def test_chaos_on_mega_world_equals_single_engine():
    """The chaos invariant at scale: the same seeded fault storm, but
    against a generated 110k-concept world instead of the hypothesis
    toys — the forked replicas, their pipes, and degraded inline
    publish all carry full-size closure state here."""
    from repro.workload.worlds import build_world

    world = build_world("mega-100k")
    generator = world.generator(seed=77)
    subs = generator.subscriptions(16)
    evts = generator.events(5)
    plan = FaultPlan.seeded(1303, shards=2, ops=len(evts), rate=0.5)
    single = SToPSS(world.kb)
    sharded = ShardedEngine(
        world.kb,
        shards=2,
        executor="process",
        fault_plan=plan,
    )
    try:
        for engine in (single, sharded):
            for index, sub in enumerate(subs):
                engine.subscribe(
                    Subscription(
                        sub.predicates,
                        sub_id=f"s{index}",
                        max_generality=sub.max_generality,
                    )
                )
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)
        assert plan.pending == 0, "a scheduled fault never fired"
        assert sharded.supervision.recoveries > 0
        for engine in (single, sharded):
            engine.unsubscribe("s0")
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event)
    finally:
        sharded.close()
