"""Cross-world invariant harness: every hard invariant, on generated
stress worlds instead of only jobfinder.

PRs 1–9 each pinned one hard invariant (ROADMAP.md), but always against
the same toy knowledge bases.  This suite re-runs the differential ones
against the seeded mega-ontology worlds from :mod:`repro.workload.worlds`
(the tolerance rule itself is pinned against a declarative oracle on
random taxonomies, ``tests/property/test_tolerance_oracle.py``):

1. **tolerance bounds** — a system-wide bound ≡ the same bound on each
   subscription;
2. **interning** — dense-id concept-table identity ≡ the string path;
3. **pruning** — demand-driven interest pruning ≡ exhaustive expansion;
4. **sharding** — the partitioned broker ≡ the single engine, including
   the cross-process data plane (forked workers + their pipes);
5. **chaos** — sharded-under-seeded-faults ≡ the single engine, no
   publish ever raises, recoveries actually happened;
6. **crash-recovery** — recover-and-resume ≡ the run that never
   crashed, at several journal crash offsets;
7. **reference matcher** — the counting matcher on its factored
   expansion ≡ the naive matcher on the exhaustive product.

The parametrized ``world`` fixture is module-scoped so each world (and
its shared concept-table closure memos) is built once per run.  Small
worlds run in tier-1/CI; the 100k+ worlds are nightly legs, enabled by
``STOPSS_STRESS_LARGE=1`` (the ``property-thorough`` / ``stress-worlds``
nightly CI jobs set it).
"""

from __future__ import annotations

import os

import pytest

from repro.broker.broker import Broker
from repro.broker.sharding import ShardedEngine
from repro.broker.supervision import FaultPlan
from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.model.subscriptions import Subscription
from repro.workload.worlds import build_world

from tests.property.test_crash_recovery_equivalence import (
    _assert_acked_at_most_once,
    _build_ops,
    _observable,
    _probe,
    _run_clean,
    _run_crashed,
)

#: tier-1 worlds: two generated shapes (wide-ish heap vs deep spine)
_CI_WORLDS = ("mega-small", "mega-deep")
#: nightly worlds: the 100k+-term stress legs
_LARGE_WORLDS = ("mega-100k", "mega-wide-100k")

_LARGE_ENABLED = os.environ.get("STOPSS_STRESS_LARGE") == "1"
_large_skip = pytest.mark.skipif(
    not _LARGE_ENABLED,
    reason="100k-term world (nightly; set STOPSS_STRESS_LARGE=1 to run)",
)


def _world_params():
    return [pytest.param(name, id=name) for name in _CI_WORLDS] + [
        pytest.param(name, id=name, marks=_large_skip) for name in _LARGE_WORLDS
    ]


@pytest.fixture(scope="module", params=_world_params())
def world(request):
    return build_world(request.param)


@pytest.fixture(scope="module")
def workload(world):
    """One seeded (subscriptions, events) workload per world — sized
    down on the 100k worlds so the nightly matrix stays bounded."""
    big = world.counters["world_concepts"] > 50_000
    generator = world.generator(seed=2026)
    n_subs, n_evts = (24, 6) if big else (40, 8)
    return generator.subscriptions(n_subs), generator.events(n_evts)


def _fresh(sub: Subscription) -> Subscription:
    return Subscription(sub.predicates, sub_id=sub.sub_id, max_generality=sub.max_generality)


def _match_list(engine, event) -> list[tuple[str, int]]:
    """(sub_id, generality) pairs in reported order — membership,
    generality, and ordering, the full observable surface."""
    return [(m.subscription.sub_id, m.generality) for m in engine.publish(event)]


def _loaded(engine, subs):
    for sub in subs:
        engine.subscribe(_fresh(sub))
    return engine


# -- 1. tolerance bounds ----------------------------------------------------------


@pytest.mark.parametrize("bound", [0, 2, 8])
def test_tolerance_bounds(world, workload, bound):
    """A subscription's own bound and the system-wide bound charge the
    same chain budget: both report the same matches, at the same
    generality, none of them beyond *bound*."""
    subs, evts = workload
    system = _loaded(SToPSS(world.kb, config=SemanticConfig(max_generality=bound)), subs)
    own = SToPSS(world.kb)
    for sub in subs:
        tighter = bound if sub.max_generality is None else min(bound, sub.max_generality)
        own.subscribe(Subscription(sub.predicates, sub_id=sub.sub_id, max_generality=tighter))
    for event in evts:
        expected = _match_list(system, event)
        assert not system.last_truncated
        assert all(generality <= bound for _, generality in expected)
        assert _match_list(own, event) == expected, f"own bound diverged on {world.name}"


# -- 2. interning ---------------------------------------------------------------


def test_interning_equivalence(world, workload):
    subs, evts = workload
    interned = _loaded(SToPSS(world.kb, config=SemanticConfig(interning=True)), subs)
    strings = _loaded(SToPSS(world.kb, config=SemanticConfig(interning=False)), subs)
    for event in evts:
        assert _match_list(interned, event) == _match_list(strings, event), (
            f"interning diverged on {world.name}"
        )


# -- 3. pruning -----------------------------------------------------------------


def test_pruning_equivalence(world, workload):
    subs, evts = workload
    pruned = _loaded(
        SToPSS(world.kb, config=SemanticConfig(interest_pruning=True)), subs
    )
    exhaustive = _loaded(
        SToPSS(world.kb, config=SemanticConfig(interest_pruning=False)), subs
    )
    for event in evts:
        assert _match_list(pruned, event) == _match_list(exhaustive, event), (
            f"pruning diverged on {world.name}"
        )
    info = pruned.interest_info()
    assert info["enabled"], "interest pruning self-disabled on a declarative world"
    assert info["prune_checks"] > 0, "the pruned engine never consulted the index"


# -- 4. sharding (serial + process data plane) -----------------------------------


def test_sharded_equals_single_engine(world, workload):
    subs, evts = workload
    single = _loaded(SToPSS(world.kb), subs)
    sharded = _loaded(ShardedEngine(world.kb, shards=2, executor="serial"), subs)
    for event in evts:
        assert _match_list(sharded, event) == _match_list(single, event), (
            f"shard divergence on {world.name}"
        )
    # churn mid-stream: the refcounted per-shard interest must track it
    for engine in (single, sharded):
        engine.unsubscribe(subs[0].sub_id)
    for event in evts:
        assert _match_list(sharded, event) == _match_list(single, event)


def test_process_executor_equals_single_engine(world, workload):
    subs, evts = workload
    single = _loaded(SToPSS(world.kb), subs)
    sharded = _loaded(ShardedEngine(world.kb, shards=2, executor="process"), subs)
    try:
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event), (
                f"process data plane diverged on {world.name}"
            )
        assert all(value == 0 for value in sharded.supervision.snapshot().values())
    finally:
        sharded.close()


# -- 5. chaos ---------------------------------------------------------------------


def test_chaos_equals_single_engine(world, workload):
    """Seeded fault storm against the process plane on a
    generated world: identical match lists, no publish raises, and the
    recovery counters prove the faults fired."""
    subs, evts = workload
    plan = FaultPlan.seeded(world.counters["world_concepts"], shards=2, ops=len(evts), rate=0.5)
    single = _loaded(SToPSS(world.kb), subs)
    sharded = _loaded(
        ShardedEngine(
            world.kb,
            shards=2,
            executor="process",
            fault_plan=plan,
        ),
        subs,
    )
    try:
        for event in evts:
            assert _match_list(sharded, event) == _match_list(single, event), (
                f"chaos divergence on {world.name}"
            )
        assert plan.pending == 0, "a scheduled fault never fired"
        assert sharded.supervision.recoveries > 0, "no recovery was recorded"
    finally:
        sharded.close()


# -- 6. crash-recovery ------------------------------------------------------------


def test_crash_recovery_equals_uncrashed(world, workload, tmp_path):
    """Crash the journal at several offsets, recover, resume — same
    observable state, probe matches, and ack-at-most-once as the run
    that never crashed (reusing the PR 9 suite's helpers verbatim)."""
    subs, evts = workload
    ops = _build_ops(subs[:5], evts[:3])
    probe = evts[0]
    expected, total_appends, clean_probe = _run_clean(
        tmp_path / "clean", world.kb, ops, probe
    )
    offsets = sorted({0, total_appends // 3, (2 * total_appends) // 3, total_appends})
    for offset in offsets:
        work = tmp_path / f"crash{offset}"
        recovered = _run_crashed(work, world.kb, ops, offset)
        try:
            assert _observable(recovered) == expected, (
                f"state diverged at offset {offset} on {world.name}"
            )
            assert _probe(recovered, probe) == clean_probe, (
                f"probe diverged at offset {offset} on {world.name}"
            )
            _assert_acked_at_most_once(work)
        finally:
            recovered.close()


# -- 7. reference matcher ---------------------------------------------------------


def test_counting_equals_naive_reference(world, workload):
    """The default matcher against the reference: the counting matcher
    takes a factored batch (free attributes carried as alternatives),
    the naive one the exhaustive product it scans derivation by
    derivation — same matches, generalities and order.  Unbounded, these
    worlds' products outgrow ``max_derived_events``; the bound leg 1
    also uses keeps every product whole, so the two must agree exactly."""
    subs, evts = workload
    config = SemanticConfig(max_generality=8)
    counting = _loaded(SToPSS(world.kb, matcher="counting", config=config), subs)
    naive = _loaded(SToPSS(world.kb, matcher="naive", config=config), subs)
    matched = 0
    for event in evts:
        expected = _match_list(naive, event)
        assert not naive.last_truncated, f"reference product truncated on {world.name}"
        assert _match_list(counting, event) == expected, (
            f"counting diverged from naive on {world.name}"
        )
        matched += len(expected)
    assert matched, f"world {world.name} produced no match to compare"


# -- full pipeline smoke: the acceptance clause -----------------------------------


def test_world_publishes_through_broker_facade(world, workload):
    """Every generated world publishes through the full broker facade
    (registration, semantic expansion, delivery) and produces at least
    one semantic match — generated worlds are load-bearing, not inert."""
    subs, evts = workload
    with Broker(world.kb) as broker:
        broker.register_subscriber("Crowd", tcp="crowd:1", client_id="cl-s")
        broker.register_publisher("Feed", client_id="cl-p")
        for sub in subs:
            broker.subscribe("cl-s", _fresh(sub))
        matches = sum(len(broker.publish("cl-p", event).matches) for event in evts)
    assert matches > 0, f"world {world.name} produced a degenerate workload"
