"""Unit tests for the stress-world substrate: the mega-ontology
builder, the named-world registry, byte-for-byte determinism across
``PYTHONHASHSEED`` values, and the flash-crowd churn driver (including
the ≥10k-op leak test against the refcounted InterestIndex, the
matcher memos, and the expansion cache)."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

from repro.broker.broker import Broker
from repro.core.engine import SToPSS
from repro.errors import WorkloadError
from repro.ontology.concept_table import ConceptTable
from repro.ontology.concepts import Concept
from repro.ontology.taxonomy import Taxonomy
from repro.matching import matcher_names
from repro.workload import worlds as worlds_module
from repro.workload.worlds import (
    FlashCrowdDriver,
    FlashCrowdSpec,
    MegaOntologySpec,
    build_world,
    engine_footprint,
    register_world,
    world_names,
    world_spec,
)

_REPO_ROOT = Path(__file__).resolve().parents[2]


class TestMegaOntologySpec:
    def test_defaults_valid(self):
        MegaOntologySpec(name="w", concepts=100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"attributes": 0},
            {"depth": 1},
            {"branching": 0},
            {"concepts": 20, "attributes": 4, "depth": 6},
            {"synonym_ring_size": 1},
            {"rules_per_1000": -0.5},
            {"extra_parent_every": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            MegaOntologySpec(**{"name": "w", "concepts": 400, **kwargs})


class TestRegistry:
    def test_catalog_names(self):
        names = world_names()
        assert names == tuple(sorted(names))
        for expected in ("jobfinder", "mega-small", "mega-deep", "mega-100k", "mega-wide-100k"):
            assert expected in names

    def test_unknown_world_rejected(self):
        with pytest.raises(WorkloadError, match="unknown world"):
            world_spec("no-such-world")
        with pytest.raises(WorkloadError, match="unknown world"):
            build_world("no-such-world")

    def test_register_and_build_custom_world(self):
        spec = MegaOntologySpec(name="custom-unit-world", concepts=120, attributes=2, seed=3)
        register_world(spec)
        try:
            with pytest.raises(WorkloadError, match="already registered"):
                register_world(spec)
            world = build_world("custom-unit-world")
            assert world.counters["world_concepts"] == 120
        finally:
            worlds_module._SPECS.pop("custom-unit-world", None)

    def test_builtin_name_collision_rejected(self):
        with pytest.raises(WorkloadError, match="already registered"):
            register_world(MegaOntologySpec(name="jobfinder", concepts=100))


class TestBuilder:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world("mega-small")

    def test_counters_match_spec(self, world):
        spec = world.spec
        assert world.counters["world_concepts"] == spec.concepts
        assert world.counters["world_depth"] >= spec.depth
        assert world.counters["world_rules"] == round(
            spec.rules_per_1000 * spec.concepts / 1000
        )
        assert world.counters["world_terms"] == (
            world.counters["world_concepts"] + world.counters["world_synonym_spellings"]
        )
        assert world.build_seconds > 0

    @pytest.mark.parametrize("name", ["mega-small", "mega-deep"])
    def test_shape_counters_are_the_taxonomys(self, name):
        """The builder counts the shape as it builds (heights included,
        second parents and all); the taxonomy's own post-order agrees."""
        world = build_world(name)
        taxonomy = world.kb.taxonomy(world.spec.domain)
        stats = taxonomy.stats()
        assert world.counters["world_depth"] == taxonomy.depth()
        assert [world.counters[f"world_{key}"] for key in ("concepts", "edges", "leaves")] == [
            stats[key] for key in ("concepts", "edges", "leaves")
        ]

    def test_leaf_pools_are_the_taxonomy_leaves(self, world):
        taxonomy = world.kb.taxonomy(world.spec.domain)
        pooled = sorted(term for pool in world.leaf_pools.values() for term in pool)
        assert pooled == list(taxonomy.leaves())
        assert len(pooled) == world.counters["world_leaves"]

    def test_repeated_build_is_identical(self, world):
        """The determinism pin, in-process: two builds of the same spec
        agree on every structural surface and on generated workloads."""
        again = build_world("mega-small")
        assert again.counters == world.counters
        assert again.leaf_pools == world.leaf_pools
        assert again.kb.stats() == world.kb.stats()
        a, b = world.generator(seed=9), again.generator(seed=9)
        assert [s.format() for s in a.subscriptions(30)] == [
            s.format() for s in b.subscriptions(30)
        ]
        assert [e.format() for e in a.events(30)] == [e.format() for e in b.events(30)]

    def test_generator_seed_override(self, world):
        default = world.generator()
        assert default.spec.seed == world.semantic_spec.seed
        seeded = world.generator(seed=123)
        assert seeded.spec.seed == 123
        other = world.generator(seed=124)
        assert [e.format() for e in seeded.events(10)] != [
            e.format() for e in other.events(10)
        ]

    def test_world_is_matchable(self, world):
        """A generated world is load-bearing: semantic matches happen."""
        engine = SToPSS(world.kb)
        generator = world.generator(seed=1)
        for sub in generator.subscriptions(30):
            engine.subscribe(sub)
        assert sum(len(engine.publish(e)) for e in generator.events(10)) > 0

    def test_jobfinder_world_wraps_demo_kb(self):
        world = build_world("jobfinder")
        assert world.spec is None and world.leaf_pools is None
        assert world.counters["world_concepts"] > 0
        assert world.generator(seed=2).events(3)


class TestCompactOntology:
    @pytest.mark.parametrize("name", world_names())
    def test_stats_counts_agree_with_the_sorted_listings(self, name):
        """``Taxonomy.stats()`` counts roots and leaves from the sparse
        adjacency without building either listing; the counts are the
        listings' lengths on every catalog world."""
        kb = build_world(name).kb
        for domain in kb.domains():
            taxonomy = kb.taxonomy(domain)
            stats = taxonomy.stats()
            assert stats["roots"] == len(taxonomy.roots())
            assert stats["leaves"] == len(taxonomy.leaves())
            assert stats["edges"] == sum(1 for _ in taxonomy.isa_edges())

    def test_a_built_taxonomy_retains_no_concept(self):
        """A taxonomy stores indexes, strings and int rows; a
        :class:`Concept` is built when one is read and is not kept —
        not by the taxonomies, not by the concept table built from
        them, not by anything else the knowledge base holds."""
        kb = build_world("mega-small").kb
        kb.concept_table()
        reached = list(_reachable(kb))
        assert any(type(obj) is Taxonomy for obj in reached)
        assert any(type(obj) is ConceptTable for obj in reached)
        assert not [obj for obj in reached if isinstance(obj, Concept)]
        # reading builds values, and they are not retained either
        for domain in kb.domains():
            assert all(isinstance(concept, Concept) for concept in kb.taxonomy(domain))
        assert not [obj for obj in _reachable(kb) if isinstance(obj, Concept)]

    def test_mega_small_footprint_per_concept(self):
        """The ontology stores what a concept has, not a container per
        relation it might have: a whole ``mega-small`` world (taxonomy,
        synonym rings, rules) stays within 420 bytes per concept.  A
        dict-set per concept and direction cost ~685."""
        build_world("mega-small")  # imports and one-time caches out of the count
        tracemalloc.start()
        try:
            world = build_world("mega-small")
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_concept = allocated / world.counters["world_concepts"]
        assert per_concept <= 420, f"{per_concept:.0f} B per concept"


def _reachable(root):
    """Every object reachable from *root* through references, without
    entering classes, modules or functions (which reach everything)."""
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


_DIGEST_SCRIPT = """
import hashlib, json
from repro.workload.worlds import build_world
world = build_world("mega-deep")
generator = world.generator(seed=7)
parts = [json.dumps({**world.stats(), "build_seconds": 0}, sort_keys=True)]
parts += ["|".join(pool) for _, pool in sorted(world.leaf_pools.items())]
parts += [json.dumps(world.kb.stats(), sort_keys=True, default=str)]
parts += [s.format() for s in generator.subscriptions(40)]
parts += [e.format() for e in generator.events(40)]
print(hashlib.sha256("\\n".join(parts).encode()).hexdigest())
"""


#: a fixed subscribe + publish script, then the concept table's own
#: counters: what was filled must not depend on set iteration order
_TABLE_STATS_SCRIPT = """
import json
from repro.core.engine import SToPSS
from repro.workload.worlds import build_world
world = build_world("mega-small")
engine = SToPSS(world.kb)
generator = world.generator(seed=11)
for subscription in generator.subscriptions(80):
    engine.subscribe(subscription)
matches = [sorted(m.subscription.sub_id for m in engine.publish(e)) for e in generator.events(25)]
print(json.dumps([world.kb.concept_table().stats(), matches], sort_keys=True))
"""


def _stdout_under_hash_seed(hash_seed: str, script: str = _DIGEST_SCRIPT) -> str:
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": str(_REPO_ROOT / "src"),
    }
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        cwd=_REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


def test_world_build_is_hash_seed_independent():
    """The cross-process determinism pin: the same spec builds the same
    world (taxonomy, leaf pools, synonyms, rules) and generates the
    same workload under wildly different ``PYTHONHASHSEED`` values —
    i.e. no set/dict iteration order ever feeds the rng."""
    digests = {_stdout_under_hash_seed(seed) for seed in ("0", "4242")}
    assert len(digests) == 1, "world build depends on the hash seed"


def test_concept_table_fills_are_hash_seed_independent():
    """The same script fills the same closures and settles the same
    number of terms (``closure_fill_steps``) under any hash seed: the
    table's graph is stored in sorted-id order and taxonomy edges in
    declaration order, so no walk enumerates a set of strings."""
    outputs = {_stdout_under_hash_seed(seed, _TABLE_STATS_SCRIPT) for seed in ("0", "4242")}
    assert len(outputs) == 1, "concept-table fills depend on the hash seed"
    stats, _ = json.loads(outputs.pop())
    assert stats["closure_fill_steps"] > 0 and stats["up_closures"] > 0


class TestFlashCrowd:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world("mega-small")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"residents": -1},
            {"warm_events": 0},
            {"churn_ops": 1},
            {"burst": 0},
            {"max_crowd": 0},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            FlashCrowdSpec(**kwargs)

    @pytest.mark.parametrize("matcher", matcher_names())
    def test_storm_returns_to_baseline(self, world, matcher):
        """The ≥10k-op leak test on every shipped matcher, with no
        exemption: the refcounted InterestIndex and the matcher memo
        must both return exactly to the pre-storm footprint once the
        crowd has left."""
        engine = SToPSS(world.kb, matcher=matcher)
        spec = FlashCrowdSpec(residents=60, churn_ops=10_000, burst=100, seed=5)
        report = FlashCrowdDriver(world.generator(seed=5), spec).run(engine)
        assert report.churn_ops >= 10_000
        assert report.final == report.baseline, report.as_dict()
        assert not report.leaked
        # the storm really stressed the index: the crowd pushed it past
        # the resident baseline before draining back down
        assert report.peak_crowd > 0
        assert report.peak_interest_index_size > report.baseline["interest_index_size"]
        assert report.matches > 0
        assert report.churn_ops_per_second > 0
        # and the engine footprint helper reports the same live state
        assert engine_footprint(engine) == report.final

    def test_storm_through_a_broker_leaves_no_notifier_residue(self, world):
        """The same contract one layer up: a crowd subscription that
        received deliveries and then left must leave nothing in the
        notification engine's per-subscription stores (delivery log,
        sequence counter, frontier) — their keys return to residents
        only, so neither memory nor snapshots grow with churn."""
        spec = FlashCrowdSpec(residents=30, churn_ops=1_500, burst=40, seed=9)
        broker = Broker(world.kb)
        broker.register_subscriber("Crowd", tcp="crowd:1", client_id="cl-s")
        broker.register_publisher("Feed", client_id="cl-p")
        notifier = broker.notifier
        # the log holds the sequence counter and frontier too
        stores = (notifier._delivery_log,)
        before_crowd = None
        crowd_keys_peak = 0
        for kind, payload in FlashCrowdDriver(world.generator(seed=9), spec).ops():
            if kind == "subscribe":
                if before_crowd is None and payload.sub_id.startswith("crowd-"):
                    before_crowd = [set(store) for store in stores]
                broker.subscribe("cl-s", payload)
            elif kind == "unsubscribe":
                broker.unsubscribe(payload)
            else:
                broker.publish("cl-p", payload)
                crowd_keys_peak = max(
                    crowd_keys_peak, sum(key.startswith("crowd-") for key in notifier._delivery_log)
                )
        residents = {sub.sub_id for sub in broker.engine.subscriptions()}
        assert len(residents) == spec.residents
        # the storm really delivered to transient subscriptions
        assert crowd_keys_peak > 0
        for store, before in zip(stores, before_crowd):
            # pre-crowd keys plus residents first reached during the storm
            assert before <= set(store) <= residents
        # every unsubscribe of the storm's tail forgot its subscription
        assert not any(key.startswith("crowd-") for store in stores for key in store)

    def test_ops_stream_is_deterministic_and_drains(self, world):
        spec = FlashCrowdSpec(residents=10, churn_ops=200, burst=20, seed=7)
        first = list(FlashCrowdDriver(world.generator(seed=7), spec).ops())
        second = list(FlashCrowdDriver(world.generator(seed=7), spec).ops())
        assert [(k, getattr(p, "format", lambda: p)()) for k, p in first] == [
            (k, getattr(p, "format", lambda: p)()) for k, p in second
        ]
        live: set[str] = set()
        kinds = {"subscribe": 0, "unsubscribe": 0, "publish": 0}
        for kind, payload in first:
            kinds[kind] += 1
            if kind == "subscribe":
                live.add(payload.sub_id)
            elif kind == "unsubscribe":
                assert payload in live
                live.remove(payload)
        # every transient subscription drained; only residents remain
        assert len(live) == spec.residents
        assert kinds["subscribe"] + kinds["unsubscribe"] - spec.residents >= spec.churn_ops
        assert kinds["publish"] >= spec.warm_events

    def test_ops_stream_replays_through_an_engine(self, world):
        """The replayable stream applies cleanly to a live engine and
        leaves exactly the residents subscribed."""
        spec = FlashCrowdSpec(residents=8, churn_ops=100, burst=10, seed=8)
        engine = SToPSS(world.kb)
        matches = 0
        for kind, payload in FlashCrowdDriver(world.generator(seed=8), spec).ops():
            if kind == "subscribe":
                engine.subscribe(payload)
            elif kind == "unsubscribe":
                engine.unsubscribe(payload)
            else:
                matches += len(engine.publish(payload))
        assert len(engine) == spec.residents
        assert matches > 0

    def test_run_is_a_fold_over_the_ops_stream(self, world):
        """``run()`` applies exactly ``ops()`` plus the closing warm
        republish: replaying the stream by hand on a second engine ends
        with the same subscriptions, op counts and match total.  (An
        odd ``churn_ops`` leaves a straggler for the final drain.)"""
        spec = FlashCrowdSpec(residents=8, churn_ops=101, burst=10, warm_events=3, seed=8)
        engine = SToPSS(world.kb)
        report = FlashCrowdDriver(world.generator(seed=8), spec).run(engine)
        by_hand = SToPSS(world.kb)
        published = []
        matches = churn_ops = 0
        for kind, payload in FlashCrowdDriver(world.generator(seed=8), spec).ops():
            if kind == "publish":
                published.append(payload)
                matches += len(by_hand.publish(payload))
                continue
            if kind == "subscribe":
                by_hand.subscribe(payload)
            else:
                by_hand.unsubscribe(payload)
            churn_ops += 1
        warm = published[: spec.warm_events]
        matches += sum(len(by_hand.publish(event)) for event in warm)
        assert report.matches == matches > 0
        assert report.publishes == len(published) + len(warm)
        assert report.churn_ops == churn_ops - spec.residents == spec.churn_ops + 1
        assert [sub.sub_id for sub in engine.subscriptions()] == [
            sub.sub_id for sub in by_hand.subscriptions()
        ]
        assert len(engine) == spec.residents
        assert engine_footprint(by_hand) == report.final == report.baseline
