"""Stress worlds: seeded mega-ontology generation beyond jobfinder.

Every number and invariant in this repo was originally measured
against one toy workload family (the jobfinder knowledge base).  This
module is the scale axis: a seeded :class:`MegaOntologySpec` builds
named worlds of up to hundreds of thousands of taxonomy terms — with
deep/wide shape knobs, dense value-synonym rings, attribute-synonym
groups, and a configurable mapping-rule density — deterministically
under any ``PYTHONHASHSEED``, so the closure-memo, InterestIndex, and
kernel-plan machinery can be pushed far past the demo ontologies.

Shape model (per term attribute, one subtree):

* the first ``depth`` concepts form a **spine** chain (the minimum
  generalization depth every leaf pays);
* the remaining concepts hang off the spine's end as a ``branching``-ary
  heap, so ``branching=2`` grows deep and ``branching=64`` grows wide;
* every ``extra_parent_every``-th heap concept gains a second is-a
  parent picked (seeded) among earlier concepts — the DAG leg, never a
  cycle because parents always precede children in build order.

Determinism: the builder iterates only over lists and ranges, names
concepts by index, and draws every random choice from one
``random.Random(spec.seed)`` — no set or dict iteration feeds the rng,
so two builds agree byte-for-byte across processes and hash seeds (the
workload-generator unit suite pins this with a subprocess test).

The flash-crowd driver is the churn leg: it interleaves bursts of
subscribe/unsubscribe ops with publications mid-stream — the first
real workout for the refcounted incremental
:class:`~repro.core.interest.InterestIndex` — and reports whether the
index and matcher memo footprints returned to their pre-storm
baseline once the crowd left.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator

from repro.errors import WorkloadError
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule
from repro.workload.generator import SemanticSpec, SemanticWorkloadGenerator

__all__ = [
    "MegaOntologySpec",
    "World",
    "build_world",
    "world_names",
    "world_spec",
    "register_world",
    "FlashCrowdSpec",
    "FlashCrowdDriver",
    "FlashCrowdReport",
    "engine_footprint",
]


# ---------------------------------------------------------------------------
# World specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MegaOntologySpec:
    """Parameters of one generated stress world.

    ``concepts`` is the total taxonomy size, split evenly across
    ``attributes`` independent subtrees (one per term attribute).
    ``depth`` and ``branching`` are the shape knobs (spine length and
    heap fan-out; see the module docstring).  ``synonym_ring_every`` /
    ``synonym_ring_size`` control value-synonym density (a ring on
    every Nth concept), ``rules_per_1000`` the mapping-rule density
    (declarative equivalence rules, so InterestIndex pruning stays
    sound — a ``reads=None`` function rule would disable it globally).
    """

    name: str
    concepts: int
    attributes: int = 4
    depth: int = 6
    branching: int = 6
    synonym_ring_every: int = 40
    synonym_ring_size: int = 3
    attribute_synonyms: int = 2
    rules_per_1000: float = 1.0
    extra_parent_every: int = 97
    numeric_attributes: int = 2
    generality_bias: float = 0.4
    synonym_spelling_prob: float = 0.4
    value_synonym_prob: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("world name must be non-empty")
        if self.attributes < 1:
            raise WorkloadError("a world needs at least one term attribute")
        if self.depth < 2 or self.branching < 1:
            raise WorkloadError("depth must be >= 2 and branching >= 1")
        if self.concepts < self.attributes * (self.depth + 1):
            raise WorkloadError(
                f"{self.concepts} concepts cannot fill {self.attributes} "
                f"subtrees of spine depth {self.depth}"
            )
        if self.synonym_ring_every < 0 or self.synonym_ring_size < 2:
            raise WorkloadError("bad synonym ring parameters")
        if self.rules_per_1000 < 0 or self.extra_parent_every < 0:
            raise WorkloadError("densities must be non-negative")

    @property
    def domain(self) -> str:
        return self.name


@dataclass
class World:
    """A built world: the knowledge base, its generator spec, the
    per-attribute leaf pools (so workload generation never re-scans a
    100k-term taxonomy), and build metadata."""

    spec: MegaOntologySpec | None
    kb: KnowledgeBase
    semantic_spec: SemanticSpec
    leaf_pools: dict[str, list[str]] | None
    build_seconds: float
    name: str = ""
    counters: dict[str, int] = field(default_factory=dict)

    def generator(self, *, seed: int | None = None) -> SemanticWorkloadGenerator:
        """A seeded workload generator over this world (``seed``
        overrides the spec's, for independent streams)."""
        spec = self.semantic_spec
        if seed is not None:
            spec = SemanticSpec(
                **{**spec.__dict__, "seed": seed}  # frozen dataclass copy
            )
        return SemanticWorkloadGenerator(self.kb, spec, leaf_pools=self.leaf_pools)

    def stats(self) -> dict[str, object]:
        return {"world": self.name, "build_seconds": self.build_seconds, **self.counters}


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

def _build_mega_world(spec: MegaOntologySpec) -> World:
    started = time.perf_counter()
    rng = random.Random(spec.seed)
    kb = KnowledgeBase(name=spec.name)
    taxonomy = kb.add_domain(spec.domain)

    per_subtree = spec.concepts // spec.attributes
    leaf_pools: dict[str, list[str]] = {}
    term_attributes: list[tuple[str, str]] = []
    subtree_nodes: list[list[str]] = []
    synonym_spellings = 0
    # the taxonomy's shape counters, kept as it is built: build order is
    # topological, so a concept's height (its longest is-a chain up) is
    # final when it is added
    edges = depth = 0

    for index in range(spec.attributes):
        attribute = f"{spec.name}-a{index}"
        root = f"{attribute}-c0"
        nodes: list[str] = []
        child_counts: list[int] = []
        heights: list[int] = []
        for j in range(per_subtree):
            term = f"{attribute}-c{j}"
            nodes.append(term)
            child_counts.append(0)
            if j == 0:
                taxonomy.add_concept(term)
                heights.append(0)
                continue
            if j < spec.depth:
                parent = j - 1  # the spine chain
            else:
                # a branching-ary heap hanging off the spine's end
                parent = spec.depth - 1 + (j - spec.depth) // spec.branching
            taxonomy.add_isa(term, nodes[parent])
            child_counts[parent] += 1
            height = heights[parent] + 1
            if (
                spec.extra_parent_every
                and j >= spec.depth
                and j % spec.extra_parent_every == 0
            ):
                # a second parent among strictly earlier concepts: build
                # order is topological, so this can never close a cycle
                second = rng.randrange(0, j - 1)
                if second != parent:
                    taxonomy.add_isa(term, nodes[second])
                    child_counts[second] += 1
                    edges += 1
                    height = max(height, heights[second] + 1)
            heights.append(height)
        edges += per_subtree - 1
        depth = max(depth, max(heights, default=0))
        leaves = [nodes[j] for j in range(per_subtree) if child_counts[j] == 0]
        leaf_pools[attribute] = leaves
        term_attributes.append((attribute, root))
        subtree_nodes.append(nodes)

        if spec.attribute_synonyms:
            spellings = [attribute] + [
                f"{attribute}-alt{k}" for k in range(spec.attribute_synonyms)
            ]
            kb.add_attribute_synonyms(spellings, root=attribute)

        if spec.synonym_ring_every:
            for j in range(1, per_subtree, spec.synonym_ring_every):
                ring = [nodes[j]] + [
                    f"{nodes[j]}~s{k}" for k in range(spec.synonym_ring_size - 1)
                ]
                kb.add_value_synonyms(ring, root=nodes[j])
                synonym_spellings += spec.synonym_ring_size - 1

    numeric = tuple(
        (f"{spec.name}-num{k}", 0, 1000) for k in range(spec.numeric_attributes)
    )

    n_rules = int(round(spec.rules_per_1000 * spec.concepts / 1000.0))
    for r in range(n_rules):
        # declarative equivalence rules bridging adjacent subtrees: when
        # one attribute carries a mid-spine term, assert a taxonomy term
        # on the next attribute, so the hierarchy stage can keep
        # climbing from the derived pair (and rule-relevance pruning has
        # real rules to veto)
        src_attr, _ = term_attributes[r % spec.attributes]
        dst_attr, _ = term_attributes[(r + 1) % spec.attributes]
        src_nodes = subtree_nodes[r % spec.attributes]
        dst_nodes = subtree_nodes[(r + 1) % spec.attributes]
        when_term = src_nodes[rng.randrange(1, len(src_nodes))]
        then_term = dst_nodes[rng.randrange(0, len(dst_nodes))]
        kb.add_rule(
            MappingRule.equivalence(
                f"{spec.name}-rule{r}",
                when={src_attr: when_term},
                then={dst_attr: then_term},
                domain=spec.domain,
            )
        )

    semantic_spec = SemanticSpec(
        domain=spec.domain,
        term_attributes=tuple(term_attributes),
        numeric_attributes=numeric,
        generality_bias=spec.generality_bias,
        synonym_spelling_prob=spec.synonym_spelling_prob,
        value_synonym_prob=spec.value_synonym_prob,
        seed=spec.seed,
    )
    build_seconds = time.perf_counter() - started
    concepts = per_subtree * spec.attributes
    counters = {
        "world_concepts": concepts,
        "world_edges": edges,
        "world_leaves": sum(map(len, leaf_pools.values())),
        "world_depth": depth,
        "world_synonym_spellings": synonym_spellings,
        "world_rules": n_rules,
        "world_terms": concepts + synonym_spellings,
    }
    return World(
        spec=spec,
        kb=kb,
        semantic_spec=semantic_spec,
        leaf_pools=leaf_pools,
        build_seconds=build_seconds,
        name=spec.name,
        counters=counters,
    )


def _build_jobfinder_world() -> World:
    from repro.ontology.domains import build_jobs_knowledge_base

    started = time.perf_counter()
    kb = build_jobs_knowledge_base()
    build_seconds = time.perf_counter() - started
    domain_stats = kb.stats()["domains"]["jobs"]  # type: ignore[index]
    return World(
        spec=None,
        kb=kb,
        semantic_spec=SemanticSpec.jobs(),
        leaf_pools=None,
        build_seconds=build_seconds,
        name="jobfinder",
        counters={
            "world_concepts": domain_stats["concepts"],
            "world_edges": domain_stats["edges"],
            "world_leaves": domain_stats["leaves"],
            "world_depth": domain_stats["depth"],
            "world_synonym_spellings": 0,
            "world_rules": len(kb.rules()),
            "world_terms": domain_stats["concepts"],
        },
    )


# ---------------------------------------------------------------------------
# Named-world registry
# ---------------------------------------------------------------------------

#: the world catalog (docs/WORKLOADS.md documents each entry).  Small
#: worlds run in tier-1/CI; the 100k+ worlds are the nightly legs.
_SPECS: dict[str, MegaOntologySpec] = {
    "mega-small": MegaOntologySpec(
        name="mega-small", concepts=1_600, attributes=4, depth=6, branching=6, seed=11
    ),
    "mega-deep": MegaOntologySpec(
        name="mega-deep",
        concepts=2_400,
        attributes=4,
        depth=40,
        branching=2,
        synonym_ring_every=30,
        rules_per_1000=2.0,
        seed=12,
    ),
    "mega-100k": MegaOntologySpec(
        name="mega-100k",
        concepts=110_000,
        attributes=6,
        depth=48,
        branching=6,
        synonym_ring_every=25,
        synonym_ring_size=4,
        rules_per_1000=0.5,
        seed=13,
    ),
    "mega-wide-100k": MegaOntologySpec(
        name="mega-wide-100k",
        concepts=104_000,
        attributes=8,
        depth=3,
        branching=64,
        synonym_ring_every=20,
        synonym_ring_size=5,
        rules_per_1000=0.25,
        seed=14,
    ),
}

_BUILDERS: dict[str, Callable[[], World]] = {
    "jobfinder": _build_jobfinder_world,
}


def world_names() -> tuple[str, ...]:
    """Every registered world name, sorted."""
    return tuple(sorted({*_SPECS, *_BUILDERS}))


def world_spec(name: str) -> MegaOntologySpec:
    """The :class:`MegaOntologySpec` behind a generated world name."""
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(world_names())
        raise WorkloadError(f"unknown world {name!r} (known: {known})") from None


def register_world(spec: MegaOntologySpec) -> None:
    """Add a custom world to the registry (name must be unused)."""
    if spec.name in _SPECS or spec.name in _BUILDERS:
        raise WorkloadError(f"world {spec.name!r} already registered")
    _SPECS[spec.name] = spec


def build_world(world: str | MegaOntologySpec) -> World:
    """Build a world by registry name or from an explicit spec."""
    if isinstance(world, MegaOntologySpec):
        return _build_mega_world(world)
    builder = _BUILDERS.get(world)
    if builder is not None:
        return builder()
    return _build_mega_world(world_spec(world))


# ---------------------------------------------------------------------------
# Flash-crowd churn driver
# ---------------------------------------------------------------------------

def engine_footprint(engine) -> dict[str, int]:
    """The engine-side size counters a churn storm must not leak:
    the refcounted interest index, the matcher's cross-publication
    memo, and the hierarchy stage's (interest admissions and free
    attributes' alternatives, one memo under one stamp)."""
    return {
        "interest_index_size": engine.interest_info()["interest_index_size"],
        "matcher_memo_size": engine.matcher.memo_size(),
        "expansion_memo_size": engine.pipeline.hierarchy.memo_size(),
    }


@dataclass(frozen=True)
class FlashCrowdSpec:
    """Parameters of the flash-crowd churn scenario.

    ``residents`` subscriptions stay for the whole run; the crowd is
    ``churn_ops`` transient subscribe/unsubscribe operations applied in
    bursts of ``burst`` ops, with one publication between bursts.  The
    storm always drains: every transient subscription is gone by the
    end, so the engine's footprint must return to its pre-storm
    baseline (:func:`engine_footprint`).
    """

    residents: int = 100
    churn_ops: int = 1_000
    burst: int = 50
    warm_events: int = 5
    max_crowd: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.residents < 0 or self.warm_events < 1:
            raise WorkloadError("residents must be >= 0 and warm_events >= 1")
        if self.churn_ops < 2 or self.burst < 1 or self.max_crowd < 1:
            raise WorkloadError("churn_ops must be >= 2, burst/max_crowd >= 1")


@dataclass
class FlashCrowdReport:
    """What one flash-crowd run observed."""

    residents: int
    churn_ops: int
    publishes: int
    matches: int
    churn_seconds: float
    peak_crowd: int
    peak_interest_index_size: int
    baseline: dict[str, int]
    final: dict[str, int]

    @property
    def churn_ops_per_second(self) -> float:
        return self.churn_ops / self.churn_seconds if self.churn_seconds else 0.0

    @property
    def leaked(self) -> bool:
        """True when any footprint counter failed to return to its
        pre-storm baseline, on every shipped matcher."""
        return self.final != self.baseline

    def as_dict(self) -> dict[str, object]:
        return {
            "residents": self.residents,
            "churn_ops": self.churn_ops,
            "publishes": self.publishes,
            "matches": self.matches,
            "churn_seconds": self.churn_seconds,
            "churn_ops_per_second": self.churn_ops_per_second,
            "peak_crowd": self.peak_crowd,
            "peak_interest_index_size": self.peak_interest_index_size,
            "baseline": dict(self.baseline),
            "final": dict(self.final),
            "leaked": self.leaked,
        }


class FlashCrowdDriver:
    """Runs a flash-crowd churn storm against one engine.

    Phases: subscribe the residents, publish ``warm_events`` fixed
    events (warming every memo), snapshot the baseline footprint; then
    alternate bursts of transient subscribe/unsubscribe ops with single
    publications; finally drain every transient subscription, republish
    the same warm events, and snapshot the footprint again.  The two
    snapshots must agree — the refcounted InterestIndex and the
    counting matcher's satisfaction memo both size purely by live
    state, so a departed crowd must leave no residue.
    """

    def __init__(self, generator: SemanticWorkloadGenerator, spec: FlashCrowdSpec) -> None:
        self.generator = generator
        self.spec = spec

    def run(self, engine) -> FlashCrowdReport:
        """Fold :meth:`ops` over *engine*, snapshotting the footprint
        before the storm and after the drain + warm republish."""
        spec = self.spec
        ops = self.ops()
        warm = []
        matches = 0
        for kind, payload in islice(ops, spec.residents + spec.warm_events):
            if kind == "subscribe":
                engine.subscribe(payload)
            else:
                warm.append(payload)
                matches += len(engine.publish(payload))
        baseline = engine_footprint(engine)

        crowd = churn_ops = peak_crowd = 0
        publishes = len(warm)
        peak_index = baseline["interest_index_size"]
        churn_seconds = 0.0
        started = time.perf_counter()
        for kind, payload in ops:
            if kind != "publish":
                if kind == "subscribe":
                    engine.subscribe(payload)
                    crowd += 1
                else:
                    engine.unsubscribe(payload)
                    crowd -= 1
                churn_ops += 1
                if churn_ops != spec.churn_ops:
                    continue
            # a burst just ended — at a mid-storm publication, or where
            # the last burst hands over to the straggler drain
            churn_seconds += time.perf_counter() - started
            peak_crowd = max(peak_crowd, crowd)
            peak_index = max(peak_index, engine.interest_info()["interest_index_size"])
            if kind == "publish":
                matches += len(engine.publish(payload))
                publishes += 1
            started = time.perf_counter()
        churn_seconds += time.perf_counter() - started
        for event in warm:
            matches += len(engine.publish(event))
        publishes += len(warm)
        final = engine_footprint(engine)
        return FlashCrowdReport(
            residents=spec.residents,
            churn_ops=churn_ops,
            publishes=publishes,
            matches=matches,
            churn_seconds=churn_seconds,
            peak_crowd=peak_crowd,
            peak_interest_index_size=peak_index,
            baseline=baseline,
            final=final,
        )

    def ops(self) -> Iterator[tuple[str, object]]:
        """The storm as a replayable op stream (``("subscribe", sub)``,
        ``("unsubscribe", sub_id)``, ``("publish", event)``): what
        :meth:`run` applies to an engine, and what callers driving a
        broker or trace recorder replay themselves."""
        spec = self.spec
        generator = self.generator
        rng = random.Random(spec.seed)
        for subscription in generator.subscriptions(spec.residents):
            yield ("subscribe", subscription)
        for event in generator.events(spec.warm_events):
            yield ("publish", event)
        crowd: list[str] = []
        transient_counter = 0
        churn_ops = 0
        while churn_ops < spec.churn_ops:
            burst = min(spec.burst, spec.churn_ops - churn_ops)
            for _ in range(burst):
                drain_only = spec.churn_ops - churn_ops <= len(crowd)
                if not drain_only and (
                    not crowd
                    or (len(crowd) < spec.max_crowd and rng.random() < 0.5)
                ):
                    transient_counter += 1
                    subscription = generator.subscription()
                    subscription = Subscription(
                        subscription.predicates,
                        sub_id=f"crowd-{transient_counter}",
                        max_generality=subscription.max_generality,
                    )
                    yield ("subscribe", subscription)
                    crowd.append(subscription.sub_id)
                else:
                    yield ("unsubscribe", crowd.pop(rng.randrange(len(crowd))))
                churn_ops += 1
            if churn_ops < spec.churn_ops:
                yield ("publish", generator.event())
        # drain any stragglers (drain_only guarantees this is empty
        # unless churn_ops ran out mid-crowd on pathological specs)
        while crowd:
            yield ("unsubscribe", crowd.pop())
