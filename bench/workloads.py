"""The four named workloads: what they are and how their inputs are
made from a seed.

Every workload has the same shape, so every end-to-end metric is
measured on every workload:

* set-up — build the world, construct the broker, register clients,
  subscribe the residents, publish ten warm-up events;
* the timed script — segments of publications with one ontology write
  (through the public ``KnowledgeBase`` API) before each but the first,
  plus flash-crowd churn: interleaved bursts on ``steady-churn``; on the
  other three, storm rounds at the segment boundaries that arrive and
  leave between two publications, right before the write that drops
  every cache anyway (so their caches see no churn while they publish).

The program only ever sees the generated subscriptions, events and
ops; the script is a plain list so the verification pass can replay it
into a reference engine at the same point in the churn / ontology-write
stream.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.model.subscriptions import Subscription
from repro.workload.distributions import ZipfSampler
from repro.workload.generator import SemanticSpec, SemanticWorkloadGenerator
from repro.workload.worlds import MegaOntologySpec, World, build_world, world_spec

__all__ = ["Workload", "Plan", "WORKLOADS", "build_plan", "PUB", "SUB", "UNSUB", "KB", "MARK"]

#: ``--seconds`` at which the stream lengths below were sized; other
#: values scale the publication counts linearly (so a given ``--seed``
#: and ``--seconds`` always make the same script)
REFERENCE_SECONDS = 15
WARMUP_EVENTS = 10
#: churn-storm rounds before each segment (the recorded rate is the
#: median round, so one scheduling hiccup cannot move it)
STORM_ROUNDS = 2
#: the population (residents, event catalogue, crowd catalogue) is part
#: of the workload; see build_plan
POPULATION_SEED = 2003

# script op codes
PUB, SUB, UNSUB, KB, MARK = range(5)

#: ``kb-evolve``'s world: the catalog's ``mega-100k`` shape (depth-48
#: spines, 6 subtrees, synonym rings, rules) at 24k concepts.  The
#: cold cliff scales with concept count at fixed depth (set-up 1.9 s and
#: 1.5 s per refresh here against 10 s and 7.6 s at 110k), and the
#: driver's total run-time cap does not fit five set-ups and three
#: refreshes of the full-size world per run.
KB_EVOLVE_CONCEPTS = 24_000


@dataclass(frozen=True)
class Workload:
    """One named workload (sizes are for ``REFERENCE_SECONDS``)."""

    name: str
    why: str
    world: str
    subscribers: int
    residents: int
    predicates: tuple[int, int] | None
    publications: int
    #: 0 = all-distinct stream; else Zipf(1.0) over this many distinct events
    pool: int = 0
    #: publications between flash-crowd bursts (0 = one storm up front)
    churn_every: int = 0
    churn_burst: int = 0
    storm_ops: int = 2400
    crowd_cap: int = 200
    shards: int = 0
    durable: bool = False
    text_events: bool = False
    #: the stream is cut into this many segments, with one ontology
    #: write before each but the first (``kb_refresh_s`` is the mean
    #: over them; a 0.1 s refresh needs more of them than a 1.7 s one)
    segments: int = 16
    #: set-ups per run (``setup_s`` is the fastest); the last is kept.
    #: A jobfinder set-up is 0.15-0.3 s long and consecutive ones of one
    #: run differed by up to 1.7x on this shared box, so there are many:
    #: one of them has to land in an undisturbed moment
    setups: int = 11
    #: publications sampled for the verification pass
    verify_samples: int = 48

    def smoke(self) -> "Workload":
        """Tier-1 scale: seconds, not minutes, for all four."""
        return dataclasses.replace(
            self,
            world="mega-small" if self.world == "mega-100k" else self.world,
            residents=max(40, self.residents // 20),
            publications=48,
            pool=40 if self.pool else 0,
            churn_every=12 if self.churn_every else 0,
            churn_burst=8 if self.churn_every else 0,
            storm_ops=60,
            crowd_cap=20,
            segments=4,
            setups=1,
            verify_samples=max(12, self.verify_samples // 8),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady-churn",
            why="Zipf-repeated events over flash-crowd churn: the working set exceeds every "
            "cache and churn re-keys them, so caches, matcher and interest index pay or do not",
            world="jobfinder",
            subscribers=64,
            residents=2000,
            predicates=(3, 5),
            publications=900,
            pool=2000,
            churn_every=50,
            churn_burst=40,
        ),
        Workload(
            name="fanout-durable",
            why="journaled broker, broad subscriptions, distinct text events: parser, "
            "notification fan-out and journal do the work and every cache is bypassed",
            world="jobfinder",
            subscribers=64,
            residents=500,
            predicates=(1, 2),
            publications=720,
            durable=True,
            text_events=True,
        ),
        Workload(
            name="kb-evolve",
            why="deep generated ontology edited mid-stream: concept-table build and closure "
            "fills set time-to-ready after start and after each edit; jobfinder bypasses them",
            world="mega-100k",
            subscribers=50,
            residents=200,
            predicates=None,
            publications=680,
            storm_ops=4800,
            segments=4,
            setups=5,
            verify_samples=150,
        ),
        Workload(
            name="sharded-2",
            why="two forked shard workers: the only workload that crosses the wire codec, "
            "pipes and merge, with the largest subscription table per publication",
            world="jobfinder",
            subscribers=64,
            residents=2000,
            predicates=(3, 5),
            publications=680,
            shards=2,
        ),
    )
}


@dataclass
class Plan:
    """Everything one run needs, made from the seed before any clock
    starts."""

    workload: Workload
    seed: int
    world_spec: str | MegaOntologySpec
    #: the separately built world the inputs were generated from; the
    #: verification pass replays the script against its knowledge base
    reference_world: World
    residents: list[tuple[int, Subscription]]
    warmup: list
    ops: list[tuple]
    #: script indices of the ten warm-up events re-published after each
    #: ontology write (charged to ``kb_refresh_s``, excluded from p50/p90)
    windows: list[list[int]] = field(default_factory=list)
    #: script indices of churn ops, by burst (or storm round)
    churn_rounds: list[list[int]] = field(default_factory=list)
    #: script indices of the publications sampled for verification
    sampled: frozenset = frozenset()
    #: subscription ids the reference engine holds (a seeded stride of
    #: residents and crowd alike); match sets are compared on these
    reference_ids: frozenset = frozenset()
    #: script indices of the first publications, in order, for the
    #: one-shard baseline pass (sharded workloads, traced run)
    baseline: list[int] = field(default_factory=list)
    min_compared: int = 20

    def world_name(self) -> str:
        spec = self.world_spec
        return spec if isinstance(spec, str) else f"{spec.name}@{spec.concepts}"


def _world_spec(workload: Workload) -> str | MegaOntologySpec:
    if workload.world == "mega-100k":
        return dataclasses.replace(world_spec("mega-100k"), concepts=KB_EVOLVE_CONCEPTS)
    return workload.world


def _generator(world: World, workload: Workload) -> SemanticWorkloadGenerator:
    if workload.predicates is None:
        return world.generator(seed=POPULATION_SEED)
    spec = SemanticSpec.jobs(
        predicates_per_subscription=workload.predicates, seed=POPULATION_SEED
    )
    return SemanticWorkloadGenerator(world.kb, spec)


def _distinct_events(generator: SemanticWorkloadGenerator, count: int, seen: set) -> list:
    """*count* generated events no two of which (nor any in *seen*)
    carry the same content, so the result cache can never hit unless the
    workload repeats an event on purpose."""
    events = []
    attempts = 0
    while len(events) < count:
        attempts += 1
        if attempts > 50 * count + 1000:
            raise RuntimeError(f"world too small for {count} distinct events")
        event = generator.event()
        if event.signature in seen:
            continue
        seen.add(event.signature)
        events.append(event)
    return events


def _edit_terms(world: World, rng: random.Random, count: int) -> list[tuple[str, str]]:
    """``(root spelling, new spelling)`` for *count* ontology writes:
    each adds a spelling nothing publishes or subscribes to, so match
    sets do not move but ``kb.version`` — and with it the concept
    table, every closure memo, the interest closure and all caches —
    does."""
    kb = world.kb
    if world.leaf_pools:
        leaves = list(next(iter(world.leaf_pools.values())))
    else:
        leaves = sorted(kb.taxonomy(world.semantic_spec.domain).leaves())
    edits = []
    for index, leaf in enumerate(rng.sample(leaves, count)):
        root = kb.value_root(leaf) or leaf
        edits.append((root, f"{root}~edit{index}"))
    return edits


class _Crowd:
    """The flash crowd: transient ``crowd-N`` subscriptions, drawn from
    a catalogue, that arrive and leave (seeded 50/50 once anyone is
    there, capped)."""

    def __init__(self, catalogue: list, rng: random.Random, subscribers: int, cap: int) -> None:
        self.catalogue = catalogue
        self.rng = rng
        self.subscribers = subscribers
        self.cap = cap
        self.present: list[str] = []
        self.counter = 0

    def op(self, *, leaving_only: bool = False) -> tuple:
        rng = self.rng
        present = self.present
        if not leaving_only and (not present or (len(present) < self.cap and rng.random() < 0.5)):
            self.counter += 1
            made = rng.choice(self.catalogue)
            subscription = Subscription(
                made.predicates, sub_id=f"crowd-{self.counter}", max_generality=made.max_generality
            )
            present.append(subscription.sub_id)
            return (SUB, rng.randrange(self.subscribers), subscription)
        return (UNSUB, present.pop(rng.randrange(len(present))))

    def round(self, ops: int) -> list[tuple]:
        """*ops* churn ops after which nobody is left."""
        return [self.op(leaving_only=ops - done <= len(self.present)) for done in range(ops)]

    def drain(self) -> list[tuple]:
        return [self.op(leaving_only=True) for _ in range(len(self.present))]


def build_plan(workload: Workload, seed: int, seconds: float, *, smoke: bool = False) -> Plan:
    """The run's inputs, a pure function of ``(workload, seed, seconds,
    smoke)``.

    The *population* — resident subscriptions, the event catalogue, the
    ten warm-up events, the crowd's subscription catalogue — belongs to
    the workload, as the ontology does, and is generated from
    ``POPULATION_SEED``; so is the multiset of events a run publishes.
    ``--seed`` draws the *traffic* over it: the order the events are
    published in, who arrives and leaves when, who owns which
    subscription, which terms the ontology writes touch, which
    publications are verified.  (A run's throughput is a weighted
    average over a few dozen hot events; re-drawing population and
    event sample per seed moved every metric by 15-25% between seeds,
    which no regression bound survives.)
    """
    if smoke:
        workload = workload.smoke()
        publications = workload.publications
    else:
        publications = round(workload.publications * seconds / REFERENCE_SECONDS)
    segments = workload.segments
    per_segment = max(2, publications // segments)
    publications = per_segment * segments

    spec = _world_spec(workload)
    world = build_world(spec)
    generator = _generator(world, workload)
    residents_made = generator.subscriptions(workload.residents)
    seen: set = set()
    warmup = _distinct_events(generator, WARMUP_EVENTS, seen)
    catalogue = generator.subscriptions(2 * workload.crowd_cap)
    if workload.pool:
        pool = _distinct_events(generator, workload.pool, seen)
        sampler = ZipfSampler(pool, 1.0, rng=random.Random(POPULATION_SEED))
        stream = [sampler.sample() for _ in range(publications)]
    else:
        stream = _distinct_events(generator, publications, seen)

    rng = random.Random(seed)
    rng.shuffle(stream)
    residents = [(rng.randrange(workload.subscribers), sub) for sub in residents_made]
    if workload.text_events:
        # language text, as the web application and CLI submit it
        warmup = [event.format() for event in warmup]
        stream = [event.format() for event in stream]
    edits = _edit_terms(world, rng, segments - 1)
    crowd = _Crowd(catalogue, rng, workload.subscribers, workload.crowd_cap)

    ops: list[tuple] = []
    windows: list[list[int]] = []
    churn_rounds: list[list[int]] = []
    publication_ops: list[int] = []

    def churn(script: list[tuple]) -> None:
        churn_rounds.append(list(range(len(ops), len(ops) + len(script))))
        ops.extend(script)

    storm_round = 0
    if not workload.churn_every:
        storm_ops = workload.storm_ops
        if workload.durable and not smoke:
            # land the end of the run about 300 journaled operations
            # after the last automatic compaction (default
            # snapshot_every=1000), so recovery replays the same amount
            # of journal whatever --seconds is; ontology writes are not
            # journaled
            setup_ops = workload.subscribers + 1 + workload.residents + WARMUP_EVENTS
            journaled = setup_ops + storm_ops + publications + (segments - 1) * WARMUP_EVENTS
            storm_ops += (300 - journaled) % 1000
        # an even number of ops per round, so everyone who arrived in a
        # round has left by its end
        storm_round = max(2, storm_ops // (segments * STORM_ROUNDS) // 2 * 2)
    published = 0
    for segment in range(segments):
        # the storm comes in rounds at the segment boundaries — spread
        # over the run so that a slow second on the machine touches a
        # few rounds, not the metric — and each round is gone before the
        # next publication: the ontology write that follows drops every
        # cache the round could have touched anyway
        for _ in range(STORM_ROUNDS if storm_round else 0):
            churn(crowd.round(storm_round))
        if segment:
            # time to ready after an edit ends the way time to ready
            # after start does: with the same ten warm-up publications
            ops.append((KB, *edits[segment - 1]))
            windows.append(list(range(len(ops), len(ops) + len(warmup))))
            publication_ops.extend(windows[-1])
            ops.extend((PUB, event) for event in warmup)
        if segment == segments - 1:
            # per-publication count ratios are taken over the last
            # segment: a knowledge-base write restarts the sharded
            # worker fleet and its counters with it
            ops.append((MARK,))
        for _ in range(per_segment):
            if workload.churn_every and published and published % workload.churn_every == 0:
                churn([crowd.op() for _ in range(workload.churn_burst)])
            publication_ops.append(len(ops))
            ops.append((PUB, stream[published]))
            published += 1
    if crowd.present:
        churn(crowd.drain())

    samples = min(workload.verify_samples, len(publication_ops))
    sampled = frozenset(random.Random(seed + 1).sample(publication_ops, samples))
    # the reference engine is the naive matcher over an exhaustive
    # string-path expansion — hundreds of times slower per subscription
    # than the system under test — so it holds a stride of the
    # subscriptions (about 150 of them); a subscription's match does not
    # depend on which others are present, so the comparison on those ids
    # is exact
    stride = max(1, workload.residents // 150)
    reference_ids = {sub.sub_id for _, sub in residents[::stride]}
    reference_ids.update(f"crowd-{n}" for n in range(1, crowd.counter + 1, stride))

    first_window = windows[0][0] if windows else len(ops)
    before_edits = [index for index in publication_ops if index < first_window]
    baseline = before_edits[: max(20, per_segment // 2)]
    return Plan(
        workload=workload,
        seed=seed,
        world_spec=spec,
        reference_world=world,
        residents=residents,
        warmup=warmup,
        ops=ops,
        windows=windows,
        churn_rounds=churn_rounds,
        sampled=sampled,
        reference_ids=frozenset(reference_ids),
        baseline=baseline if workload.shards else [],
        min_compared=4 if smoke else 20,
    )
