"""Property: a one-generation result cache ≡ the full-key model.

The dispatcher keys its result cache on ``(signature, publisher,
config)`` and drops every entry once the engine's ``(semantic_version,
subscription_epoch)`` pair moves.  The model is the design it replaced:
one LRU keyed on all five inputs, whose stranded entries stay until the
LRU ages them out.  Both admit a miss only when its content — signature,
publisher and config, no generation — missed before, among the last
``capacity`` contents that missed (the model keeps them in a list of
its own).  The shipped engines never repeat that pair, so
dropping a generation can lose no hit: after every step of a random
interleaving of repeated and distinct publishes, subscribe,
unsubscribe, knowledge-base writes, epoch bumps and a reconfigure round
trip A→B→A, both must report the same hit/miss counters, the same match
sets with the same generalities, and the same live entries — on a
single engine and on a serial two-shard engine.  The one-generation
cache also never holds more entries than publications since the
generation last moved.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broker.broker import Broker
from repro.broker.dispatcher import EventDispatcher
from repro.broker.sharding import ShardedBroker
from repro.core.config import SemanticConfig
from repro.core.provenance import SemanticMatch
from repro.model.parser import parse_subscription
from repro.ontology.domains import build_jobs_knowledge_base

EVENTS = (
    "(degree, PhD)",
    "(diploma, PhD)",
    "(degree, doctorate)",
    "(school, Toronto)(degree, PhD)",
    "(university, Toronto)",
    "(degree, MSc)(professional_experience, 5)",
)
SUBSCRIPTIONS = (
    "(degree = PhD)",
    "(degree = doctorate)",
    "(degree = degree)",
    "(university = Toronto)",
    "(professional_experience >= 4)",
    "(university = Toronto) and (degree = PhD)",
)
PUBLISHERS = ("pub-a", "pub-b")
OPS = ("publish",) * 5 + ("subscribe",) * 2 + ("unsubscribe", "kb_write", "epoch", "reconfigure")


class _FullKeyDispatcher(EventDispatcher):
    """The model: every input the match set depends on is in the key,
    and nothing is dropped but by the LRU; a miss is stored only if its
    content is among the last ``result_cache_size`` contents that
    missed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sightings: list[tuple] = []  # contents that missed, oldest first

    def _matches_for(self, stamped, client_id):
        engine = self.engine
        key = (
            stamped.signature,
            client_id,
            engine.semantic_version,
            engine.config,
            engine.subscription_epoch,
        )
        cached = self._result_cache.get(key)
        if cached is not None:
            self._result_cache.move_to_end(key)
            self.result_cache_hits += 1
            return [
                SemanticMatch(match.subscription, stamped, match.via, match.generality)
                for match in cached[0]
            ], cached[1]
        self.result_cache_misses += 1
        matches = engine.publish(stamped)
        truncated = getattr(engine, "last_truncated", None)
        content = (stamped.signature, client_id, engine.config)
        if content not in self.sightings:
            self.sightings = (self.sightings + [content])[-self.result_cache_size :]
            return matches, truncated
        self._result_cache[key] = (tuple(matches), truncated)
        while len(self._result_cache) > self.result_cache_size:
            self._result_cache.popitem(last=False)
        return matches, truncated


def _broker(kind: str) -> Broker:
    kb = build_jobs_knowledge_base()
    if kind == "sharded":
        return ShardedBroker(kb, shards=2, executor="serial")
    return Broker(kb)


def _register(broker: Broker) -> None:
    broker.register_subscriber("Initech", email="hr@x", client_id="sub")
    for client_id in PUBLISHERS:
        broker.register_publisher(client_id, client_id=client_id)


def _generation(broker: Broker) -> tuple:
    engine = broker.engine
    return (engine.semantic_version, engine.subscription_epoch)


def _counters(broker: Broker) -> tuple[int, int]:
    return (broker.dispatcher.result_cache_hits, broker.dispatcher.result_cache_misses)


def _pairs(report) -> list[tuple[str, int]]:
    return [(match.subscription.sub_id, match.generality) for match in report.matches]


@pytest.mark.parametrize("kind", ["single", "sharded"])
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 99), st.integers(0, 1)),
        min_size=1,
        max_size=40,
    ),
    capacity=st.sampled_from([1, 3, 256]),
)
def test_one_generation_cache_equals_the_full_key_model(kind, ops, capacity):
    system, model = _broker(kind), _broker(kind)
    model.dispatcher = _FullKeyDispatcher(
        model.engine, model.registry, model.notifier, result_cache_size=capacity
    )
    system.dispatcher.result_cache_size = capacity
    config_a, config_b = system.engine.config, SemanticConfig.syntactic()
    for broker in (system, model):
        _register(broker)
    live: list[str] = []
    writes = 0
    generation, since_move = _generation(system), 0
    try:
        for step, (op, pick, side) in enumerate(ops):
            reports = []
            for broker in (system, model):
                if op == "publish":
                    event = EVENTS[pick % len(EVENTS)]
                    reports.append(broker.publish(PUBLISHERS[side], event))
                elif op == "subscribe":
                    text = SUBSCRIPTIONS[pick % len(SUBSCRIPTIONS)]
                    broker.subscribe("sub", parse_subscription(text, sub_id=f"s{step}"))
                elif op == "unsubscribe" and live:
                    broker.unsubscribe(live[pick % len(live)])
                elif op == "kb_write":
                    # the first write changes what matches, later ones
                    # only move the version
                    terms = ["PhD", "doctorate"] if writes == 0 else [f"w{writes}a", f"w{writes}b"]
                    broker.kb.add_value_synonyms(terms)
                elif op == "epoch":
                    broker.engine.bump_semantic_epoch()
                elif op == "reconfigure":
                    target = config_b if broker.engine.config == config_a else config_a
                    broker.reconfigure(target)
            if op == "subscribe":
                live.append(f"s{step}")
            elif op == "unsubscribe" and live:
                live.pop(pick % len(live))
            elif op == "kb_write":
                writes += 1

            if _generation(system) != generation:
                assert op != "publish"
                generation, since_move = _generation(system), 0
            if op == "publish":
                since_move += 1
                assert _pairs(reports[0]) == _pairs(reports[1]), step
            assert _counters(system) == _counters(model), step
            size = system.dispatcher.result_cache_info()["size"]
            assert size <= since_move, step
            semantic_version, subscription_epoch = generation
            # the same live entries in the same LRU order
            assert list(system.dispatcher._result_cache) == [
                (key[0], key[1], key[3])
                for key in model.dispatcher._result_cache
                if key[2] == semantic_version and key[4] == subscription_epoch
            ], step
    finally:
        system.close()
        model.close()
