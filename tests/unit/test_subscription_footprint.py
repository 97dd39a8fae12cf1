"""What a resident subscription costs a broker, in traced bytes.

S-ToPSS matches by counting predicates over one shared index, so a
broker's memory should grow with its distinct predicates, not with
copies of per-subscription bookkeeping.  An engine keeps one
subscription table — its matcher's, one record per ``sub_id`` holding
the insertion sequence, the root subscription and the attributes it
constrains (a tuple shared by every subscription with that shape) —
and everything else (the subscriber, the original as subscribed, a
shard's global sequence) is read from that record.  A sharded broker's
forked workers inherit the parent's heap, so what the table costs
counts twice in the workload's peak RSS.

The probe subscribes 2,000 generated jobfinder residents (20
subscribers) and reads the tracemalloc bytes the broker retained per
resident.  A warm-up pass over the same residents runs first, before
tracing starts, so that the interpreter's free lists (tuples, dicts)
are already full and what they keep does not count.  When a resident
was eight table entries across the dispatcher, the engine, the
sharded facade and the counting matcher, the same probe read 755 B per
resident on a ``Broker`` and 846 B on ``ShardedBroker(kb, shards=2,
executor="serial")``; with one record it reads 371 B and 400 B.  Each
of the four readings is the same on CPython 3.11.7, 3.12.1 and 3.13.0.
The bound is 60% of the old readings (453 B and 508 B), whatever the
version: a per-subscription table coming back fails it.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.broker.broker import Broker
from repro.broker.sharding import ShardedBroker
from repro.ontology.domains import build_jobs_knowledge_base
from repro.workload.generator import SemanticSpec, SemanticWorkloadGenerator

RESIDENTS = 2000
SUBSCRIBERS = 20

#: broker kind -> traced bytes per resident with eight tables
_BEFORE = {"broker": 755, "sharded": 846}


def _broker(kind: str, kb):
    if kind == "broker":
        return Broker(kb)
    return ShardedBroker(kb, shards=2, executor="serial")


def _clients(broker) -> list[str]:
    return [broker.register_subscriber(f"c{i}").client_id for i in range(SUBSCRIBERS)]


def _subscribe(broker, clients, residents) -> None:
    for index, subscription in enumerate(residents):
        broker.subscribe(clients[index % SUBSCRIBERS], subscription)


def _bytes_per_resident(kind: str) -> float:
    kb = build_jobs_knowledge_base()
    residents = SemanticWorkloadGenerator(kb, SemanticSpec.jobs(seed=2003)).subscriptions(
        RESIDENTS
    )
    warm = _broker(kind, kb)
    _subscribe(warm, _clients(warm), residents)
    del warm
    broker = _broker(kind, kb)
    clients = _clients(broker)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _subscribe(broker, clients, residents)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(broker.engine) == RESIDENTS
    return retained / RESIDENTS


class TestSubscriptionFootprint:
    @pytest.mark.parametrize("kind", sorted(_BEFORE))
    def test_a_resident_costs_at_most_sixty_percent_of_eight_tables(self, kind):
        per_resident = _bytes_per_resident(kind)
        bound = 0.6 * _BEFORE[kind]
        assert per_resident <= bound, (
            f"{kind}: {per_resident:.0f} B per resident, over {bound:.0f} B"
        )
