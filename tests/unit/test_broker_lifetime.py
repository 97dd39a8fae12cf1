"""A closed and dropped broker is freed by reference counting.

Nothing a broker builds — its engine or shard replicas, their matchers
and memos, the knowledge base and its concept table — may sit in a
reference cycle: a world held by a cycle outlives its last user until
the next full collection, so a process that builds and closes brokers
(the benchmark's repeated set-ups, a test suite, a server restarting its
broker) carries every dropped world in its heap until then.  Two
ownership rules keep them acyclic: a matcher's satisfaction memo does
not hold its matcher's bound method (the transform is passed per
lookup), and a concept table holds its knowledge base weakly.

The check runs with the collector off.  After ``close()`` and ``del``,
weak references to the knowledge base, its table, the engine and every
matcher must already be dead, and a collection that saves what it finds
(``gc.DEBUG_SAVEALL``) must find nothing.
"""

from __future__ import annotations

import gc
# a process plane imports multiprocessing at its first fork, and that
# one-time import leaves cycles of its own (the enum classes signal and
# socket build), not a broker's: load it before any broker is counted
import multiprocessing  # noqa: F401
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.broker.broker import Broker
from repro.broker.sharding import ShardedBroker
from repro.matching.base import matcher_names
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.domains import build_jobs_knowledge_base

from tests.third_party import ScanMatcher

_REPO_ROOT = Path(__file__).resolve().parents[2]

#: import the package, publish through a default broker and a serial
#: sharded one, and report which of numpy, multiprocessing and the XML
#: parser came along (a fresh interpreter: this process's other imports
#: must not decide the answer)
_IMPORT_SCRIPT = """
import sys
import repro
from repro.broker.broker import Broker
from repro.broker.sharding import ShardedBroker
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.domains import build_jobs_knowledge_base
for make in (Broker, lambda kb: ShardedBroker(kb, shards=2, executor="serial")):
    broker = make(build_jobs_knowledge_base())
    broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
    broker.register_publisher("P", client_id="cl-p")
    broker.subscribe("cl-a", parse_subscription("(university = Toronto)", sub_id="s1"))
    assert broker.publish("cl-p", parse_event("(school, Toronto)")).delivered_count == 1
    broker.close()
print(sorted(set(sys.modules) & {"numpy", "multiprocessing", "xml.etree.ElementTree"}))
"""

_BROKERS = {
    **{
        f"matcher-{name}": (lambda name: lambda kb, _: Broker(kb, matcher=name))(name)
        for name in matcher_names()
    },
    "matcher-third-party": lambda kb, _: Broker(kb, matcher=ScanMatcher()),
    "durable": lambda kb, directory: Broker(kb, durability=directory),
    "sharded-serial": lambda kb, _: ShardedBroker(kb, shards=2, executor="serial"),
    "sharded-process": lambda kb, _: ShardedBroker(kb, shards=2, executor="process"),
}


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.enable()


def _exercise(broker: Broker, kb) -> None:
    """Subscribe, publish, write to the knowledge base, publish again."""
    broker.register_subscriber("A", tcp="a:1", client_id="cl-a")
    broker.register_publisher("P", client_id="cl-p")
    broker.subscribe("cl-a", Subscription([Predicate.eq("university", "Toronto")], sub_id="s1"))
    assert broker.publish("cl-p", Event([("school", "Toronto")], event_id="e1")).delivered_count
    kb.add_domain("lifetime").add_chain("junior", "senior")
    report = broker.publish("cl-p", Event([("school", "Toronto"), ("n", 1)], event_id="e2"))
    assert report.delivered_count == 1


def _watched(broker: Broker, kb) -> dict[str, weakref.ref]:
    engine = broker.engine
    replicas = getattr(engine, "engines", (engine,))
    refs = {
        "knowledge base": weakref.ref(kb),
        "concept table": weakref.ref(kb.concept_table()),
        "engine": weakref.ref(engine),
    }
    for index, replica in enumerate(replicas):
        refs[f"matcher {index}"] = weakref.ref(replica.matcher)
    return refs


@pytest.mark.parametrize("kind", _BROKERS)
def test_a_closed_broker_is_freed_without_the_cycle_collector(kind, tmp_path, collector_off):
    # pytest lets go of an earlier failure's traceback (``sys.last_traceback``)
    # as this test's call starts, after the fixture collected: count only
    # the garbage this broker leaves
    gc.collect()
    gc.garbage.clear()
    kb = build_jobs_knowledge_base()
    broker = _BROKERS[kind](kb, tmp_path / "journal")
    _exercise(broker, kb)
    refs = _watched(broker, kb)
    broker.close()
    del broker, kb

    alive = sorted(name for name, ref in refs.items() if ref() is not None)
    assert alive == []

    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    garbage = len(gc.garbage)
    gc.garbage.clear()
    assert garbage == 0


def test_the_package_and_a_serial_publish_leave_numpy_multiprocessing_and_xml_unimported():
    """Nothing in the package imports numpy, so the lifetime check above
    needs no warm-up import to absorb the cycles numpy's first import
    leaves.  ``multiprocessing`` is imported at a shard worker's first
    fork and the XML parser by ``parse_daml``: a single-engine or serial
    sharded broker loads neither."""
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(_REPO_ROOT / "src")},
        cwd=_REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
