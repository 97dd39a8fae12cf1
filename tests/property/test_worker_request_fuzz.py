"""Fuzz: a shard worker answers every damaged request and stays whole.

A process-executor worker reads ``(epoch, op, payload)`` requests off
its pipe — the one input of the data plane nobody checked before it
arrives.  Its contract: an unknown op, or a ``publish`` payload that is
not an event, is answered ``badwire``; an engine error — a control op
whose payload the replica cannot take included — is answered ``err``;
either reply carries the request's epoch, so the parent can tell it
from an abandoned one; and nothing a rejected request carried changes
the replica.

The worker loop runs here in a thread over an in-process
``multiprocessing.Pipe()`` pair — no fork — on a replica holding a few
subscriptions.  Hypothesis sends it damaged requests: ops it does not
know (strings, numbers, ``None``), and known ops whose payload is of
the wrong kind — a ``subscribe`` of anything but a
:class:`~repro.model.subscriptions.Subscription`, a ``publish`` of
anything but an event, an ``unsubscribe`` of an id nobody holds, a
``reconfigure`` to something that is not a configuration.  Every one
must get ``badwire`` or ``err`` under its own epoch, and a valid
``publish`` afterwards must answer ``ok`` with the matches it answered
before the fuzzing.
"""

from __future__ import annotations

import threading
from multiprocessing import Pipe

from hypothesis import given
from hypothesis import strategies as st

from repro.broker.sharding import _shard_worker_main
from repro.core.engine import SToPSS
from repro.model.events import Event
from repro.model.parser import parse_event, parse_subscription
from repro.ontology.domains import build_jobs_knowledge_base

_KB = build_jobs_knowledge_base()
_TEXTS = ("(school = Toronto)", "(degree = degree)", "(note exists)")
_EVENT = parse_event("(university, Toronto)(degree, PhD)(note, hi)")

#: every op the worker knows
_OPS = ("publish", "subscribe", "unsubscribe", "reconfigure", "epoch", "stats", "stop")

_INTRUDER = parse_subscription("(school = Waterloo)", sub_id="intruder")

#: anything a damaged pipe might carry as a payload
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.tuples(st.text(max_size=3), st.integers()),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.just(_EVENT),
    st.just(_INTRUDER),
)

requests = st.one_of(
    st.tuples(
        st.one_of(
            st.text(max_size=10).filter(lambda op: op not in _OPS),
            st.integers(),
            st.none(),
        ),
        junk,
    ),
    st.tuples(st.just("subscribe"), junk.filter(lambda payload: payload is not _INTRUDER)),
    st.tuples(st.just("publish"), junk.filter(lambda payload: type(payload) is not Event)),
    st.tuples(st.just("unsubscribe"), junk),
    st.tuples(st.just("reconfigure"), junk),
)


def _replica() -> SToPSS:
    engine = SToPSS(_KB)
    for index, text in enumerate(_TEXTS):
        engine.subscribe(parse_subscription(text, sub_id=f"s{index}"))
    return engine


def _reply(conn) -> tuple:
    assert conn.poll(10), "the worker did not answer"
    return conn.recv()


def _publish(conn, epoch: int) -> tuple:
    conn.send((epoch, "publish", _EVENT))
    reply_epoch, status, payload = _reply(conn)
    assert (reply_epoch, status) == (epoch, "ok")
    witnesses, rows, _, truncated = payload
    return witnesses, rows, truncated


@given(damaged=st.lists(requests, min_size=1, max_size=8), epoch=st.integers(1, 2**40))
def test_every_damaged_request_is_answered_and_changes_nothing(damaged, epoch):
    parent, child = Pipe()
    worker = threading.Thread(target=_shard_worker_main, args=(child, _replica(), 0))
    worker.start()
    try:
        assert _reply(parent) == (0, "ok", None)
        before = _publish(parent, epoch)
        for offset, (op, payload) in enumerate(damaged, start=1):
            parent.send((epoch + offset, op, payload))
            reply_epoch, status, _ = _reply(parent)
            assert reply_epoch == epoch + offset
            assert status in ("badwire", "err"), (op, payload, status)
        assert _publish(parent, epoch + len(damaged) + 1) == before
        assert [row[0] for row in before[1]] == ["s0", "s1", "s2"]
    finally:
        parent.send((-1, "stop", None))
        assert _reply(parent) == (-1, "ok", None)
        worker.join(timeout=10)
        parent.close()
    assert not worker.is_alive()
