"""Property: the column-stored delivery log keeps what a list of row
objects would.

Each subscription's retained log is a ring of columns (notification
number, derivation index, status byte, text reference) with the
subscription's ids, rendered part and oldest sequence kept once: a
row's sequence is derived, the oldest one's plus the row's age.  The
reference model here is the plain representation: per subscription a
list of rows, each holding its own sequence, whole id, client, subject,
body and status, at most ``history_limit`` of them.  Random sequences
of subscribe, publish (with dead letters, and fan-outs a dead letter
aborts so later rows stay pending), ``replay_from``, unsubscribe,
re-subscribing the same id, checkpoint (``durable_state`` → JSON) and
crash (the checkpoint's records, then the journal tail, in order
through ``adopt``, then ``finish_replay``) run against both, at
``history_limit=3`` so the ring wraps and a journal tail outruns the
window, and after every step the two agree on ``delivery_log()``,
``replay_from`` outcomes, the delivered frontiers and the decoded
``durable_state()`` records — which a fresh engine adopts back into
the same records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.broker.clients import ClientRegistry
from repro.broker.durability import _decode_subscription, _encode_subscription, _with_close
from repro.broker.notifications import NotificationEngine, decode_text
from repro.broker.transports import TcpTransport, TransportRegistry
from repro.core.provenance import (
    SYNONYM,
    SemanticMatch,
    Witness,
    derivation_part,
    event_part,
    subscription_part,
)
from repro.errors import DeliveryError
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription

LIMIT = 3
SUBS = 3
#: cl-a is reachable; cl-u's only transport is unknown, so every send to
#: it is a dead letter
REACHABLE = {"cl-a": True, "cl-u": False}


def _subject(sub_id: str, event_id: str) -> str:
    return f"S-ToPSS: subscription {sub_id} matched event {event_id}"


def _json(record):
    return json.loads(json.dumps(record))


def _subscription(sub_id: str, client_id: str | None = None) -> Subscription:
    return Subscription([Predicate.eq("a", "1")], subscriber_id=client_id, sub_id=sub_id)


class _Journal:
    """The slice of :class:`~repro.broker.durability.Durability` the
    engine writes to: records go through JSON, as they do on disk."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.stats = SimpleNamespace(replayed_deliveries=0, dedup_drops=0)

    def append(self, record) -> None:
        self.records.append(_json(record))


@dataclass
class _Row:
    sub_id: str
    #: drawn and kept per row here; the engine derives it from its log
    sequence: int
    nid: str
    client_id: str
    event_id: str
    subject: str
    body: str
    status: str = "pending"

    def observed(self) -> tuple:
        return (
            self.sequence, self.nid, self.client_id, self.event_id, self.subject, self.body,
            self.status,
        )  # fmt: skip


class _Model:
    """Per subscription a list of whole rows, at most ``LIMIT``."""

    def __init__(self) -> None:
        self.logs: dict[str, list[_Row]] = {}
        self.next_seq: dict[str, int] = {}
        self.frontier: dict[str, int] = {}
        self.next_nid = 1

    def stage(self, sub_id: str, client_id: str, event_id: str, body: str) -> _Row:
        sequence = self.next_seq.get(sub_id, 1)
        self.next_seq[sub_id] = sequence + 1
        row = _Row(
            sub_id, sequence, f"n{self.next_nid}", client_id, event_id,
            _subject(sub_id, event_id), body,
        )  # fmt: skip
        self.next_nid += 1
        self.keep(row)
        return row

    def keep(self, row: _Row) -> None:
        log = self.logs.setdefault(row.sub_id, [])
        log.append(row)
        del log[:-LIMIT]

    def settle(self, row: _Row) -> bool:
        delivered = REACHABLE[row.client_id]
        row.status = "acked" if delivered else "dead"
        if delivered:
            self.frontier[row.sub_id] = max(self.frontier.get(row.sub_id, 0), row.sequence)
        return delivered

    def forget(self, sub_id: str) -> None:
        self.logs.pop(sub_id, None)
        self.next_seq.pop(sub_id, None)
        self.frontier.pop(sub_id, None)

    def recover(self) -> int:
        """What ``finish_replay`` re-sends: every retained row still
        pending, each settled by its send.  Returns how many sends that
        is."""
        pending = [row for log in self.logs.values() for row in log if row.status == "pending"]
        for row in pending:
            self.settle(row)
        return len(pending)

    def log_records(self) -> dict[str, tuple]:
        return {
            sub_id: (
                next_seq,
                self.frontier.get(sub_id, 0),
                [row.observed() for row in self.logs.get(sub_id, ())],
            )
            for sub_id, next_seq in self.next_seq.items()
        }


def _decoded(records: list[dict], live: dict[str, str]) -> tuple[int, dict[str, tuple]]:
    """``durable_state()`` records back to whole rows: a row's number
    from its position in its ``outs``, its status from the ``close``
    record straight after it, its client and text from its subscription
    (*live* maps each to its client), its event and derivation rendered
    from its ``outs`` record's pairs and witness steps; a stream's
    frontier is its ``frontier`` record's, or 0."""
    next_notification, rows_of, frontiers, previous = None, {}, {}, None
    assert records[-1]["k"] == "notifier"
    for record in records:
        kind = record["k"]
        if kind == "notifier":
            next_notification = record["next_notification"]
        elif kind == "frontier":
            frontiers[record["sid"]] = record["seq"]
        elif kind == "close":
            outs, listed = previous, dict(record["rows"])
            assert outs["k"] == "outs" and None not in (outs["rows"][0], outs["rows"][-1])
            eid = outs["eid"]
            event, witnesses = decode_text(eid, outs["pairs"], outs["via"])
            for at, row in enumerate(outs["rows"]):
                if row is not None:
                    sub_id, sequence, via = row
                    head = subscription_part(_subscription(sub_id))
                    body = head + event_part(event) + derivation_part(witnesses[via], event)
                    rows_of.setdefault(sub_id, []).append(
                        (sequence, f"n{outs['n'] + at}", live[sub_id], eid,
                         _subject(sub_id, eid), body, listed.get(at, "acked"))
                    )  # fmt: skip
        else:
            assert kind == "outs"
        previous = record
    # a stream's next sequence follows its newest row
    logs = {sid: (rows[-1][0] + 1, frontiers.get(sid, 0), rows) for sid, rows in rows_of.items()}
    return next_notification, logs


class _Run:
    """The engine and the model side by side."""

    def __init__(self) -> None:
        self.registry = ClientRegistry()
        for client_id, reachable in REACHABLE.items():
            address = ("tcp", "a:1") if reachable else ("carrier-pigeon", "roof")
            self.registry.register(client_id, addresses=(address,), client_id=client_id)
        self.model = _Model()
        self.live: dict[str, str] = {}  # sub_id -> its client
        self.publications = 0
        self.snapshot = [{"k": "notifier", "next_notification": 1}]
        #: the subscriptions the snapshot holds, as its ``sub`` records would
        self.snapshot_owners: dict[str, Subscription] = {}
        self.journal = _Journal()
        self.engine = self._engine()

    def _owners(self) -> dict[str, Subscription]:
        """The live subscriptions, bound to their clients, as recovery
        reads them from ``sub`` records."""
        return {
            sub_id: _subscription(sub_id, client_id) for sub_id, client_id in self.live.items()
        }

    def _engine(self) -> NotificationEngine:
        transports = TransportRegistry([TcpTransport()])
        return NotificationEngine(transports, history_limit=LIMIT, durability=self.journal)

    # -- operations ----------------------------------------------------------

    def subscribe(self, index: int, client_id: str) -> None:
        sub_id = f"s{index}"
        if sub_id not in self.live:
            self.live[sub_id] = client_id
            self.journal.append(_encode_subscription(_subscription(sub_id), client_id))

    def unsubscribe(self, index: int) -> None:
        sub_id = f"s{index}"
        if self.live.pop(sub_id, None) is not None:
            self.engine.forget(sub_id)
            self.journal.append({"k": "unsub", "sid": sub_id})
            self.model.forget(sub_id)

    def publish(self, picks: list[tuple[bool, bool]], abort: bool) -> list:
        event_id = f"e{self.publications}"
        self.publications += 1
        event = Event({"a": "1", "n": self.publications}, event_id=event_id)
        # attribute 'a' rewritten to root 'b'
        rewritten = Witness([(SYNONYM, "b", 0, "a")])
        deliveries, rows = [], []
        for index, (included, derived) in enumerate(picks):
            sub_id = f"s{index}"
            client_id = self.live.get(sub_id)
            if not included or client_id is None:
                continue
            match = SemanticMatch(_subscription(sub_id), event, rewritten if derived else Witness())
            deliveries.append((self.registry.get(client_id), match))
            rows.append(self.model.stage(sub_id, client_id, event_id, match.explain()))
        if not deliveries:
            return deliveries
        self.engine.raise_on_dead_letter = abort
        try:
            outcomes = self.engine.fan_out(deliveries)
        except DeliveryError:
            outcomes = None
        finally:
            self.engine.raise_on_dead_letter = False
        for row in rows:
            if not self.model.settle(row) and abort:
                break  # the rest stay pending
        if outcomes is not None:
            assert [o.notification.notification_id for o in outcomes] == [r.nid for r in rows]
        return deliveries

    def replay(self, index: int, sequence: int) -> None:
        sub_id = f"s{index}"
        got = [
            (o.notification.sequence, o.notification.notification_id, o.delivered)
            for o in self.engine.replay_from(sub_id, sequence, self.registry)
        ]
        expected = []
        for row in self.model.logs.get(sub_id, ()):
            if row.sequence >= sequence:
                delivered = REACHABLE[row.client_id]
                if row.status == "pending":
                    self.model.settle(row)
                expected.append((row.sequence, row.nid, delivered))
        assert got == expected

    def checkpoint(self) -> None:
        self.snapshot = [_json(record) for record in self.engine.durable_state()]
        self.snapshot_owners = self._owners()
        self.journal.records.clear()

    def crash(self) -> None:
        """Recover as ``durability.recover`` does, minus the dispatcher:
        adopt the snapshot's records, walk the tail once in order — a
        ``sub`` adds its owner, an ``unsub`` forgets the stream as the
        live call did, an ``outs`` (with its ``close``) and an ``acks``
        are adopted — then the re-sends."""
        tail = list(self.journal.records)
        self.engine = self._engine()
        owners = dict(self.snapshot_owners)
        for record, close in _with_close(_json(self.snapshot)):
            self.engine.adopt(record, owners, close)
        for record, close in _with_close(tail):
            if record["k"] == "sub":
                owners[record["sid"]] = _decode_subscription(record)
            elif record["k"] == "unsub":
                self.engine.forget(record["sid"])
                del owners[record["sid"]]
            else:
                self.journal.stats.dedup_drops += self.engine.adopt(record, owners, close)
        sends = self.journal.stats.replayed_deliveries
        self.engine.finish_replay(self.registry)
        assert self.journal.stats.replayed_deliveries - sends == self.model.recover()

    # -- the comparison --------------------------------------------------------

    def check(self) -> None:
        model, engine = self.model, self.engine
        for index in range(SUBS):
            sub_id = f"s{index}"
            got = [
                (e.sequence, e.notification_id, e.client_id, e.event_id, e.subject, e.body,
                 e.status)
                for e in engine.delivery_log(sub_id)
            ]  # fmt: skip
            assert got == [row.observed() for row in model.logs.get(sub_id, ())], sub_id
        assert engine.delivery_frontiers() == model.frontier
        records = [_json(record) for record in engine.durable_state()]
        next_notification, logs = _decoded(records, self.live)
        assert next_notification == model.next_nid
        assert logs == model.log_records()
        fresh = NotificationEngine(history_limit=LIMIT)
        owners = self._owners()
        for record, close in _with_close(_json(records)):
            fresh.adopt(record, owners, close)
        assert [_json(record) for record in fresh.durable_state()] == records


_OPS = st.one_of(
    st.tuples(st.just("subscribe"), st.integers(0, SUBS - 1), st.sampled_from(sorted(REACHABLE))),
    st.tuples(st.just("unsubscribe"), st.integers(0, SUBS - 1)),
    st.tuples(
        st.just("publish"),
        st.lists(st.tuples(st.booleans(), st.booleans()), min_size=SUBS, max_size=SUBS),
        st.booleans(),
    ),
    st.tuples(
        st.just("publish"),
        st.just([(True, False)] * SUBS),
        st.just(False),
    ),
    st.tuples(st.just("replay"), st.integers(0, SUBS - 1), st.integers(1, 8)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("crash")),
)


@given(ops=st.lists(_OPS, max_size=30))
def test_columnar_log_equals_list_of_rows(ops):
    run = _Run()
    run.check()
    for op, *args in ops:
        getattr(run, op)(*args)
        run.check()


def test_a_pending_row_of_an_ended_stream_is_not_resent():
    """A fan-out a dead letter aborts leaves ``s1``'s row pending; then
    ``s1`` ends and the id starts a new stream, whose row at the same
    sequence is a dead letter.  Recovery reads the tail in order: the
    ended stream's row goes with its stream, as it went live, and the
    new stream's row keeps its own status — nothing is re-sent."""
    run = _Run()
    run.subscribe(0, "cl-u")
    run.subscribe(1, "cl-a")
    # s0's dead letter aborts the fan-out: s1's row stays pending
    run.publish([(True, False), (True, False), (False, False)], True)
    assert [entry.status for entry in run.engine.delivery_log("s1")] == ["pending"]
    run.unsubscribe(1)
    run.subscribe(1, "cl-u")
    run.publish([(False, False), (True, False), (False, False)], False)
    assert [(e.sequence, e.status) for e in run.engine.delivery_log("s1")] == [(1, "dead")]

    run.crash()
    assert run.journal.stats.replayed_deliveries == 0
    assert run.journal.stats.dedup_drops == 2  # s0's dead letter and the new s1 row's
    assert [(e.sequence, e.status) for e in run.engine.delivery_log("s1")] == [(1, "dead")]
    run.check()
